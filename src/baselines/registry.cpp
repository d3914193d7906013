#include "baselines/registry.hpp"

#include "baselines/cuszp_like.hpp"
#include "baselines/fzgpu_like.hpp"
#include "baselines/mgard_like.hpp"
#include "baselines/sperr_like.hpp"
#include "baselines/sz2.hpp"
#include "baselines/sz3.hpp"
#include "baselines/zfp_like.hpp"
#include "core/pfpl.hpp"

namespace repro::baselines {

std::vector<CompressorPtr> all_compressors() {
  return {
      std::make_shared<ZfpLikeCompressor>(),
      std::make_shared<Sz2Compressor>(),
      std::make_shared<Sz3Compressor>(false),
      std::make_shared<Sz3Compressor>(true),
      std::make_shared<MgardLikeCompressor>(),
      std::make_shared<SperrLikeCompressor>(),
      std::make_shared<FzGpuLikeCompressor>(),
      std::make_shared<CuszpLikeCompressor>(),
      std::make_shared<pfpl::PfplCompressor>(pfpl::Executor::Serial),
      std::make_shared<pfpl::PfplCompressor>(pfpl::Executor::OpenMP),
      std::make_shared<pfpl::PfplCompressor>(pfpl::Executor::GpuSim),
  };
}

CompressorPtr find_compressor(const std::string& name) {
  for (auto& c : all_compressors())
    if (c->name() == name) return c;
  throw CompressionError("unknown compressor: " + name);
}

}  // namespace repro::baselines
