// Figures 12 & 13 reproduction: NOA error bounds — compression ratio vs.
// compression throughput, single (Fig 12) and double (Fig 13) precision.
// EXAALT/HACC excluded (not 3D -> unsupported by FZ-GPU, matching the
// paper); ZFP and SPERR do not support NOA and are filtered automatically.
#include "harness.hpp"

using namespace repro;

int main(int argc, char** argv) {
  bench::SweepConfig cfg = bench::parse_args(argc, argv, {});
  cfg.eb = EbType::NOA;
  cfg.exclude_non_3d = true;
  // The paper compares to SZ2 only in the REL section (V-C); SZ3 elsewhere.
  cfg.exclude_compressors = {"SZ2_Serial"};

  cfg.dtype = DType::F32;
  bench::print_rows("Fig12_NOA_compress_f32", bench::run_sweep(cfg));

  cfg.dtype = DType::F64;
  bench::print_rows("Fig13_NOA_compress_f64", bench::run_sweep(cfg));
  return 0;
}
