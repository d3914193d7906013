// Figures 10 & 11 reproduction: REL error bounds — compression ratio vs.
// DECOMPRESSION throughput, single (Fig 10) and double (Fig 11) precision.
#include "harness.hpp"

using namespace repro;

int main(int argc, char** argv) {
  bench::SweepConfig cfg = bench::parse_args(argc, argv, {});
  cfg.eb = EbType::REL;

  cfg.dtype = DType::F32;
  bench::print_rows("Fig10_REL_decompress_f32", bench::run_sweep(cfg));

  cfg.dtype = DType::F64;
  bench::print_rows("Fig11_REL_decompress_f64", bench::run_sweep(cfg));
  return 0;
}
