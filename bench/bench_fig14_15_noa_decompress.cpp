// Figures 14 & 15 reproduction: NOA error bounds — compression ratio vs.
// DECOMPRESSION throughput, single (Fig 14) and double (Fig 15) precision.
#include "harness.hpp"

using namespace repro;

int main(int argc, char** argv) {
  bench::SweepConfig cfg = bench::parse_args(argc, argv, {});
  cfg.eb = EbType::NOA;
  cfg.exclude_non_3d = true;
  // The paper compares to SZ2 only in the REL section (V-C); SZ3 elsewhere.
  cfg.exclude_compressors = {"SZ2_Serial"};

  cfg.dtype = DType::F32;
  bench::print_rows("Fig14_NOA_decompress_f32", bench::run_sweep(cfg));

  cfg.dtype = DType::F64;
  bench::print_rows("Fig15_NOA_decompress_f64", bench::run_sweep(cfg));
  return 0;
}
