// Figures 8 & 9 reproduction: REL error bounds — compression ratio vs.
// compression throughput on single- (Fig 8) and double-precision (Fig 9)
// data. All suites are used ("We used all inputs to produce the results").
// Only PFPL, SZ2, and ZFP support REL; the capability filter enforces that.
#include "harness.hpp"

using namespace repro;

int main(int argc, char** argv) {
  bench::SweepConfig cfg = bench::parse_args(argc, argv, {});
  cfg.eb = EbType::REL;

  cfg.dtype = DType::F32;
  bench::print_rows("Fig8_REL_compress_f32", bench::run_sweep(cfg));

  cfg.dtype = DType::F64;
  bench::print_rows("Fig9_REL_compress_f64", bench::run_sweep(cfg));
  return 0;
}
