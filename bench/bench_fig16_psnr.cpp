// Figure 16 reproduction: compression ratio vs. PSNR for the three
// error-bound types on single-precision data (16a = ABS, 16b = REL,
// 16c = NOA). Suites per chart match the corresponding result sections.
#include "harness.hpp"

using namespace repro;

int main(int argc, char** argv) {
  bench::SweepConfig base = bench::parse_args(argc, argv, {});
  base.dtype = DType::F32;

  // "The inputs used for producing each PSNR chart match those of the
  // respective result sections above" — so ABS/NOA use SZ3, not SZ2.
  bench::SweepConfig abs = base;
  abs.eb = EbType::ABS;
  abs.exclude_non_3d = true;
  abs.exclude_compressors = {"SZ2_Serial"};
  bench::print_rows("Fig16a_PSNR_ABS_f32", bench::run_sweep(abs));

  bench::SweepConfig rel = base;
  rel.eb = EbType::REL;
  bench::print_rows("Fig16b_PSNR_REL_f32", bench::run_sweep(rel));

  bench::SweepConfig noa = base;
  noa.eb = EbType::NOA;
  noa.exclude_non_3d = true;
  noa.exclude_compressors = {"SZ2_Serial"};
  bench::print_rows("Fig16c_PSNR_NOA_f32", bench::run_sweep(noa));
  return 0;
}
