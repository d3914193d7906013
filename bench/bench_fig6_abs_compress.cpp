// Figure 6 reproduction: ABS error bounds — compression ratio vs.
// compression throughput, 4 bounds (1E-1..1E-4).
//   Fig 6a: single-precision suites (EXAALT/HACC excluded: not 3D, as in the
//           paper), Fig 6b: double-precision suites. Fig 6c is the same
//           harness on a second host.
// SPERR is excluded from the double chart (it cannot handle most of those
// suites — paper Section V-B); FZ-GPU does not support ABS and is skipped by
// the capability filter automatically.
#include "harness.hpp"

using namespace repro;

int main(int argc, char** argv) {
  bench::SweepConfig cfg = bench::parse_args(argc, argv, {});
  cfg.eb = EbType::ABS;
  cfg.exclude_non_3d = true;
  // The paper compares to SZ2 only in the REL section (V-C); SZ3 elsewhere.
  cfg.exclude_compressors = {"SZ2_Serial"};

  cfg.dtype = DType::F32;
  bench::print_rows("Fig6a_ABS_compress_f32", bench::run_sweep(cfg));

  cfg.dtype = DType::F64;
  cfg.exclude_compressors = {"SZ2_Serial", "SPERR_Serial"};
  bench::print_rows("Fig6b_ABS_compress_f64", bench::run_sweep(cfg));
  return 0;
}
