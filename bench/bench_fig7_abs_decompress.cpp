// Figure 7 reproduction: ABS error bounds — compression ratio vs.
// DECOMPRESSION throughput (same sweep as Figure 6; the decomp_MBps column
// is the plotted series). Fig 7a = f32, 7b = f64, 7c = second host.
#include "harness.hpp"

using namespace repro;

int main(int argc, char** argv) {
  bench::SweepConfig cfg = bench::parse_args(argc, argv, {});
  cfg.eb = EbType::ABS;
  cfg.exclude_non_3d = true;
  // The paper compares to SZ2 only in the REL section (V-C); SZ3 elsewhere.
  cfg.exclude_compressors = {"SZ2_Serial"};

  cfg.dtype = DType::F32;
  bench::print_rows("Fig7a_ABS_decompress_f32", bench::run_sweep(cfg));

  cfg.dtype = DType::F64;
  cfg.exclude_compressors = {"SZ2_Serial", "SPERR_Serial"};
  bench::print_rows("Fig7b_ABS_decompress_f64", bench::run_sweep(cfg));
  return 0;
}
