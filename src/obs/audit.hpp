// Continuous error-bound audit pipeline.
//
// The paper's headline guarantee — the requested point-wise bound holds for
// *every* value — is exactly the invariant a growing codebase silently
// regresses (Fallin & Burtscher, "Lessons Learned on the Path to
// Guaranteeing the Error Bound in Lossy Quantizers"). The ErrorBoundAuditor
// re-verifies it continuously: it sweeps the synthetic suites (src/data)
// across dtypes x error-bound modes x bounds, runs compress -> decompress,
// and re-checks every reconstructed value with the external judge's
// semantics (src/metrics), independent of the compressor's own bookkeeping.
//
// Everything is recorded twice:
//   * into the obs::MetricsRegistry (audit.* counters, per-chunk bound-
//     utilization / ratio / PSNR histograms) so CI trends it, and
//   * into an AuditResult with a drill-down of the *first offending value*
//     (suite, file, seed, chunk, index, original/reconstructed/allowed) so a
//     violation is immediately reproducible.
//
// The same per-field verifier backs the ingest pipeline's audit hook
// (ingest::IngestPipeline::Options::audit, `pfpl pack --audit`), so the
// service path is audited by the same code as the sweep. Lives in its own library (repro_audit): unlike
// the rest of src/obs it depends on core/data/metrics.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "core/pfpl.hpp"

namespace repro::obs {

struct AuditConfig {
  std::size_t target_values = 1 << 14;  ///< per generated file
  int max_files = 1;                    ///< per suite
  std::vector<double> bounds{1e-2, 1e-3};
  std::vector<DType> dtypes{DType::F32, DType::F64};
  std::vector<EbType> ebs{EbType::ABS, EbType::REL, EbType::NOA};
  std::vector<std::string> suites;      ///< suite-name filter; empty = all
  pfpl::Executor exec = pfpl::Executor::Serial;
  u64 seed = 0x5D12B1E5u;               ///< forwarded to data::generate

  /// The paper-scale protocol (`pfpl audit --full`): larger files, more of
  /// them, all four bounds.
  void scale_full() {
    target_values = 1 << 17;
    max_files = 2;
    bounds = {1e-1, 1e-2, 1e-3, 1e-4};
  }
};

/// Drill-down of the first bound violation in a case: everything needed to
/// reproduce it (suite + seed regenerate the input, chunk + index locate the
/// value, the value triple shows what went wrong).
struct AuditViolation {
  std::string suite;
  std::string file;
  u64 seed = 0;
  std::size_t chunk = 0;   ///< chunk index (core chunking: 4096 f32 / 2048 f64)
  std::size_t index = 0;   ///< value index within the field
  double original = 0.0;
  double reconstructed = 0.0;
  double error = 0.0;      ///< measured error (abs for ABS/NOA, relative for REL)
  double allowed = 0.0;    ///< the effective bound the value had to satisfy
};

/// One (suite, file, eb, eps) compress->decompress->verify cycle.
struct AuditCase {
  std::string suite;
  std::string file;
  DType dtype = DType::F32;
  EbType eb = EbType::ABS;
  double eps = 0.0;
  u64 seed = 0;

  std::size_t values = 0;
  std::size_t chunks = 0;
  u64 violations = 0;
  double max_err = 0.0;    ///< worst per-value error (same unit as `allowed`)
  double allowed = 0.0;    ///< effective bound (eps, or eps*range for NOA)
  double ratio = 0.0;
  double psnr_db = 0.0;    ///< finite by construction (see metrics::ErrorStats)

  bool has_first = false;
  AuditViolation first;    ///< valid when has_first
};

struct AuditResult {
  std::vector<AuditCase> cases;
  std::size_t total_values = 0;
  u64 total_violations = 0;

  bool ok() const { return total_violations == 0; }
  /// Per-case lines plus a summary; violating cases print their drill-down.
  std::string text() const;
  /// {"cases":[...],"total_values":N,"total_violations":N,"ok":bool}
  std::string json() const;
};

class ErrorBoundAuditor {
 public:
  /// Test hook: mutate the decompressed bytes before verification (models a
  /// corrupted decode; the auditor must catch it).
  using Corruptor = std::function<void(std::vector<u8>& raw, const AuditCase& about)>;

  explicit ErrorBoundAuditor(AuditConfig cfg = {}) : cfg_(std::move(cfg)) {}

  /// Sweep every (suite, file) x eb x bound combination of the config.
  /// Throws CompressionError only on harness-level failures (unknown suite);
  /// bound violations are *reported*, never thrown.
  AuditResult run() const;

  /// Verify one original/reconstruction pair — the unit the sweep and the
  /// ingest pipeline's audit hook share. `recon_raw` holds the decompressed
  /// scalar bytes; labels feed the drill-down.
  static AuditCase verify_field(const Field& orig, const std::vector<u8>& recon_raw,
                                EbType eb, double eps, const std::string& suite,
                                const std::string& file, u64 seed,
                                std::size_t compressed_bytes);

  void set_corruptor(Corruptor c) { corrupt_ = std::move(c); }

 private:
  AuditConfig cfg_;
  Corruptor corrupt_;
};

}  // namespace repro::obs
