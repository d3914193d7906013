// ErrorBoundAuditor: the clean sweep is clean, and a corrupted decode is
// caught with a reproducible drill-down. The ingest pipeline's audit option
// re-uses the same verifier (tested in test_ingest.cpp).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "core/chunked.hpp"
#include "core/pfpl.hpp"
#include "data/synthetic.hpp"
#include "json_value.hpp"
#include "obs/audit.hpp"
#include "obs/metrics.hpp"

using namespace repro;
using namespace repro::obs;

namespace {

/// Small single-suite config: one f32 suite, one bound, all three eb modes.
AuditConfig small_config() {
  AuditConfig cfg;
  cfg.target_values = 1 << 12;
  cfg.max_files = 1;
  cfg.bounds = {1e-2};
  cfg.dtypes = {DType::F32};
  cfg.suites = {"CESM-ATM"};
  return cfg;
}

}  // namespace

TEST(Audit, CleanSweepHasZeroViolations) {
  obs::set_enabled(true);
  MetricsRegistry& reg = MetricsRegistry::global();
  const u64 cases_before = reg.counter("audit.cases").value();
  const u64 values_before = reg.counter("audit.values").value();

  AuditConfig cfg = small_config();
  cfg.dtypes = {DType::F32, DType::F64};
  cfg.suites = {"CESM-ATM", "Brown Samples"};  // one f32 + one f64 suite
  AuditResult res = ErrorBoundAuditor(cfg).run();

  EXPECT_TRUE(res.ok());
  EXPECT_EQ(res.total_violations, 0u);
  EXPECT_EQ(res.cases.size(), 6u);  // 2 suites x 1 file x 3 ebs x 1 bound
  EXPECT_GT(res.total_values, 0u);
  for (const AuditCase& c : res.cases) {
    EXPECT_EQ(c.violations, 0u) << c.suite << "/" << to_string(c.eb);
    EXPECT_FALSE(c.has_first);
    EXPECT_LE(c.max_err, c.allowed) << c.suite << "/" << to_string(c.eb);
    EXPECT_GT(c.ratio, 1.0);
    EXPECT_TRUE(std::isfinite(c.psnr_db));  // the PSNR-finiteness contract
  }
  // The sweep published into the registry.
  EXPECT_EQ(reg.counter("audit.cases").value() - cases_before, 6u);
  EXPECT_EQ(reg.counter("audit.values").value() - values_before, res.total_values);
  EXPECT_NE(res.text().find("OK (bound holds everywhere)"), std::string::npos);
}

TEST(Audit, CorruptedDecodeIsCaughtWithDrillDown) {
  // Corrupt one specific reconstructed value in chunk 1 of every ABS case;
  // the auditor must name that exact chunk and index.
  constexpr std::size_t kIndex = 5000;  // f32 chunking: 4096/chunk -> chunk 1
  AuditConfig cfg = small_config();
  cfg.ebs = {EbType::ABS};
  ErrorBoundAuditor auditor(cfg);
  auditor.set_corruptor([](std::vector<u8>& raw, const AuditCase& about) {
    ASSERT_EQ(about.dtype, DType::F32);
    ASSERT_GT(raw.size(), (kIndex + 1) * sizeof(float));
    const float bad = 1e30f;
    std::memcpy(raw.data() + kIndex * sizeof(float), &bad, sizeof(float));
  });
  AuditResult res = auditor.run();

  EXPECT_FALSE(res.ok());
  ASSERT_EQ(res.cases.size(), 1u);
  const AuditCase& c = res.cases[0];
  EXPECT_EQ(c.violations, 1u);
  ASSERT_TRUE(c.has_first);
  EXPECT_EQ(c.first.suite, "CESM-ATM");
  EXPECT_EQ(c.first.seed, cfg.seed);
  EXPECT_EQ(c.first.chunk, kIndex / pfpl::chunk_values(DType::F32));
  EXPECT_EQ(c.first.index, kIndex);
  EXPECT_EQ(c.first.reconstructed, static_cast<double>(1e30f));
  EXPECT_GT(c.first.error, c.first.allowed);
  // The report names everything needed to reproduce.
  std::string text = res.text();
  EXPECT_NE(text.find("FIRST VIOLATION"), std::string::npos);
  EXPECT_NE(text.find("suite=CESM-ATM"), std::string::npos);
  EXPECT_NE(text.find("chunk=1"), std::string::npos);
  EXPECT_NE(text.find("index=5000"), std::string::npos);
  EXPECT_NE(text.find("BOUND VIOLATED"), std::string::npos);
}

TEST(Audit, NanCorruptionStaysJsonSafe) {
  // A NaN where the original is finite is a structural mismatch: infinite
  // measured error, but the JSON drill-down must still parse (inf is capped).
  AuditConfig cfg = small_config();
  cfg.ebs = {EbType::REL};
  ErrorBoundAuditor auditor(cfg);
  auditor.set_corruptor([](std::vector<u8>& raw, const AuditCase&) {
    const float bad = std::numeric_limits<float>::quiet_NaN();
    std::memcpy(raw.data(), &bad, sizeof(float));
  });
  AuditResult res = auditor.run();

  ASSERT_FALSE(res.ok());
  ASSERT_TRUE(res.cases[0].has_first);
  EXPECT_EQ(res.cases[0].first.index, 0u);
  EXPECT_TRUE(std::isinf(res.cases[0].first.error));

  JsonValue v = parse_json(res.json());
  EXPECT_FALSE(v.at("cases").arr[0].at("first_violation").is_null());
  EXPECT_TRUE(std::isfinite(v.at("cases").arr[0].at("max_err").num));
  EXPECT_EQ(v.at("ok").b, false);
}

TEST(Audit, VerifyFieldFlagsTruncatedReconstruction) {
  // Missing tail values are read as 0 — for an ABS bound around non-zero data
  // that must count as violations, not silently pass.
  std::vector<float> vals(10000, 5.0f);
  Field field(vals.data(), vals.size());
  std::vector<u8> full(reinterpret_cast<const u8*>(vals.data()),
                       reinterpret_cast<const u8*>(vals.data()) + vals.size() * 4);
  AuditCase clean = ErrorBoundAuditor::verify_field(field, full, EbType::ABS, 1e-3,
                                                    "unit", "f", 1, vals.size());
  EXPECT_EQ(clean.violations, 0u);
  EXPECT_EQ(clean.values, vals.size());

  std::vector<u8> truncated(full.begin(), full.begin() + 9000 * 4);
  AuditCase cut = ErrorBoundAuditor::verify_field(field, truncated, EbType::ABS, 1e-3,
                                                  "unit", "f", 1, vals.size());
  EXPECT_EQ(cut.violations, 1000u);
  ASSERT_TRUE(cut.has_first);
  EXPECT_EQ(cut.first.index, 9000u);
}

TEST(Audit, VerifyFieldJudgesTheExactNoaBound) {
  // fl(1e-3 * range) rounds above the exact product for this range: an error
  // of that rounded product breaks the NOA bound, and the audit must say so.
  const double eps = 1e-3, range = 9.0;
  const std::vector<double> vals = {0.0, range, eps * range};
  const std::vector<double> back = {0.0, range, 0.0};
  const std::vector<u8> raw(reinterpret_cast<const u8*>(back.data()),
                            reinterpret_cast<const u8*>(back.data()) + back.size() * 8);
  const AuditCase c = ErrorBoundAuditor::verify_field(Field(vals.data(), vals.size()), raw,
                                                      EbType::NOA, eps, "unit", "f", 1, 0);
  EXPECT_EQ(c.violations, 1u);
  EXPECT_LT(c.allowed, eps * range);
}
