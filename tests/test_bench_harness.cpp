// Tests for the benchmark harness itself: the sweep engine feeds
// EXPERIMENTS.md, so its aggregation (nested geometric means), compressor
// filtering, Pareto-front marking, and the machine-readable output paths
// (--json rows, CSV schema) must be correct.
#include <gtest/gtest.h>

#include "harness.hpp"
#include "json_value.hpp"

using namespace repro;
using namespace repro::bench;

namespace {

SweepConfig tiny(EbType eb, DType dt) {
  SweepConfig cfg;
  cfg.eb = eb;
  cfg.dtype = dt;
  cfg.bounds = {1e-2};
  cfg.target_values = 1 << 12;
  cfg.max_files = 1;
  cfg.runs = 1;
  return cfg;
}

}  // namespace

TEST(Harness, ParseArgs) {
  const char* argv[] = {"prog", "--target", "1234", "--files", "5", "--runs", "7"};
  SweepConfig cfg = parse_args(7, const_cast<char**>(argv), {});
  EXPECT_EQ(cfg.target_values, 1234u);
  EXPECT_EQ(cfg.max_files, 5);
  EXPECT_EQ(cfg.runs, 7);
  const char* argv2[] = {"prog", "--full"};
  SweepConfig full = parse_args(2, const_cast<char**>(argv2), {});
  EXPECT_EQ(full.runs, 9);  // the paper's 9-run protocol
}

TEST(Harness, SweepFiltersByCapability) {
  // A REL sweep must only contain the REL-capable compressors
  // (PFPL x3, SZ2, ZFP).
  auto rows = run_sweep(tiny(EbType::REL, DType::F32));
  ASSERT_FALSE(rows.empty());
  for (const Row& r : rows) {
    EXPECT_TRUE(r.compressor.rfind("PFPL", 0) == 0 || r.compressor == "SZ2_Serial" ||
                r.compressor == "ZFP_Serial")
        << r.compressor;
    EXPECT_GT(r.ratio, 0);
    EXPECT_GT(r.comp_mbps, 0);
    EXPECT_GT(r.decomp_mbps, 0);
  }
}

TEST(Harness, SweepRespectsExcludeList) {
  SweepConfig cfg = tiny(EbType::ABS, DType::F32);
  cfg.exclude_compressors = {"SZ2_Serial", "ZFP_Serial"};
  for (const Row& r : run_sweep(cfg)) {
    EXPECT_NE(r.compressor, "SZ2_Serial");
    EXPECT_NE(r.compressor, "ZFP_Serial");
  }
}

TEST(Harness, SweepRespectsOnlyList) {
  SweepConfig cfg = tiny(EbType::ABS, DType::F32);
  cfg.only_compressors = {"PFPL_Serial"};
  auto rows = run_sweep(cfg);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].compressor, "PFPL_Serial");
}

TEST(Harness, F64SweepSkipsFloatOnlyCodecs) {
  for (const Row& r : run_sweep(tiny(EbType::NOA, DType::F64)))
    EXPECT_NE(r.compressor, "FZ-GPU_CUDAsim");  // float-only per Table III
}

TEST(Harness, PfplExecutorsReportIdenticalRatios) {
  SweepConfig cfg = tiny(EbType::ABS, DType::F32);
  cfg.only_compressors = {"PFPL_Serial", "PFPL_OMP", "PFPL_CUDAsim"};
  auto rows = run_sweep(cfg);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_DOUBLE_EQ(rows[0].ratio, rows[1].ratio);
  EXPECT_DOUBLE_EQ(rows[0].ratio, rows[2].ratio);
}

TEST(Harness, GuaranteedCompressorsReportZeroViolations) {
  for (EbType eb : {EbType::ABS, EbType::REL, EbType::NOA}) {
    SweepConfig cfg = tiny(eb, DType::F32);
    cfg.only_compressors = {"PFPL_Serial"};
    for (const Row& r : run_sweep(cfg)) EXPECT_EQ(r.violations, 0u) << to_string(eb);
  }
}

TEST(Harness, ParetoMarking) {
  std::vector<Row> rows(3);
  rows[0] = {.compressor = "a", .eb = 0.1, .ratio = 10, .comp_mbps = 100, .decomp_mbps = 50};
  rows[1] = {.compressor = "b", .eb = 0.1, .ratio = 5, .comp_mbps = 200, .decomp_mbps = 100};
  rows[2] = {.compressor = "c", .eb = 0.1, .ratio = 4, .comp_mbps = 150, .decomp_mbps = 60};
  mark_pareto(rows);
  EXPECT_TRUE(rows[0].pareto_compress);   // best ratio
  EXPECT_TRUE(rows[1].pareto_compress);   // best throughput
  EXPECT_FALSE(rows[2].pareto_compress);  // dominated by b
  EXPECT_TRUE(rows[0].pareto_decompress);
  EXPECT_TRUE(rows[1].pareto_decompress);
  EXPECT_FALSE(rows[2].pareto_decompress);
}

TEST(Harness, CsvHeaderMatchesRowSchema) {
  // The documented schema: 10 comma-separated columns, fixed order.
  std::string h = csv_header();
  EXPECT_EQ(h,
            "figure,compressor,eb,ratio,comp_MBps,decomp_MBps,psnr_dB,violations,"
            "pareto_comp,pareto_decomp");
}

TEST(Harness, RowsJsonRoundTripsThroughParser) {
  // The acceptance path for --json: every emitted row must survive a parse
  // back through the obs JSON reader with its values intact.
  std::vector<FigureRow> rows;
  Row a;
  a.compressor = "PFPL_Serial";
  a.eb = 1e-3;
  a.ratio = 5.25;
  a.comp_mbps = 123.5;
  a.decomp_mbps = 456.75;
  a.psnr_db = 78.5;
  a.violations = 3;
  a.pareto_compress = true;
  a.pareto_decompress = false;
  Row b;
  b.compressor = "SZ2 \"quoted\"";  // name needing JSON escaping
  b.eb = 1e-4;
  rows.emplace_back("fig6_abs", a);
  rows.emplace_back("fig7_rel", b);

  obs::JsonValue v = obs::parse_json(rows_json(rows));
  ASSERT_TRUE(v.is_array());
  ASSERT_EQ(v.arr.size(), 2u);
  const obs::JsonValue& ra = v.arr[0];
  for (const char* k : {"figure", "compressor", "eb", "ratio", "comp_MBps", "decomp_MBps",
                        "psnr_dB", "violations", "pareto_comp", "pareto_decomp"})
    ASSERT_TRUE(ra.has(k)) << k;
  EXPECT_EQ(ra.at("figure").str, "fig6_abs");
  EXPECT_EQ(ra.at("compressor").str, "PFPL_Serial");
  EXPECT_DOUBLE_EQ(ra.at("eb").num, 1e-3);
  EXPECT_DOUBLE_EQ(ra.at("ratio").num, 5.25);
  EXPECT_DOUBLE_EQ(ra.at("comp_MBps").num, 123.5);
  EXPECT_DOUBLE_EQ(ra.at("decomp_MBps").num, 456.75);
  EXPECT_DOUBLE_EQ(ra.at("psnr_dB").num, 78.5);
  EXPECT_DOUBLE_EQ(ra.at("violations").num, 3);
  EXPECT_TRUE(ra.at("pareto_comp").b);
  EXPECT_FALSE(ra.at("pareto_decomp").b);
  EXPECT_EQ(v.arr[1].at("compressor").str, "SZ2 \"quoted\"");
}

TEST(Harness, RowsJsonEmptyIsEmptyArray) {
  obs::JsonValue v = obs::parse_json(rows_json({}));
  ASSERT_TRUE(v.is_array());
  EXPECT_TRUE(v.arr.empty());
}

TEST(Harness, ParetoIsPerBound) {
  std::vector<Row> rows(2);
  rows[0] = {.compressor = "a", .eb = 0.1, .ratio = 1, .comp_mbps = 1, .decomp_mbps = 1};
  rows[1] = {.compressor = "b", .eb = 0.01, .ratio = 100, .comp_mbps = 100, .decomp_mbps = 100};
  mark_pareto(rows);
  // Different bounds never dominate each other.
  EXPECT_TRUE(rows[0].pareto_compress);
  EXPECT_TRUE(rows[1].pareto_compress);
}

// The former bench_regress sweep (PFPL_Serial, 1 file per suite, 1<<14
// values, bounds 1e-2 and 1e-3). Ratio and PSNR are deterministic — seeded
// generators, byte-identical streams on every executor and tier — so they
// are pinned to the values this sweep produced before the bench/ gate was
// retired, and every row must hold its bound exactly.
TEST(Harness, RegressSweepRowsArePinned) {
  struct Pin {
    EbType eb;
    DType dtype;
    double eps, ratio, psnr_db;
  };
  const Pin kPins[] = {
      {EbType::ABS, DType::F32, 1e-2, 5.0720979286645704, 65.682344759952841},
      {EbType::ABS, DType::F32, 1e-3, 3.3585391616144289, 86.752152975671962},
      {EbType::ABS, DType::F64, 1e-2, 13.561909245936805, 57.323346010164137},
      {EbType::ABS, DType::F64, 1e-3, 8.4071958813398702, 78.165073216159257},
      {EbType::REL, DType::F32, 1e-2, 6.9274827601789255, 56.949749819035141},
      {EbType::REL, DType::F32, 1e-3, 4.0990061533829705, 76.635773936018722},
      {EbType::REL, DType::F64, 1e-2, 15.283966958391359, 51.975266626154699},
      {EbType::REL, DType::F64, 1e-3, 8.9172630991285882, 72.145030872765005},
      {EbType::NOA, DType::F32, 1e-2, 11.898767780133127, 44.800642199029333},
      {EbType::NOA, DType::F32, 1e-3, 6.2962144583828987, 64.747193248241942},
      {EbType::NOA, DType::F64, 1e-2, 22.32367653496323, 44.611179580963423},
      {EbType::NOA, DType::F64, 1e-3, 11.753628369406082, 64.768034135967426},
  };
  std::size_t checked = 0;
  for (EbType eb : {EbType::ABS, EbType::REL, EbType::NOA}) {
    for (DType dtype : {DType::F32, DType::F64}) {
      SweepConfig cfg;
      cfg.eb = eb;
      cfg.dtype = dtype;
      cfg.bounds = {1e-2, 1e-3};
      cfg.target_values = 1 << 14;
      cfg.max_files = 1;
      cfg.runs = 1;
      cfg.only_compressors = {"PFPL_Serial"};
      const std::vector<Row> rows = run_sweep(cfg);
      ASSERT_EQ(rows.size(), 2u) << to_string(eb) << " " << to_string(dtype);
      for (const Row& r : rows) {
        const Pin* pin = nullptr;
        for (const Pin& p : kPins)
          if (p.eb == eb && p.dtype == dtype && p.eps == r.eb) pin = &p;
        ASSERT_NE(pin, nullptr) << r.eb;
        const std::string where =
            std::string(to_string(eb)) + "_" + to_string(dtype) + "@" + std::to_string(r.eb);
        EXPECT_NEAR(r.ratio, pin->ratio, 1e-9 * pin->ratio) << where;
        EXPECT_NEAR(r.psnr_db, pin->psnr_db, 1e-9 * pin->psnr_db) << where;
        EXPECT_EQ(r.violations, 0u) << where;
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, 12u);
}
