// Shared benchmark harness: reproduces the paper's measurement protocol
// (Section IV) — median-of-N runs of the compression/decompression functions
// only, geometric mean of per-suite geometric means, compressors excluded
// per-figure the way the paper excludes them, Pareto-front marking.
//
// Every figure bench prints CSV-style rows:
//   figure, compressor, device, eb, ratio, comp_MBps, decomp_MBps, psnr_db, violations
// which are the same series the paper plots.
#pragma once

#include <string>
#include <vector>

#include "common/compressor.hpp"
#include "data/synthetic.hpp"

namespace repro::bench {

struct SweepConfig {
  std::vector<double> bounds{1e-1, 1e-2, 1e-3, 1e-4};  // paper's 4 bounds
  EbType eb = EbType::ABS;
  DType dtype = DType::F32;
  bool exclude_non_3d = false;  ///< the paper's EXAALT/HACC exclusion
  std::vector<std::string> exclude_compressors;
  std::vector<std::string> only_compressors;  ///< empty = all supporting eb
  std::size_t target_values = 1 << 16;        ///< per generated file
  int max_files = 2;                          ///< per suite
  int runs = 3;  ///< medians over this many runs (paper: 9)
  std::string json_path;  ///< --json FILE: machine-readable rows + metrics document
};

/// Parse common CLI flags: --target N --files N --runs N --full (paper-scale
/// protocol: runs=9, larger inputs), --json FILE (write every row plus the
/// pfpl-metrics/1 document to FILE at process exit; also enables
/// observability so stage metrics are captured), --csv-header (print the
/// CSV header line and exit — lets scripts fetch the schema without running
/// a sweep), --trace FILE (write a Chrome trace of the sweep at exit).
SweepConfig parse_args(int argc, char** argv, SweepConfig base);

struct Row {
  std::string compressor;
  double eb = 0;
  double ratio = 0;        ///< geo-mean over suites of per-suite geo-means
  double comp_mbps = 0;    ///< uncompressed MB / s
  double decomp_mbps = 0;
  double psnr_db = 0;
  std::size_t violations = 0;  ///< total bound violations observed
  bool pareto_compress = false;
  bool pareto_decompress = false;
  /// Which columns this row actually measured. An encode-only bench (the
  /// temporal rows) has no decompression pass or PSNR — those cells print
  /// empty in the CSV rather than a fake 0.
  bool has_ratio = true, has_comp = true, has_decomp = true;
  bool has_psnr = true, has_violations = true;
};

/// Run the full sweep: every registered compressor that supports the
/// figure's bound type and dtype, over the matching suites, at each bound.
std::vector<Row> run_sweep(const SweepConfig& cfg);

/// Mark Pareto-optimal rows per bound (ratio vs. throughput, both
/// higher-is-better), mirroring the paper's light-blue Pareto fronts.
void mark_pareto(std::vector<Row>& rows);

/// The documented CSV schema (no trailing newline).
const char* csv_header();

/// Print the rows as CSV on stdout. The header line is emitted exactly once
/// per process (before the first row), and the figure banner goes to stderr,
/// so stdout is directly ingestible by cut/pandas across multi-figure
/// benches. When a --json sink is active the rows are also queued for it.
void print_rows(const std::string& figure, const std::vector<Row>& rows);

/// One figure's worth of rows in the JSON output.
using FigureRow = std::pair<std::string, Row>;  // (figure, row)

/// Render rows as a JSON array of objects (one per row, with a "figure"
/// field) — the same shape `--json` writes under the top-level "rows" key.
std::string rows_json(const std::vector<FigureRow>& rows);

/// Route subsequent print_rows() calls into a JSON document written to
/// `path` at process exit ({"rows":[...], "report": <pfpl-metrics/1 document>}).
/// Enables observability (obs::set_enabled) so the report has content.
void set_json_output(const std::string& path);

}  // namespace repro::bench
