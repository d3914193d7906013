// RunReport — one machine-readable JSON artifact per run.
//
// Folds everything the process observed into a single document:
//
//   {
//     "meta":         { "tool": "pfpl", "argv": "...", ... },
//     "metrics":      MetricsRegistry::json(),
//     "spans":        per-name aggregates {count, total_ms, min_ms, max_ms},
//     "run_times_ms": { "<label>": [t0, t1, ...] },   // bench per-run times
//     "sections":     { "ingest": {...}, ... }        // caller-rendered JSON
//   }
//
// Sections are pre-rendered JSON fragments so higher layers (ingest, bench) can
// contribute their own stats without obs depending on them. The CLI and the
// bench harness write the report when --report / --json is given; CI uploads
// it as an artifact so perf regressions are diffable across commits.
#pragma once

#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace repro::obs {

class RunReport {
 public:
  static RunReport& global();

  void set_meta(const std::string& key, const std::string& value);
  /// Attach a pre-rendered JSON object under "sections"."name" (replaces any
  /// previous fragment with the same name).
  void add_section(const std::string& name, const std::string& json_fragment);
  /// Append per-run wall times (milliseconds) under "run_times_ms"."label";
  /// repeated calls with the same label extend the series.
  void add_run_times(const std::string& label, const std::vector<double>& ms);

  /// Render the full document (pulls the live MetricsRegistry and
  /// TraceRecorder aggregates at call time).
  std::string json() const;
  /// Write json() to `path`. Throws CompressionError on I/O failure.
  void write(const std::string& path) const;

  void clear();

 private:
  RunReport() = default;

  mutable std::mutex m_;
  std::map<std::string, std::string> meta_;
  std::map<std::string, std::string> sections_;
  std::map<std::string, std::vector<double>> run_times_ms_;
};

}  // namespace repro::obs
