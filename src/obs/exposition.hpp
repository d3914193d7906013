// Metrics exposition — render the MetricsRegistry for external scrapers.
//
// Two formats:
//   * Prometheus text exposition format 0.0.4 (`prometheus_text()`): one
//     family per metric, names sanitized into the `pfpl_` namespace
//     ("net.request_us" -> "pfpl_net_request_us"), counters suffixed
//     `_total`, gauges as-is plus a `_peak` companion family, histograms as
//     cumulative `_bucket{le="..."}` series with `+Inf`, `_sum`, `_count`.
//   * JSON (`metrics_json_doc()`): the one `pfpl-metrics/1` document. The
//     METRICS op, `/metrics.json`, the stall and crash reports,
//     `pfpl --report`, `pfpl profile --json` and bench `--json` all write it.
//
// Both renderers read the registry's merged snapshots under the registry's
// own mutex and are safe to call while worker threads are recording. With
// observability disabled the output is still a well-formed document — values
// simply stay at zero.
#pragma once

#include <string>

namespace repro::obs {

/// Sanitized Prometheus family name: lowercase [a-z0-9_] with a `pfpl_`
/// prefix; every other character becomes '_' ("net.request_us" ->
/// "pfpl_net_request_us").
std::string prometheus_family(const std::string& name);

/// The global registry in Prometheus text format.
std::string prometheus_text();

/// The snapshot document
/// {"schema":"pfpl-metrics/1","ts_ms":…,"metrics":<registry json>}, plus
/// "stats":<stats> when `stats` (a complete JSON value: the server's
/// STATS-op object, or the `pfpl` verb's own object) is non-empty.
std::string metrics_json_doc(const std::string& stats = "");

}  // namespace repro::obs
