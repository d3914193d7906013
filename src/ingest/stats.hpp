// Metrics for one IngestPipeline::run(). Stage times are SUMS of per-item
// durations: read_ms and hash_ms (file read, dedup probe) run on the
// producer thread, encode_ms is the producer's plan-and-submit time plus the
// caller's wait, assembly and audit time, and append_ms is the caller's group
// commits. Chunk encoding runs on the pool beside them, so stage_ms / wall_ms
// reads as that stage's share of the wall time.
#pragma once

#include <string>

#include "common/types.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace repro::ingest {

struct IngestStats {
  u64 files = 0;            ///< items submitted to run()
  u64 files_failed = 0;     ///< items that ended with an error
  u64 files_reused = 0;     ///< items answered by the store's dedup probe
  u64 chunks = 0;           ///< chunk tasks submitted to the pool
  u64 bytes_in = 0;         ///< raw bytes across all items
  u64 bytes_out = 0;        ///< compressed stream bytes across all items
  u64 probe_hits = 0;       ///< dedup-probe store hits
  u64 probe_misses = 0;
  u64 append_batches = 0;   ///< group commits (ChunkStore::put_batch calls)
  u64 appended = 0;         ///< chunks newly written to the persistent tier
  u64 audited = 0;
  u64 audit_violations = 0;
  u64 peak_queue_bytes = 0;  ///< raw bytes of the queued in-flight items, at peak
  u64 peak_queue_items = 0;  ///< queued in-flight items at peak (<= threads + 1)
  unsigned threads = 0;      ///< encode pool worker count
  double read_ms = 0;        ///< per-stage per-item sums (see header comment)
  double hash_ms = 0;
  double encode_ms = 0;
  double append_ms = 0;
  double wall_ms = 0;

  double ratio() const {
    return bytes_out ? static_cast<double>(bytes_in) / static_cast<double>(bytes_out)
                     : 0.0;
  }
  double mbps() const {
    return wall_ms > 0 ? static_cast<double>(bytes_in) / 1e3 / wall_ms : 0.0;
  }

  /// One line for the CLI, e.g.
  /// ingest: files=8 reused=3 in=64.0MB out=12.3MB ratio=5.2 210.0MB/s
  ///         stages r/h/e/a=12/3/880/40ms wall=900ms batches=2
  std::string summary() const {
    std::string extra;
    if (files_failed) extra += " failed=" + std::to_string(files_failed);
    if (audited)
      extra += " audited=" + std::to_string(audited) +
               " audit_viol=" + std::to_string(audit_violations);
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "ingest: files=%llu reused=%llu%s in=%.1fMB out=%.1fMB ratio=%.2f "
                  "%.1fMB/s threads=%u stages r/h/e/a=%.0f/%.0f/%.0f/%.0fms "
                  "wall=%.0fms batches=%llu",
                  static_cast<unsigned long long>(files),
                  static_cast<unsigned long long>(files_reused), extra.c_str(),
                  bytes_in / 1e6, bytes_out / 1e6, ratio(), mbps(), threads, read_ms,
                  hash_ms, encode_ms, append_ms, wall_ms,
                  static_cast<unsigned long long>(append_batches));
    return buf;
  }

  std::string json() const {
    obs::JsonWriter w;
    w.begin_object();
    w.kv("files", static_cast<unsigned long long>(files));
    w.kv("files_failed", static_cast<unsigned long long>(files_failed));
    w.kv("files_reused", static_cast<unsigned long long>(files_reused));
    w.kv("chunks", static_cast<unsigned long long>(chunks));
    w.kv("bytes_in", static_cast<unsigned long long>(bytes_in));
    w.kv("bytes_out", static_cast<unsigned long long>(bytes_out));
    w.kv("probe_hits", static_cast<unsigned long long>(probe_hits));
    w.kv("probe_misses", static_cast<unsigned long long>(probe_misses));
    w.kv("append_batches", static_cast<unsigned long long>(append_batches));
    w.kv("appended", static_cast<unsigned long long>(appended));
    w.kv("audited", static_cast<unsigned long long>(audited));
    w.kv("audit_violations", static_cast<unsigned long long>(audit_violations));
    w.kv("peak_queue_bytes", static_cast<unsigned long long>(peak_queue_bytes));
    w.kv("peak_queue_items", static_cast<unsigned long long>(peak_queue_items));
    w.kv("threads", threads);
    w.kv("read_ms", read_ms);
    w.kv("hash_ms", hash_ms);
    w.kv("encode_ms", encode_ms);
    w.kv("append_ms", append_ms);
    w.kv("wall_ms", wall_ms);
    w.kv("ratio", ratio());
    w.kv("mbps", mbps());
    w.end_object();
    return w.take();
  }

  /// Publish into the process registry (cumulative across runs; no-op while
  /// obs is disabled — the registry gates every update).
  void publish(obs::MetricsRegistry& r) const {
    r.counter("ingest.files").add(files);
    r.counter("ingest.files_failed").add(files_failed);
    r.counter("ingest.files_reused").add(files_reused);
    r.counter("ingest.chunks").add(chunks);
    r.counter("ingest.bytes_in").add(bytes_in);
    r.counter("ingest.bytes_out").add(bytes_out);
    r.counter("ingest.append_batches").add(append_batches);
    r.counter("ingest.appended").add(appended);
    r.gauge("ingest.peak_queue_bytes").set(static_cast<long long>(peak_queue_bytes));
    r.histogram("ingest.run_wall_us").record(static_cast<u64>(wall_ms * 1e3));
  }
};

}  // namespace repro::ingest
