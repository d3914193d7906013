// ChunkStore — the two-tier facade the rest of the stack talks to.
//
// Tier 1 is the sharded in-memory ResultCache; tier 2 is the optional
// persistent SegmentStore (enabled by giving Options::dir a path). get()
// consults the cache, falls back to the segment log, and promotes log hits
// into the cache; put() fills both tiers. Either tier alone is a valid
// configuration: a serve-only deployment runs cache-only, `pfpl store`
// verbs run log-only with a tiny cache.
//
// Keys: compress_key() hashes (raw bytes, dtype, eb type, bound) — the full
// identity of a compression request, so the same data under a different
// bound never aliases. decompress_key() hashes the compressed stream under
// a distinct domain tag, so a stream's decompressed bytes and some other
// request's compressed bytes can never collide on one entry.
//
// Timing: get()/put() record store.get_us / store.put_us histograms (the
// bench harness turns those into advisory p50/p95/p99 baseline metrics).
#pragma once

#include <memory>
#include <string>

#include "common/hash.hpp"
#include "common/types.hpp"
#include "store/cache.hpp"
#include "store/segment_log.hpp"

namespace repro::store {

/// Content hash of a compression request: raw input bytes + dtype + error
/// bound type + bound value. Two requests agree on the key iff a cached
/// compressed stream for one is byte-exact for the other.
common::Hash128 compress_key(const void* raw, std::size_t n, DType dtype, EbType eb,
                             double eps);

/// Content hash of a decompression request (domain-separated from
/// compress_key so the two kinds of entries never alias).
common::Hash128 decompress_key(const void* stream, std::size_t n);

class ChunkStore {
 public:
  struct Options {
    ResultCache::Options cache;
    std::string dir;  ///< empty = in-memory tier only
    u64 max_segment_bytes = 64u << 20;
    bool fsync_each_append = false;
  };

  explicit ChunkStore(const Options& opts);

  /// Cache, then segment log (promoting a log hit into the cache).
  bool get(const common::Hash128& key, Bytes& out);

  /// Fill both tiers. `meta` is recorded in the persistent frame (ignored by
  /// the cache tier); pass {} for decompress-side entries.
  void put(const common::Hash128& key, const Bytes& payload, const ChunkMeta& meta);

  /// Group insert: every entry lands in the cache, and the persistent tier
  /// takes them all through SegmentStore::append_batch — one lock, one
  /// flush, one fsync for the whole group. This is the ingest pipeline's
  /// group commit. Payloads are borrowed for the duration of the call.
  /// Returns the number of entries newly written to the persistent tier
  /// (0 when cache-only).
  std::size_t put_batch(const std::vector<SegmentStore::BatchEntry>& entries);

  bool contains(const common::Hash128& key) const;

  bool persistent() const { return log_ != nullptr; }
  ResultCache& cache() { return cache_; }
  const ResultCache& cache() const { return cache_; }
  /// Null when Options::dir was empty.
  SegmentStore* log() { return log_.get(); }
  const SegmentStore* log() const { return log_.get(); }

  /// Flush the persistent tier (no-op when cache-only).
  void sync();

  /// JSON object with both tiers' exact stats — spliced into the server's
  /// STATS response and the svc RunReport section.
  std::string stats_json() const;

 private:
  ResultCache cache_;
  std::unique_ptr<SegmentStore> log_;
};

}  // namespace repro::store
