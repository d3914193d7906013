#include "store/store.hpp"

#include <chrono>

#include "common/bytes.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace repro::store {
namespace {

struct StoreMetrics {
  obs::Histogram& get_us;
  obs::Histogram& put_us;
  static StoreMetrics& get() {
    auto& r = obs::MetricsRegistry::global();
    static StoreMetrics m{
        r.histogram("store.get_us", obs::Histogram::default_latency_bounds_us()),
        r.histogram("store.put_us", obs::Histogram::default_latency_bounds_us())};
    return m;
  }
};

u64 now_us() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::microseconds>(
                              std::chrono::steady_clock::now().time_since_epoch())
                              .count());
}

}  // namespace

common::Hash128 compress_key(const void* raw, std::size_t n, DType dtype, EbType eb,
                             double eps) {
  // Hash the (potentially large) raw bytes once, then fold the request
  // parameters and a domain tag into a fixed-size second pass.
  const common::Hash128 rh = common::hash128(raw, n);
  u8 buf[32] = {'C', static_cast<u8>(dtype), static_cast<u8>(eb)};  // domain tag: compress entry
  common::put_le(buf + 8, eps);
  common::put_le(buf + 16, rh.hi);
  common::put_le(buf + 24, rh.lo);
  return common::hash128(buf, sizeof buf);
}

common::Hash128 decompress_key(const void* stream, std::size_t n) {
  const common::Hash128 sh = common::hash128(stream, n);
  u8 buf[24] = {'D'};  // domain tag: decompress entry
  common::put_le(buf + 8, sh.hi);
  common::put_le(buf + 16, sh.lo);
  return common::hash128(buf, sizeof buf);
}

ChunkStore::ChunkStore(const Options& opts, io::FileOps& ops) : cache_(opts.cache) {
  if (!opts.dir.empty()) {
    SegmentStore::Options lo;
    lo.dir = opts.dir;
    lo.max_segment_bytes = opts.max_segment_bytes;
    lo.fsync_each_append = opts.fsync_each_append;
    log_ = std::make_unique<SegmentStore>(lo, ops);
  }
}

bool ChunkStore::get(const common::Hash128& key, Bytes& out) {
  OBS_SPAN("store.get");
  const u64 t0 = now_us();
  bool hit = cache_.get(key, out);
  if (!hit && log_ && log_->get(key, out)) {
    cache_.put(key, out);  // promote: the next hit skips the disk
    hit = true;
  }
  StoreMetrics::get().get_us.record(now_us() - t0);
  return hit;
}

void ChunkStore::put(const common::Hash128& key, const Bytes& payload,
                     const ChunkMeta& meta) {
  OBS_SPAN("store.put");
  const u64 t0 = now_us();
  cache_.put(key, payload);
  if (log_) log_->put(key, payload, meta);
  StoreMetrics::get().put_us.record(now_us() - t0);
}

std::size_t ChunkStore::put_batch(const std::vector<SegmentStore::BatchEntry>& entries) {
  const u64 t0 = now_us();
  for (const SegmentStore::BatchEntry& e : entries)
    if (e.payload) cache_.put(e.key, *e.payload);
  std::size_t stored = 0;
  if (log_) stored = log_->append_batch(entries);
  StoreMetrics::get().put_us.record(now_us() - t0);
  return stored;
}

bool ChunkStore::contains(const common::Hash128& key) const {
  return cache_.contains(key) || (log_ && log_->contains(key));
}

void ChunkStore::sync() {
  if (log_) log_->sync();
}

std::string ChunkStore::stats_json() const {
  const ResultCache::Stats cs = cache_.stats();
  obs::JsonWriter w;
  w.begin_object();
  w.key("cache").begin_object();
  w.kv("hits", static_cast<unsigned long long>(cs.hits));
  w.kv("misses", static_cast<unsigned long long>(cs.misses));
  w.kv("insertions", static_cast<unsigned long long>(cs.insertions));
  w.kv("evictions", static_cast<unsigned long long>(cs.evictions));
  w.kv("oversize_rejects", static_cast<unsigned long long>(cs.oversize_rejects));
  w.kv("bytes", static_cast<unsigned long long>(cs.bytes));
  w.kv("entries", static_cast<unsigned long long>(cs.entries));
  w.kv("byte_budget", static_cast<unsigned long long>(cache_.byte_budget()));
  w.kv("shards", cache_.shard_count());
  w.end_object();
  w.kv("persistent", log_ != nullptr);
  if (log_) {
    w.key("log").begin_object();
    w.kv("dir", log_->dir());
    w.kv("entries", static_cast<unsigned long long>(log_->entry_count()));
    w.kv("live_bytes", static_cast<unsigned long long>(log_->live_bytes()));
    w.kv("dead_bytes", static_cast<unsigned long long>(log_->dead_bytes()));
    w.kv("generation", static_cast<unsigned long long>(log_->generation()));
    w.end_object();
  }
  w.end_object();
  return w.take();
}

}  // namespace repro::store
