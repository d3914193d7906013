// MetricsRegistry — named counters, gauges, and fixed-bucket histograms.
//
// Update paths are lock-free after the first lookup: a Counter/Histogram is
// an array of cache-line-padded shards, each thread hashes to one shard and
// does a relaxed fetch_add, and reads merge the shards. That keeps the hot
// encode loops (one counter bump per 16 KiB chunk, plus per-task pool
// accounting) free of a shared contended cache line at any worker count.
//
// Registration (counter()/gauge()/histogram()) takes a mutex and returns a
// reference that stays valid for the registry's lifetime — call sites cache
// it in a function-local static:
//
//   static obs::Counter& chunks = obs::MetricsRegistry::global().counter("core.chunks");
//   chunks.add(1);
//
// All updates are additionally gated on obs::enabled(): when observability
// is off, add()/record() are a relaxed load + branch and touch nothing.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/types.hpp"
#include "obs/control.hpp"

namespace repro::obs {

namespace detail {
/// Shard index of the calling thread (stable per thread, hashed once).
inline std::size_t shard_index(std::size_t nshards) {
  static thread_local const std::size_t h =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  return h % nshards;
}

struct alignas(64) PaddedCounter {
  std::atomic<u64> v{0};
};
}  // namespace detail

inline constexpr std::size_t kMetricShards = 16;

/// Monotonic counter. add() is sharded and lock-free; value() merges shards.
class Counter {
 public:
  void add(u64 n = 1) {
    if (!enabled()) return;
    shards_[detail::shard_index(kMetricShards)].v.fetch_add(n, std::memory_order_relaxed);
  }
  u64 value() const {
    u64 total = 0;
    for (const auto& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }
  void reset() {
    for (auto& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<detail::PaddedCounter, kMetricShards> shards_;
};

/// Point-in-time signed value (queue depths, in-flight bytes). set()/add()
/// are single-cell atomics — gauges are not hot enough to shard, and a
/// sharded "current value" has no meaningful merge.
class Gauge {
 public:
  void set(long long v) {
    if (!enabled()) return;
    v_.store(v, std::memory_order_relaxed);
    update_peak(v);
  }
  void add(long long d) {
    if (!enabled()) return;
    update_peak(v_.fetch_add(d, std::memory_order_relaxed) + d);
  }
  long long value() const { return v_.load(std::memory_order_relaxed); }
  long long peak() const { return peak_.load(std::memory_order_relaxed); }
  void reset() {
    v_.store(0, std::memory_order_relaxed);
    peak_.store(0, std::memory_order_relaxed);
  }

 private:
  void update_peak(long long v) {
    long long p = peak_.load(std::memory_order_relaxed);
    while (v > p && !peak_.compare_exchange_weak(p, v, std::memory_order_relaxed)) {
    }
  }
  std::atomic<long long> v_{0};
  std::atomic<long long> peak_{0};
};

/// Fixed-bucket histogram over u64 samples (latencies, in the unit the
/// metric name's suffix gives: `_us` or `_ns`). Bucket i counts samples <= bounds[i]; one overflow bucket
/// holds the rest. Buckets and the sum/count/min/max aggregates are sharded
/// like Counter.
class Histogram {
 public:
  /// `bounds` must be strictly increasing; it is fixed for the histogram's
  /// lifetime. An empty bounds list degenerates to a single overflow bucket.
  explicit Histogram(std::vector<u64> bounds);

  void record(u64 v) {
    if (!enabled()) return;
    Shard& s = shards_[detail::shard_index(kMetricShards)];
    s.buckets[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(v, std::memory_order_relaxed);
    s.count.fetch_add(1, std::memory_order_relaxed);
    relaxed_min(s.min, v);
    relaxed_max(s.max, v);
  }

  /// Default exponential latency bounds in microseconds: 1us .. ~16s.
  static std::vector<u64> default_latency_bounds_us();

  const std::vector<u64>& bounds() const { return bounds_; }
  std::size_t bucket_of(u64 v) const {
    std::size_t i = 0;
    while (i < bounds_.size() && v > bounds_[i]) ++i;
    return i;  // bounds_.size() == overflow bucket
  }

  /// Merged bucket counts (size bounds().size() + 1, last = overflow).
  std::vector<u64> bucket_counts() const;
  /// Quantile estimate for q in [0,1] by linear interpolation inside the
  /// containing bucket, clamped to [min(), max()] so the estimate can never
  /// leave the observed range. 0 when the histogram is empty. Exponential
  /// buckets make this coarse in the tail — treat p95/p99 as indicative, not
  /// exact.
  double quantile(double q) const;
  double p50() const { return quantile(0.50); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }
  u64 count() const;
  u64 sum() const;
  u64 min() const;  ///< UINT64_MAX when empty
  u64 max() const;  ///< 0 when empty
  double mean() const {
    u64 c = count();
    return c ? static_cast<double>(sum()) / static_cast<double>(c) : 0.0;
  }
  void reset();

 private:
  struct alignas(64) Shard {
    std::vector<std::atomic<u64>> buckets;
    std::atomic<u64> sum{0};
    std::atomic<u64> count{0};
    std::atomic<u64> min{UINT64_MAX};
    std::atomic<u64> max{0};
  };
  static void relaxed_min(std::atomic<u64>& slot, u64 v) {
    u64 cur = slot.load(std::memory_order_relaxed);
    while (v < cur && !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  static void relaxed_max(std::atomic<u64>& slot, u64 v) {
    u64 cur = slot.load(std::memory_order_relaxed);
    while (v > cur && !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  std::vector<u64> bounds_;
  std::array<Shard, kMetricShards> shards_;
};

/// Process-wide registry of named metrics. Lookup is mutex-protected and
/// meant to run once per call site; the returned references remain valid
/// for the registry's lifetime (reset() zeroes values, never removes).
class MetricsRegistry {
 public:
  static MetricsRegistry& global();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// Get-or-create; `bounds` is only used on first creation.
  Histogram& histogram(const std::string& name, std::vector<u64> bounds = {});

  /// Zero every metric (keeps registrations and references valid).
  void reset();

  /// JSON object {"counters":{...},"gauges":{...},"histograms":{...}}.
  std::string json() const;

  std::size_t size() const;

 private:
  friend std::string prometheus_text();  // obs/exposition.hpp walks the maps too

  mutable std::mutex m_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace repro::obs
