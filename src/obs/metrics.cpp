#include "obs/metrics.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/json.hpp"

namespace repro::obs {

Histogram::Histogram(std::vector<u64> bounds) : bounds_(std::move(bounds)) {
  for (std::size_t i = 1; i < bounds_.size(); ++i)
    if (bounds_[i] <= bounds_[i - 1])
      throw std::invalid_argument("obs::Histogram: bounds must be strictly increasing");
  for (auto& s : shards_) {
    // std::atomic is not movable, so size the bucket vector in place.
    std::vector<std::atomic<u64>> b(bounds_.size() + 1);
    s.buckets.swap(b);
  }
}

std::vector<u64> Histogram::default_latency_bounds_us() {
  // 1us, 4us, 16us, ... ~16.8s: 13 exponential buckets cover everything from
  // a single chunk encode to a full batch run.
  std::vector<u64> b;
  for (u64 v = 1; v <= (u64{1} << 24); v <<= 2) b.push_back(v);
  return b;
}

std::vector<u64> Histogram::bucket_counts() const {
  std::vector<u64> out(bounds_.size() + 1, 0);
  for (const auto& s : shards_)
    for (std::size_t i = 0; i < out.size(); ++i)
      out[i] += s.buckets[i].load(std::memory_order_relaxed);
  return out;
}

double Histogram::quantile(double q) const {
  const u64 c = count();
  if (c == 0) return 0.0;
  q = std::min(std::max(q, 0.0), 1.0);
  const double lo = static_cast<double>(min());
  const double hi = static_cast<double>(max());
  // Rank of the target sample, 1-based, clamped into [1, c].
  u64 target = static_cast<u64>(q * static_cast<double>(c));
  if (target < 1) target = 1;
  if (target > c) target = c;
  const std::vector<u64> counts = bucket_counts();
  u64 cum = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    if (cum + counts[i] < target) {
      cum += counts[i];
      continue;
    }
    // Target sample lives in bucket i: interpolate between the bucket's
    // bounds, clamped to the observed range (the first/last occupied bucket
    // is typically only partially covered by real samples).
    double b_lo = i == 0 ? lo : static_cast<double>(bounds_[i - 1]);
    double b_hi = i < bounds_.size() ? static_cast<double>(bounds_[i]) : hi;
    b_lo = std::max(b_lo, lo);
    b_hi = std::min(std::max(b_hi, b_lo), hi);
    const double frac =
        static_cast<double>(target - cum) / static_cast<double>(counts[i]);
    return b_lo + frac * (b_hi - b_lo);
  }
  return hi;  // unreachable when counts are consistent with count()
}

u64 Histogram::count() const {
  u64 t = 0;
  for (const auto& s : shards_) t += s.count.load(std::memory_order_relaxed);
  return t;
}

u64 Histogram::sum() const {
  u64 t = 0;
  for (const auto& s : shards_) t += s.sum.load(std::memory_order_relaxed);
  return t;
}

u64 Histogram::min() const {
  u64 t = UINT64_MAX;
  for (const auto& s : shards_) t = std::min(t, s.min.load(std::memory_order_relaxed));
  return t;
}

u64 Histogram::max() const {
  u64 t = 0;
  for (const auto& s : shards_) t = std::max(t, s.max.load(std::memory_order_relaxed));
  return t;
}

void Histogram::reset() {
  for (auto& s : shards_) {
    for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
    s.sum.store(0, std::memory_order_relaxed);
    s.count.store(0, std::memory_order_relaxed);
    s.min.store(UINT64_MAX, std::memory_order_relaxed);
    s.max.store(0, std::memory_order_relaxed);
  }
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* r = new MetricsRegistry();  // leaked: outlives all users
  return *r;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lk(m_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lk(m_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name, std::vector<u64> bounds) {
  std::lock_guard<std::mutex> lk(m_);
  auto& slot = histograms_[name];
  if (!slot) {
    if (bounds.empty()) bounds = Histogram::default_latency_bounds_us();
    slot = std::make_unique<Histogram>(std::move(bounds));
  }
  return *slot;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lk(m_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lk(m_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

std::string MetricsRegistry::json() const {
  std::lock_guard<std::mutex> lk(m_);
  JsonWriter w;
  w.begin_object();
  w.key("counters").begin_object();
  for (const auto& [name, c] : counters_)
    w.kv(name, static_cast<unsigned long long>(c->value()));
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, g] : gauges_) {
    w.key(name).begin_object();
    w.kv("value", static_cast<long long>(g->value()));
    w.kv("peak", static_cast<long long>(g->peak()));
    w.end_object();
  }
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [name, h] : histograms_) {
    w.key(name).begin_object();
    w.kv("count", static_cast<unsigned long long>(h->count()));
    w.kv("sum", static_cast<unsigned long long>(h->sum()));
    if (h->count()) {
      w.kv("min", static_cast<unsigned long long>(h->min()));
      w.kv("max", static_cast<unsigned long long>(h->max()));
      w.kv("mean", h->mean());
      w.kv("p50", h->p50());
      w.kv("p95", h->p95());
      w.kv("p99", h->p99());
    }
    w.key("bounds").begin_array();
    for (u64 b : h->bounds()) w.value(static_cast<unsigned long long>(b));
    w.end_array();
    w.key("buckets").begin_array();
    for (u64 b : h->bucket_counts()) w.value(static_cast<unsigned long long>(b));
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.take();
}

}  // namespace repro::obs
