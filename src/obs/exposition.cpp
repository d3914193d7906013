#include "obs/exposition.hpp"

#include <cctype>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <mutex>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace repro::obs {

namespace {

void append_num(std::string& out, double v) {
  char buf[64];
  // Prometheus values are free-form floats; %.17g round-trips doubles but
  // emits noisy tails for integers, so prefer the exact integer form.
  if (v == static_cast<double>(static_cast<long long>(v))) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  out += buf;
}

void append_u64(std::string& out, u64 v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out += buf;
}

}  // namespace

std::string prometheus_family(const std::string& name) {
  std::string out = "pfpl_";
  out.reserve(name.size() + 5);
  for (char c : name) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (std::isalnum(u)) {
      out += static_cast<char>(std::tolower(u));
    } else {
      out += '_';
    }
  }
  return out;
}

std::string prometheus_text() {
  const MetricsRegistry& reg = MetricsRegistry::global();
  std::lock_guard<std::mutex> lk(reg.m_);
  std::string out;
  for (const auto& [name, c] : reg.counters_) {
    const std::string fam = prometheus_family(name) + "_total";
    out += "# TYPE " + fam + " counter\n";
    out += fam + " ";
    append_u64(out, c->value());
    out += "\n";
  }
  for (const auto& [name, g] : reg.gauges_) {
    const std::string fam = prometheus_family(name);
    out += "# TYPE " + fam + " gauge\n";
    out += fam + " ";
    append_num(out, static_cast<double>(g->value()));
    out += "\n# TYPE " + fam + "_peak gauge\n";
    out += fam + "_peak ";
    append_num(out, static_cast<double>(g->peak()));
    out += "\n";
  }
  for (const auto& [name, h] : reg.histograms_) {
    const std::string fam = prometheus_family(name);
    out += "# TYPE " + fam + " histogram\n";
    const std::vector<u64>& bounds = h->bounds();
    const std::vector<u64> counts = h->bucket_counts();
    u64 cum = 0;
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      cum += counts[i];
      out += fam + "_bucket{le=\"";
      append_u64(out, bounds[i]);
      out += "\"} ";
      append_u64(out, cum);
      out += "\n";
    }
    cum += counts.back();  // overflow bucket (bucket_counts() size = bounds+1)
    out += fam + "_bucket{le=\"+Inf\"} ";
    append_u64(out, cum);
    out += "\n" + fam + "_sum ";
    append_u64(out, h->sum());
    out += "\n" + fam + "_count ";
    append_u64(out, h->count());
    out += "\n";
  }
  return out;
}

std::string metrics_json_doc(const std::string& stats) {
  const u64 ts_ms = static_cast<u64>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  JsonWriter w;
  w.begin_object();
  w.kv("schema", "pfpl-metrics/1");
  w.kv("ts_ms", static_cast<unsigned long long>(ts_ms));
  w.key("metrics").raw(MetricsRegistry::global().json());
  if (!stats.empty()) w.key("stats").raw(stats);
  w.end_object();
  return w.take();
}

}  // namespace repro::obs
