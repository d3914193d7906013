#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <span>
#include <stdexcept>

#include "core/pfpl.hpp"
#include "data/synthetic.hpp"
#include "metrics/error_stats.hpp"
#include "obs/json.hpp"

namespace pb {

using namespace repro;

Field Item::field() const {
  if (dtype == DType::F32)
    return Field(reinterpret_cast<const float*>(raw.data()), raw.size() / sizeof(float));
  return Field(reinterpret_cast<const double*>(raw.data()), raw.size() / sizeof(double));
}

std::vector<Item> generate_suite(u64 seed) {
  std::vector<Item> items;
  for (const data::SuiteSpec& spec : data::paper_suites()) {
    data::Suite suite = data::generate(spec, std::size_t{1} << 20, 3, seed);
    for (data::SyntheticFile& f : suite.files) {
      Item it;
      it.name = f.name;
      it.dtype = f.dtype;
      const u8* p = f.dtype == DType::F32 ? reinterpret_cast<const u8*>(f.f32.data())
                                          : reinterpret_cast<const u8*>(f.f64.data());
      it.raw.assign(p, p + f.byte_size());
      f = data::SyntheticFile{};  // keep one copy of the suite, not two
      items.push_back(std::move(it));
    }
  }
  return items;
}

void build_reference(Item& it) {
  it.stream = pfpl::compress(it.field(), pfpl::Params{it.eps, it.eb, pfpl::Executor::Serial});
  it.recon = pfpl::decompress(it.stream);
  if (it.recon.size() != it.raw.size())
    throw std::runtime_error("reference for " + it.name + " has the wrong size");
  std::size_t bad;
  if (it.dtype == DType::F32) {
    const std::size_t n = it.raw.size() / sizeof(float);
    bad = metrics::count_violations(
        std::span<const float>(reinterpret_cast<const float*>(it.raw.data()), n),
        std::span<const float>(reinterpret_cast<const float*>(it.recon.data()), n), it.eps,
        it.eb);
  } else {
    const std::size_t n = it.raw.size() / sizeof(double);
    bad = metrics::count_violations(
        std::span<const double>(reinterpret_cast<const double*>(it.raw.data()), n),
        std::span<const double>(reinterpret_cast<const double*>(it.recon.data()), n), it.eps,
        it.eb);
  }
  if (bad)
    throw std::runtime_error("reference for " + it.name + " violates its " +
                             to_string(it.eb) + " bound at " + std::to_string(bad) + " values");
}

// ---------------------------------------------------------------------------

void Checker::check(const u8* got, std::size_t got_n, const Bytes& want, const char* op,
                    const std::string& what) {
  ++attempted_;
  if (got_n == want.size() && std::memcmp(got, want.data(), got_n) == 0) return;
  ++failed_;
  if (printed_++ < 5) {
    std::size_t at = 0;
    while (at < std::min(got_n, want.size()) && got[at] == want[at]) ++at;
    std::printf("MISMATCH %s %s: %zu bytes vs %zu expected, first difference at byte %zu\n",
                op, what.c_str(), got_n, want.size(), at);
  }
}

void Checker::expect(bool ok, const char* op, const std::string& what,
                     const std::string& why) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (printed_++ < 5) std::printf("FAILED %s %s: %s\n", op, what.c_str(), why.c_str());
}

// ---------------------------------------------------------------------------

Timed::Timed(const char* span_name) : name_(span_name) {
  if (obs::enabled()) {
    obs::TraceRecorder& rec = obs::TraceRecorder::global();
    buf_ = &rec.thread_buf();
    depth_ = buf_->depth++;
    start_ns_ = rec.now_ns();
  }
  t0_ = std::chrono::steady_clock::now();
}

Timed::~Timed() {
  if (buf_) --buf_->depth;
}

double Timed::stop(u64 request_id) {
  const double s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_).count();
  if (buf_) {
    const u64 end_ns = obs::TraceRecorder::global().now_ns();
    --buf_->depth;
    std::lock_guard<std::mutex> lk(buf_->m);
    buf_->events.push_back(
        obs::SpanEvent{name_, start_ns_, end_ns - start_ns_, buf_->tid, depth_, request_id});
    buf_ = nullptr;
  }
  return s;
}

// ---------------------------------------------------------------------------

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

void Report::add(const std::string& name, double value, const std::string& unit) {
  metrics_.push_back({name, value, unit});
  std::printf("  %-34s %14.6g %s\n", name.c_str(), value, unit.c_str());
}

void Report::add_percentile(const std::string& name, const std::vector<double>& ms,
                            double q) {
  const double v = quantile(ms, q);
  const std::size_t beyond = static_cast<std::size_t>(
      std::count_if(ms.begin(), ms.end(), [&](double x) { return x > v; }));
  if (q > 0.5 && beyond < 10) {
    std::printf("  %-34s %14.6g ms  INVALID: %zu samples, only %zu beyond (need 10)\n",
                name.c_str(), v, ms.size(), beyond);
    return;
  }
  add(name, v, "ms");
  std::printf("  %-34s %14s    (%zu samples, %zu beyond)\n", "", "", ms.size(), beyond);
}

void Report::line(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  std::vprintf(fmt, ap);
  va_end(ap);
  std::printf("\n");
}

std::string Report::json(const Checker& chk) const {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("correct", chk.failed() == 0);
  w.kv("attempted", static_cast<unsigned long long>(chk.attempted()));
  w.kv("failed", static_cast<unsigned long long>(chk.failed()));
  w.key("metrics").begin_object();
  for (const Metric& m : metrics_) {
    w.key(m.name).begin_object();
    w.kv("value", std::isfinite(m.value) ? m.value : 0.0);
    w.kv("unit", m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.take();
}

// ---------------------------------------------------------------------------

namespace {

double status_kb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t klen = std::strlen(key);
  while (std::getline(in, line))
    if (line.compare(0, klen, key) == 0) return std::atof(line.c_str() + klen);
  return 0.0;
}

}  // namespace

void PeakRss::reset() {
  std::ofstream("/proc/self/clear_refs") << "5";
  base_kb_ = status_kb("VmRSS:");
}

double PeakRss::growth_mb() const {
  return std::max(0.0, status_kb("VmHWM:") - base_kb_) * 1024.0 / 1e6;
}

// ---------------------------------------------------------------------------

namespace {

std::string layer_of(const std::string& span) {
  if (span == "pfpl.delta_nb" || span == "pfpl.bitshuffle" || span == "pfpl.zerobyte")
    return "bits";
  const std::string head = span.substr(0, span.find('.'));
  return head == "pfpl" ? "core" : head;
}

}  // namespace

void report_self_time(Report& rep, const std::vector<obs::SpanEvent>& events) {
  std::map<u32, std::vector<const obs::SpanEvent*>> by_tid;
  for (const obs::SpanEvent& e : events) by_tid[e.tid].push_back(&e);
  std::map<std::string, double> self_ns;
  double total_ns = 0;
  for (auto& [tid, evs] : by_tid) {
    std::sort(evs.begin(), evs.end(), [](const obs::SpanEvent* a, const obs::SpanEvent* b) {
      return a->start_ns != b->start_ns ? a->start_ns < b->start_ns : a->dur_ns > b->dur_ns;
    });
    std::vector<double> child(evs.size(), 0.0);
    std::vector<std::size_t> open;  // indices of enclosing spans
    for (std::size_t i = 0; i < evs.size(); ++i) {
      const u64 start = evs[i]->start_ns;
      while (!open.empty() && evs[open.back()]->start_ns + evs[open.back()]->dur_ns <= start)
        open.pop_back();
      if (!open.empty()) {
        const obs::SpanEvent& p = *evs[open.back()];
        child[open.back()] += static_cast<double>(
            std::min(start + evs[i]->dur_ns, p.start_ns + p.dur_ns) - start);
      }
      open.push_back(i);
    }
    for (std::size_t i = 0; i < evs.size(); ++i) {
      const double s = std::max(0.0, static_cast<double>(evs[i]->dur_ns) - child[i]);
      self_ns[layer_of(evs[i]->name)] += s;
      total_ns += s;
    }
  }
  rep.line("self time by layer, summed over threads (%zu spans):", events.size());
  for (const auto& [layer, ns] : self_ns)
    rep.line("  %-8s %10.3f ms  %5.1f%%", layer.c_str(), ns / 1e6,
             total_ns > 0 ? 100.0 * ns / total_ns : 0.0);
}

}  // namespace pb
