#include "obs/flight.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <vector>

#include "obs/crash.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"

namespace repro::obs {
namespace {

u64 wall_ms_now() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::system_clock::now().time_since_epoch())
                              .count());
}

/// Last `max_events` spans by start time, rendered small — the crash
/// report's "what was the process doing" tail.
std::string trace_tail_json(std::size_t max_events) {
  std::vector<SpanEvent> events = TraceRecorder::global().events();
  std::sort(events.begin(), events.end(),
            [](const SpanEvent& a, const SpanEvent& b) { return a.start_ns < b.start_ns; });
  if (events.size() > max_events)
    events.erase(events.begin(), events.end() - static_cast<std::ptrdiff_t>(max_events));
  JsonWriter w;
  w.begin_array();
  for (const SpanEvent& e : events) {
    w.begin_object();
    w.kv("name", e.name);
    w.kv("tid", static_cast<unsigned long long>(e.tid));
    w.kv("start_us", static_cast<unsigned long long>(e.start_ns / 1000));
    w.kv("dur_us", static_cast<unsigned long long>(e.dur_ns / 1000));
    if (e.request_id) w.kv("request_id", static_cast<unsigned long long>(e.request_id));
    w.end_object();
  }
  w.end_array();
  return w.take();
}

}  // namespace

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder* f = new FlightRecorder();  // leaked: crash paths may be late
  return *f;
}

void FlightRecorder::configure(Options o) {
  std::lock_guard<std::mutex> lock(m_);
  if (running_) return;  // configure-while-running is a caller bug; keep state sane
  if (o.interval_ms <= 0) o.interval_ms = 1000;
  if (o.depth <= 0) o.depth = 1;
  opts_ = std::move(o);
  while (ring_.size() > static_cast<std::size_t>(opts_.depth)) ring_.pop_front();
  Watchdog::global().arm(opts_.stall_ms);
}

void FlightRecorder::start() {
  std::lock_guard<std::mutex> lock(m_);
  if (running_) return;
  stop_requested_ = false;
  running_ = true;
  thread_ = std::thread([this] { run_loop(); });
}

void FlightRecorder::stop() {
  {
    std::lock_guard<std::mutex> lock(m_);
    if (!running_) return;
    stop_requested_ = true;
  }
  cv_.notify_all();
  thread_.join();
  std::lock_guard<std::mutex> lock(m_);
  running_ = false;
}

bool FlightRecorder::running() const {
  std::lock_guard<std::mutex> lock(m_);
  return running_;
}

void FlightRecorder::run_loop() {
  // Watchdog checks want finer granularity than the snapshot cadence when a
  // tight stall threshold is configured.
  u64 tick_ms = static_cast<u64>(opts_.interval_ms);
  if (opts_.stall_ms > 0)
    tick_ms = std::min<u64>(tick_ms, std::max<u64>(10, opts_.stall_ms / 2));
  u64 next_sample_ms = 0;  // sample immediately on startup
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(m_);
      cv_.wait_for(lock, std::chrono::milliseconds(tick_ms),
                   [this] { return stop_requested_; });
      if (stop_requested_) return;
    }
    const u64 now = wall_ms_now();
    if (now >= next_sample_ms) {
      sample_now();
      next_sample_ms = now + static_cast<u64>(opts_.interval_ms);
    } else if (opts_.stall_ms > 0) {
      // Off-cadence tick: watchdog check only (sample_now also checks).
      check_stalls();
    }
  }
}

void FlightRecorder::sample_now() {
  Snapshot s;
  s.wall_ms = wall_ms_now();
  s.metrics = MetricsRegistry::global().json();
  if (opts_.extra) s.extra = opts_.extra();

  std::string crash_body;
  {
    std::lock_guard<std::mutex> lock(m_);
    s.seq = ++seq_;
    ring_.push_back(std::move(s));
    while (ring_.size() > static_cast<std::size_t>(std::max(opts_.depth, 1)))
      ring_.pop_front();
    if (!opts_.crash_dir.empty()) crash_body = render_crash_body_locked();
  }
  if (!crash_body.empty()) set_crash_body(crash_body);

  check_stalls();
}

void FlightRecorder::append_snapshots_locked(std::string& out,
                                             std::size_t max_snapshots) const {
  JsonWriter w;
  w.begin_array();
  const std::size_t skip =
      ring_.size() > max_snapshots ? ring_.size() - max_snapshots : 0;
  std::size_t i = 0;
  for (const Snapshot& s : ring_) {
    if (i++ < skip) continue;
    w.begin_object();
    w.kv("seq", static_cast<unsigned long long>(s.seq));
    w.kv("ts_ms", static_cast<unsigned long long>(s.wall_ms));
    w.key("metrics").raw(s.metrics);
    if (!s.extra.empty()) w.key("extra").raw(s.extra);
    w.end_object();
  }
  w.end_array();
  out += w.take();
}

std::string FlightRecorder::render_crash_body_locked() const {
  std::string body = minimal_crash_body();
  body += ",\"flight\":{\"interval_ms\":" + std::to_string(opts_.interval_ms) +
          ",\"depth\":" + std::to_string(opts_.depth) +
          ",\"stall_ms\":" + std::to_string(opts_.stall_ms) +
          ",\"stalls_detected\":" + std::to_string(Watchdog::global().stalls_detected()) +
          "},\"snapshots\":";
  // The crash body carries the last few snapshots, not the whole ring: the
  // handler's write must stay bounded, and /history serves the full depth.
  append_snapshots_locked(body, 3);
  body += ",\"trace_tail\":" + trace_tail_json(32);
  return body;
}

void FlightRecorder::check_stalls() {
  const std::vector<Watchdog::Stall> stalls = Watchdog::global().check();
  if (stalls.empty() || opts_.crash_dir.empty()) return;
  JsonWriter w;
  w.begin_array();
  for (const Watchdog::Stall& st : stalls) {
    w.begin_object();
    w.kv("slot", st.slot);
    w.kv("busy_ms", static_cast<unsigned long long>(st.busy_ms));
    w.kv("detail", static_cast<unsigned long long>(st.detail));
    w.end_object();
  }
  w.end_array();
  std::string path;
  {
    std::lock_guard<std::mutex> lock(m_);
    path = opts_.crash_dir + "/stall-" + std::to_string(++stall_dumps_) + ".json";
  }
  std::string doc = "{\"schema\":\"pfpl-stall/1\",\"stalls\":" + w.take() +
                    ",\"history\":" + history_json() + "}\n";
  std::error_code ec;
  std::filesystem::create_directories(opts_.crash_dir, ec);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) return;  // diagnostics degrade silently, never fatal
  std::fwrite(doc.data(), 1, doc.size(), f);
  std::fclose(f);
}

std::string FlightRecorder::history_json() const {
  std::lock_guard<std::mutex> lock(m_);
  JsonWriter w;
  w.begin_object();
  w.kv("schema", "pfpl-flight/1");
  w.kv("running", running_);
  w.kv("interval_ms", static_cast<unsigned long long>(
                          opts_.interval_ms > 0 ? opts_.interval_ms : 0));
  w.kv("depth", static_cast<unsigned long long>(opts_.depth > 0 ? opts_.depth : 0));
  w.kv("stall_ms", static_cast<unsigned long long>(opts_.stall_ms));
  w.kv("stalls_detected",
       static_cast<unsigned long long>(Watchdog::global().stalls_detected()));
  w.end_object();
  std::string head = w.take();
  head.pop_back();  // replace the closing brace with the snapshot array
  head += ",\"snapshots\":";
  append_snapshots_locked(head, ring_.size());
  head += "}";
  return head;
}

std::size_t FlightRecorder::snapshot_count() const {
  std::lock_guard<std::mutex> lock(m_);
  return ring_.size();
}

void FlightRecorder::clear() {
  std::lock_guard<std::mutex> lock(m_);
  ring_.clear();
  seq_ = 0;
}

}  // namespace repro::obs
