#include "obs/flight.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <vector>

#include "obs/crash.hpp"
#include "obs/exposition.hpp"
#include "obs/json.hpp"
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
  // The ring entry is the snapshot document with its seq spliced in first.
  const std::string doc = metrics_json_doc(opts_.stats ? opts_.stats() : "");
  {
    std::lock_guard<std::mutex> lock(m_);
    ring_.push_back("{\"seq\":" + std::to_string(++seq_) + "," + doc.substr(1));
    while (ring_.size() > static_cast<std::size_t>(std::max(opts_.depth, 1)))
      ring_.pop_front();
  }
  // The crash body carries the last few snapshots, not the whole ring: the
  // handler's write must stay bounded, and /history serves the full depth.
  if (!opts_.crash_dir.empty())
    set_crash_body(minimal_crash_body() + ",\"flight\":" + history_json(3) +
                   ",\"trace_tail\":" + trace_tail_json(32));

  check_stalls();
}

void FlightRecorder::check_stalls() {
  // Watchdog::check() logs each stall row as a `stall` event; the dump is
  // the history document, whose stalls_detected counts them.
  if (Watchdog::global().check().empty() || opts_.crash_dir.empty()) return;
  std::string path;
  {
    std::lock_guard<std::mutex> lock(m_);
    path = opts_.crash_dir + "/stall-" + std::to_string(++stall_dumps_) + ".json";
  }
  const std::string doc = history_json() + "\n";
  std::error_code ec;
  std::filesystem::create_directories(opts_.crash_dir, ec);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) return;  // diagnostics degrade silently, never fatal
  std::fwrite(doc.data(), 1, doc.size(), f);
  std::fclose(f);
}

std::string FlightRecorder::history_json(std::size_t max_snapshots) const {
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
  w.key("snapshots").begin_array();
  const std::size_t skip = ring_.size() > max_snapshots ? ring_.size() - max_snapshots : 0;
  for (auto it = ring_.begin() + static_cast<std::ptrdiff_t>(skip); it != ring_.end(); ++it)
    w.raw(*it);
  w.end_array();
  w.end_object();
  return w.take();
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
