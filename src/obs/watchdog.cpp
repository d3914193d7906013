#include "obs/watchdog.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "obs/crash.hpp"
#include "obs/event_log.hpp"
#include "obs/exposition.hpp"
#include "obs/json.hpp"

namespace repro::obs {

Watchdog& Watchdog::global() {
  static Watchdog* w = new Watchdog();  // leaked: alive for any late worker
  return *w;
}

u64 Watchdog::now_ns() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now().time_since_epoch())
                              .count());
}

int Watchdog::register_slot(const std::string& name) {
  const int id = slot_count_.fetch_add(1, std::memory_order_relaxed);
  if (id >= kMaxSlots) {
    slot_count_.store(kMaxSlots, std::memory_order_relaxed);
    return -1;
  }
  Slot& s = slots_[id];
  std::strncpy(s.name, name.c_str(), sizeof(s.name) - 1);
  s.name[sizeof(s.name) - 1] = '\0';
  return id;
}

void Watchdog::arm(u64 threshold_ms) {
  threshold_ns_.store(threshold_ms * 1000000, std::memory_order_relaxed);
}

void Watchdog::begin(int slot, u64 detail) {
  if (slot < 0 || slot >= kMaxSlots) return;
  Slot& s = slots_[slot];
  s.detail.store(detail, std::memory_order_relaxed);
  s.generation.fetch_add(1, std::memory_order_relaxed);
  // start_ns is the checker's "busy" flag: publish it last.
  s.start_ns.store(now_ns(), std::memory_order_release);
}

void Watchdog::end(int slot) {
  if (slot < 0 || slot >= kMaxSlots) return;
  slots_[slot].start_ns.store(0, std::memory_order_release);
}

std::vector<Watchdog::Stall> Watchdog::check() {
  std::vector<Stall> out;
  const u64 threshold = threshold_ns_.load(std::memory_order_relaxed);
  if (threshold == 0) return out;
  const u64 now = now_ns();
  const int n = std::min(slot_count_.load(std::memory_order_relaxed), kMaxSlots);
  for (int i = 0; i < n; ++i) {
    Slot& s = slots_[i];
    const u64 start = s.start_ns.load(std::memory_order_acquire);
    if (start == 0 || now - start <= threshold) continue;
    const u64 gen = s.generation.load(std::memory_order_relaxed);
    if (s.reported.load(std::memory_order_relaxed) == gen) continue;  // already flagged
    // Re-check busyness after reading the generation: if the unit finished
    // in between, the next begin() bumps the generation and stays eligible.
    if (s.start_ns.load(std::memory_order_acquire) != start) continue;
    s.reported.store(gen, std::memory_order_relaxed);
    Stall st;
    st.slot = s.name;
    st.busy_ms = (now - start) / 1000000;
    st.detail = s.detail.load(std::memory_order_relaxed);
    out.push_back(st);
  }
  if (!out.empty()) {
    EventLog& log = EventLog::global();
    for (const Stall& st : out) {
      if (!log.would_log(LogLevel::Warn)) break;
      JsonWriter w;
      w.begin_object();
      w.kv("slot", st.slot);
      w.kv("busy_ms", static_cast<unsigned long long>(st.busy_ms));
      w.kv("threshold_ms", static_cast<unsigned long long>(threshold / 1000000));
      w.kv("detail", static_cast<unsigned long long>(st.detail));
      w.end_object();
      log.emit(LogLevel::Warn, "stall", w.take());
    }
  }
  return out;
}

void Watchdog::reset_for_tests() {
  threshold_ns_.store(0, std::memory_order_relaxed);
  const int n = std::min(slot_count_.load(std::memory_order_relaxed), kMaxSlots);
  for (int i = 0; i < n; ++i) {
    slots_[i].start_ns.store(0, std::memory_order_relaxed);
    slots_[i].generation.store(0, std::memory_order_relaxed);
    slots_[i].reported.store(0, std::memory_order_relaxed);
    slots_[i].detail.store(0, std::memory_order_relaxed);
    slots_[i].name[0] = '\0';
  }
  slot_count_.store(0, std::memory_order_relaxed);
}

namespace {
// The sampler ticks at half the stall threshold within these bounds;
// kMaxTickMs is also the crash body's refresh period.
constexpr u64 kMinTickMs = 10;
constexpr u64 kMaxTickMs = 1000;
}  // namespace

void Sampler::start(u64 stall_ms, const std::string& crash_dir,
                    std::function<std::string()> stats) {
  if (running()) return;
  stall_ms_ = stall_ms;
  crash_dir_ = crash_dir;
  stats_ = stats ? std::move(stats) : [] { return std::string(); };
  stop_requested_ = false;
  if (!crash_dir_.empty()) {
    install_crash_handler(crash_dir_);
    set_crash_body(crash_body(stats_()));
  }
  Watchdog::global().arm(stall_ms_);
  thread_ = std::thread([this] { run_loop(); });
}

void Sampler::stop() {
  if (!running()) return;
  {
    std::lock_guard<std::mutex> lock(m_);
    stop_requested_ = true;
  }
  cv_.notify_all();
  thread_.join();
  Watchdog::global().arm(0);
}

void Sampler::run_loop() {
  // start() sets the options before the thread exists and they stay fixed
  // until stop() has joined it, so the loop reads them unlocked.
  const auto tick = std::chrono::milliseconds(
      stall_ms_ ? std::clamp(stall_ms_ / 2, kMinTickMs, kMaxTickMs) : kMaxTickMs);
  auto next_body = std::chrono::steady_clock::now() + std::chrono::milliseconds(kMaxTickMs);
  std::unique_lock<std::mutex> lock(m_);
  while (!cv_.wait_for(lock, tick, [this] { return stop_requested_; })) {
    lock.unlock();
    const std::vector<Watchdog::Stall> stalls = Watchdog::global().check();
    if (!crash_dir_.empty()) {
      if (!stalls.empty()) write_stall_report(stalls);
      const auto now = std::chrono::steady_clock::now();
      if (now >= next_body) {
        set_crash_body(crash_body(stats_()));
        next_body = now + std::chrono::milliseconds(kMaxTickMs);
      }
    }
    lock.lock();
  }
}

void Sampler::write_stall_report(const std::vector<Watchdog::Stall>& stalls) {
  JsonWriter w;
  w.begin_object();
  w.kv("threshold_ms", static_cast<unsigned long long>(stall_ms_));
  w.key("slots").begin_array();
  for (const Watchdog::Stall& st : stalls) {
    w.begin_object();
    w.kv("slot", st.slot);
    w.kv("busy_ms", static_cast<unsigned long long>(st.busy_ms));
    w.kv("detail", static_cast<unsigned long long>(st.detail));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::string doc = metrics_json_doc(stats_());
  doc.pop_back();
  doc += ",\"stall\":" + w.take() + "}\n";
  // Written aside and renamed into place, so a reader never sees half a
  // report. Diagnostics degrade silently: a failed write is never fatal.
  const std::string path = crash_dir_ + "/stall-" + std::to_string(++stall_reports_) + ".json";
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) return;
  const bool written = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  std::error_code ec;
  if (std::fclose(f) == 0 && written)
    std::filesystem::rename(tmp, path, ec);
  else
    std::filesystem::remove(tmp, ec);
}

}  // namespace repro::obs
