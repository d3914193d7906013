// Watchdog — stall detection for long-running workers.
//
// A *slot* is one unit of execution that is supposed to make progress: a
// thread-pool worker executing a task.
// The worker marks the start of each unit (StallScope) and the watchdog
// checker — driven by the Sampler thread below — flags any slot that has
// been busy on the *same* unit longer than the armed threshold.
// Each stalled unit is reported exactly once (the slot's generation counter
// is compared against the last reported generation), so a genuinely wedged
// worker produces one `stall` event, not one per check tick.
//
// Disabled discipline: until arm() is called the whole feature is a relaxed
// atomic load + branch per StallScope — no clock read, no stores. Arming is
// independent of obs::enabled() (like the EventLog): stall detection is a
// production-server feature that must work with span recording off.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/types.hpp"

namespace repro::obs {

class Watchdog {
 public:
  static constexpr int kMaxSlots = 64;

  static Watchdog& global();

  /// Register a named slot (e.g. "svc.worker.3"). Returns the
  /// slot id, or -1 when the table is full (StallScope treats -1 as inert).
  /// Slots are never unregistered; re-registering a name returns a new slot.
  int register_slot(const std::string& name);

  /// Arm with a threshold in milliseconds; 0 disarms. Takes effect for
  /// subsequent StallScopes and check() calls.
  void arm(u64 threshold_ms);
  bool armed() const { return threshold_ns_.load(std::memory_order_relaxed) != 0; }

  /// Mark the start / end of one unit of progress on `slot`. `detail` is an
  /// opaque id surfaced in stall reports (the PFPN request id). Called via
  /// StallScope; no-ops when disarmed or slot < 0.
  void begin(int slot, u64 detail);
  void end(int slot);

  struct Stall {
    std::string slot;  ///< slot name
    u64 busy_ms = 0;   ///< time since the unit began
    u64 detail = 0;    ///< begin()'s opaque id
  };

  /// Scan every slot for units busy past the threshold that have not been
  /// reported yet. Each returned stall is also emitted as an EventLog
  /// `stall` event (warn level). Safe to call from any one checker thread.
  std::vector<Stall> check();

  /// Test hook: reset arming and slot table (not thread-safe vs live scopes).
  void reset_for_tests();

 private:
  Watchdog() = default;

  struct Slot {
    char name[48] = {0};
    std::atomic<u64> start_ns{0};    ///< 0 = idle
    std::atomic<u64> generation{0};  ///< bumped by begin()
    std::atomic<u64> reported{0};    ///< last generation flagged by check()
    std::atomic<u64> detail{0};
  };

  static u64 now_ns();

  Slot slots_[kMaxSlots];
  std::atomic<int> slot_count_{0};
  std::atomic<u64> threshold_ns_{0};
};

/// RAII progress mark around one unit of work. Construction when disarmed
/// (the production default) is one relaxed load + branch.
class StallScope {
 public:
  explicit StallScope(int slot, u64 detail = 0) {
    if (slot < 0) return;
    Watchdog& w = Watchdog::global();
    if (!w.armed()) return;
    slot_ = slot;
    w.begin(slot, detail);
  }
  ~StallScope() {
    if (slot_ >= 0) Watchdog::global().end(slot_);
  }
  StallScope(const StallScope&) = delete;
  StallScope& operator=(const StallScope&) = delete;

 private:
  int slot_ = -1;
};

/// The one background thread of a serving process: a stuck worker cannot
/// report itself. Every tick runs Watchdog::check(); with a crash directory
/// it writes each stall as `<dir>/stall-<n>.json` and keeps the crash body
/// (obs/crash.hpp) at most a second old. Both are `pfpl-metrics/1`
/// documents (obs/exposition.hpp) carrying `stats()`, plus a `stall` or a
/// `crash` member. Nothing runs until start(); start and stop from one
/// thread.
class Sampler {
 public:
  Sampler() = default;
  ~Sampler() { stop(); }
  Sampler(const Sampler&) = delete;  // the thread holds `this`
  Sampler& operator=(const Sampler&) = delete;

  /// Arm the watchdog at `stall_ms` (0 = no stall checks); with a non-empty
  /// `crash_dir`, install the crash handler there and render its first body
  /// before returning. Then start the thread. No-op when already running.
  /// Throws CompressionError when `crash_dir` cannot be created.
  void start(u64 stall_ms, const std::string& crash_dir,
             std::function<std::string()> stats);
  /// Stop and join the thread and disarm the watchdog (no-op when stopped).
  void stop();
  bool running() const { return thread_.joinable(); }

 private:
  void run_loop();
  void write_stall_report(const std::vector<Watchdog::Stall>& stalls);

  std::mutex m_;
  std::condition_variable cv_;
  bool stop_requested_ = false;
  u64 stall_ms_ = 0;
  std::string crash_dir_;
  std::function<std::string()> stats_;
  u64 stall_reports_ = 0;  ///< never reset: a restart never overwrites a report
  std::thread thread_;     ///< last: it reads every member above
};

}  // namespace repro::obs
