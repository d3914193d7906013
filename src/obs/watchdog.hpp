// Watchdog — stall detection for long-running workers.
//
// A *slot* is one unit of execution that is supposed to make progress: a
// thread-pool worker executing a task, an ingest thread handling one item.
// The worker marks the start of each unit (StallScope) and the watchdog
// checker — driven by the FlightRecorder's sampler thread — flags any slot
// that has been busy on the *same* unit longer than the armed threshold.
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
#include <string>
#include <vector>

#include "common/types.hpp"

namespace repro::obs {

class Watchdog {
 public:
  static constexpr int kMaxSlots = 64;

  static Watchdog& global();

  /// Register a named slot (e.g. "svc.worker.3", "ingest.commit"). Returns the
  /// slot id, or -1 when the table is full (StallScope treats -1 as inert).
  /// Slots are never unregistered; re-registering a name returns a new slot.
  int register_slot(const std::string& name);

  /// Arm with a threshold in milliseconds; 0 disarms. Takes effect for
  /// subsequent StallScopes and check() calls.
  void arm(u64 threshold_ms);
  bool armed() const { return threshold_ns_.load(std::memory_order_relaxed) != 0; }
  u64 threshold_ms() const {
    return threshold_ns_.load(std::memory_order_relaxed) / 1000000;
  }

  /// Mark the start / end of one unit of progress on `slot`. `detail` is an
  /// opaque id surfaced in stall reports (PFPN request id, ingest item
  /// index). Called via StallScope; no-ops when disarmed or slot < 0.
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

  /// Lifetime count of stalls detected by check().
  u64 stalls_detected() const { return stalls_.load(std::memory_order_relaxed); }

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
  std::atomic<u64> stalls_{0};
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

}  // namespace repro::obs
