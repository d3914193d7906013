// FlightRecorder — a black-box ring of periodic metric snapshots.
//
// A lock-light sampler thread wakes every `interval_ms`, snapshots the full
// MetricsRegistry (plus an optional caller-provided "extra" fragment — the
// server contributes its always-live stats + slow-request ring) into a
// fixed-depth in-memory ring, refreshes the pre-rendered crash-report body
// (obs/crash.hpp), and runs the watchdog stall check (obs/watchdog.hpp).
// The ring is exposed live as `/history` on the metrics HTTP listener and
// via the PFPN METRICS "history" selector, and post-mortem inside crash
// reports — so a pfpld that dies under load leaves its last N seconds of
// metric movement behind instead of nothing.
//
// Zero-footprint discipline: nothing here runs unless configure()+start()
// are called (the `serve --flight-ms/--stall-ms/--crash-dir` flags). An
// unstarted recorder is an untouched object; history_json() on it returns a
// valid document with an empty snapshot list.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "common/types.hpp"

namespace repro::obs {

class FlightRecorder {
 public:
  struct Options {
    int interval_ms = 1000;  ///< snapshot cadence
    int depth = 32;          ///< ring capacity (oldest snapshot evicted)
    u64 stall_ms = 0;        ///< watchdog threshold; 0 = no stall checks
    std::string crash_dir;   ///< non-empty: refresh crash body + stall dumps
    /// Pre-rendered JSON object attached to every snapshot under "extra"
    /// (and to the crash body). Called on the sampler thread.
    std::function<std::string()> extra;
  };

  static FlightRecorder& global();

  /// Apply options. Must be stopped; arms the watchdog when stall_ms > 0.
  void configure(Options o);
  const Options& options() const { return opts_; }

  /// Start the sampler thread (no-op when already running).
  void start();
  /// Stop and join the sampler thread (no-op when not running).
  void stop();
  bool running() const;

  /// Take one snapshot synchronously: sample the registry, refresh the
  /// crash body, run the watchdog check. The sampler thread calls this on
  /// cadence; tests and on-demand dumps call it directly.
  void sample_now();

  /// The ring as one JSON document ({"schema":"pfpl-flight/1", ...}).
  std::string history_json() const;
  std::size_t snapshot_count() const;

  /// Test hook: drop all snapshots (does not touch options or the thread).
  void clear();

 private:
  FlightRecorder() = default;

  struct Snapshot {
    u64 seq = 0;
    u64 wall_ms = 0;  ///< system_clock ms since epoch (operator-correlatable)
    std::string metrics;  ///< MetricsRegistry::json() at sample time
    std::string extra;    ///< opts.extra() at sample time ("" = none)
  };

  void run_loop();
  /// Render the crash-report body (without closing brace) from the last few
  /// snapshots + the trace tail. Caller must hold m_.
  std::string render_crash_body_locked() const;
  void append_snapshots_locked(std::string& out, std::size_t max_snapshots) const;
  /// Run the watchdog check; with a crash_dir, write any stalls it reports
  /// to a new `stall-<n>.json` dump beside the flight history.
  void check_stalls();

  mutable std::mutex m_;
  std::condition_variable cv_;
  Options opts_;
  std::deque<Snapshot> ring_;
  u64 seq_ = 0;
  u64 stall_dumps_ = 0;
  std::thread thread_;
  bool running_ = false;
  bool stop_requested_ = false;
};

}  // namespace repro::obs
