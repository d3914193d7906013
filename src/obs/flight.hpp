// FlightRecorder — a black-box ring of periodic metric snapshots.
//
// A lock-light sampler thread wakes every `interval_ms`, renders one
// `pfpl-metrics/1` snapshot (obs/exposition.hpp: the registry plus the
// caller's `stats` object — the server's STATS-op JSON) into a fixed-depth
// in-memory ring, refreshes the pre-rendered crash-report body
// (obs/crash.hpp), and runs the watchdog stall check (obs/watchdog.hpp).
// One renderer, history_json(), writes the ring as a `pfpl-flight/1`
// document: live as `/history` on the metrics HTTP listener and the PFPN
// METRICS "history" selector, as every `stall-<n>.json` dump, and (its last
// three snapshots) inside the crash report — so a pfpld that dies under load
// leaves its last N seconds of metric movement behind instead of nothing.
//
// Zero-footprint discipline: nothing here runs unless configure()+start()
// are called (the `serve --flight-ms/--stall-ms/--crash-dir` flags). An
// unstarted recorder is an untouched object; history_json() on it returns a
// valid document with an empty snapshot list.
#pragma once

#include <condition_variable>
#include <cstdint>
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
    /// JSON object attached to every snapshot under "stats" (the server
    /// passes its stats_json()). Called on the sampler thread.
    std::function<std::string()> stats;
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

  /// The recorder's config and the newest `max_snapshots` ring entries as
  /// one {"schema":"pfpl-flight/1", ...} document.
  std::string history_json(std::size_t max_snapshots = SIZE_MAX) const;
  std::size_t snapshot_count() const;

  /// Test hook: drop all snapshots (does not touch options or the thread).
  void clear();

 private:
  FlightRecorder() = default;

  void run_loop();
  /// Run the watchdog check; with a crash_dir, write the history document
  /// to a new `stall-<n>.json` whenever it reports a stall.
  void check_stalls();

  mutable std::mutex m_;
  std::condition_variable cv_;
  Options opts_;
  std::deque<std::string> ring_;  ///< metrics_json_doc() entries with their seq
  u64 seq_ = 0;
  u64 stall_dumps_ = 0;
  std::thread thread_;
  bool running_ = false;
  bool stop_requested_ = false;
};

}  // namespace repro::obs
