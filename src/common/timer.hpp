// Wall-clock timing helpers used by the benchmark harness.
//
// The paper reports throughput = uncompressed bytes / runtime, taking the
// median of 9 runs (Section IV). `median_runtime` reproduces that protocol.
#pragma once

#include <algorithm>
#include <chrono>
#include <vector>

namespace repro {

class Timer {
 public:
  Timer() : start_(clock::now()) {}
  void reset() { start_ = clock::now(); }
  /// Seconds elapsed since construction or the last reset().
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Run `fn` `runs` times and return the median wall-clock seconds, matching
/// the paper's 9-run median protocol. `fn` is a template parameter (not a
/// std::function) so the measurement harness adds no indirect-call overhead
/// to short runs — the callable is inlined into the timing loop.
template <typename F>
double median_runtime(F&& fn, int runs = 9) {
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(runs));
  for (int i = 0; i < runs; ++i) {
    Timer t;
    fn();
    times.push_back(t.seconds());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

/// Throughput in MB/s (decimal megabytes, as in the paper's GB/s figures).
inline double throughput_mbps(std::size_t bytes, double seconds) {
  return seconds > 0 ? static_cast<double>(bytes) / 1e6 / seconds : 0.0;
}

}  // namespace repro
