// Jittered exponential backoff, shared by net::Client (transport retries)
// and the `pfpl stream pack --host` session-reopen loop.
//
// The jitter matters more than the curve: when a node dies, every client
// notices at the same instant, and a deterministic backoff would have the
// whole fleet reconnect in lockstep — the classic retry stampede. Scaling
// each sleep by a per-client uniform factor in [0.5, 1.5) spreads the
// retries across a window as wide as the sleep itself.
#pragma once

#include <algorithm>
#include <chrono>
#include <unistd.h>

#include "common/hash.hpp"
#include "common/types.hpp"

namespace repro::net {

/// Per-caller jitter state (xorshift64*). Deterministic for a given seed —
/// tests pin exact sleep sequences — and decorrelated across clients when
/// seeded from per-instance entropy. Not cryptographic; does not need to be.
class BackoffJitter {
 public:
  explicit BackoffJitter(u64 seed) : state_(seed ? seed : 0x9E3779B97F4A7C15ull) {}

  /// Uniform in [0, 1).
  double next() {
    state_ ^= state_ >> 12;
    state_ ^= state_ << 25;
    state_ ^= state_ >> 27;
    return static_cast<double>((state_ * 0x2545F4914F6CDD1Dull) >> 11) /
           static_cast<double>(1ull << 53);
  }

 private:
  u64 state_;
};

/// Jitter seed that differs across processes and across runs: pid and the
/// monotonic clock, mixed. For callers with no per-instance id to seed from.
inline u64 process_jitter_seed() {
  struct {
    u64 pid;
    u64 t;
  } seed{static_cast<u64>(::getpid()),
         static_cast<u64>(std::chrono::steady_clock::now().time_since_epoch().count())};
  return common::hash128(&seed, sizeof seed).lo;
}

/// Sleep before retry `k` (1-based): min(base << (k-1), max) milliseconds,
/// scaled by jitter in [0.5, 1.5). base <= 0 returns 0 (immediate retry).
inline int backoff_ms(unsigned k, int base_ms, int max_ms, BackoffJitter& jitter) {
  if (base_ms <= 0) return 0;
  const unsigned shift = std::min(k > 0 ? k - 1 : 0u, 20u);  // cap the curve
  long long ms = static_cast<long long>(base_ms) << shift;
  if (max_ms > 0) ms = std::min<long long>(ms, max_ms);
  ms = static_cast<long long>(static_cast<double>(ms) * (0.5 + jitter.next()));
  return static_cast<int>(std::max<long long>(ms, 0));
}

}  // namespace repro::net
