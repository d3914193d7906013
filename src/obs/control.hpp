// Global observability switch.
//
// All obs recording — metric updates, span capture — is gated on one atomic
// flag. The disabled fast path is a single relaxed load and a predictable
// branch: no locks, no clock reads, no allocation, which is what lets the
// hot encode loops keep their instrumentation compiled in at all times
// (pay-for-what-you-use; the CLI/bench flags flip the switch on).
#pragma once

#include <atomic>

namespace repro::obs {

namespace detail {
inline std::atomic<bool> g_enabled{false};
}

inline bool enabled() { return detail::g_enabled.load(std::memory_order_relaxed); }
inline void set_enabled(bool on) { detail::g_enabled.store(on, std::memory_order_relaxed); }

}  // namespace repro::obs
