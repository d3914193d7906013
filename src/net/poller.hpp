// Event-loop readiness backend over epoll(7).
//
// The server's loop is structured as "declare the full interest set every
// round, then wait" — simple to reason about. epoll is stateful, so this
// adapter keeps the declarative surface and turns it into incremental
// epoll_ctl calls: set(fd, ...) caches the last-armed (events, tag) per fd
// and only issues EPOLL_CTL_ADD/MOD when something changed. A loop round over
// N mostly-idle connections therefore costs zero syscalls beyond the single
// epoll_wait — the property that lets one node hold thousands of sockets.
//
// Events use poll(2) bit names (POLLIN/POLLOUT in, POLLIN/POLLOUT/POLLERR/
// POLLHUP out); the adapter translates. An fd armed with events == 0 still
// reports error/hangup, matching poll(2).
//
// Single-threaded, like the loop that owns it. Call remove(fd) before
// closing an fd: close() silently drops an fd from an epoll set, which would
// leave a stale cache entry that breaks a later set() on a recycled fd.
#pragma once

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"

namespace repro::net {

class Poller {
 public:
  struct Event {
    u64 tag = 0;        ///< the tag passed to set()
    short revents = 0;  ///< poll(2)-style readiness bits
  };

  /// Throws NetError when epoll_create1 fails (e.g. fd exhaustion).
  Poller();
  ~Poller();

  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  /// Declare interest for this round: POLLIN/POLLOUT bits in `events` (0 is
  /// valid — error/hangup only). `tag` is echoed back in Event::tag and may
  /// change between rounds for the same fd.
  void set(int fd, short events, u64 tag);

  /// Forget an fd. Must be called before the fd is closed.
  /// Unknown fds are ignored.
  void remove(int fd);

  /// Wait up to `timeout_ms` and fill `out` with every fd that has nonzero
  /// readiness. Returns out.size(); EINTR yields an empty result, any other
  /// failure throws NetError.
  std::size_t wait(std::vector<Event>& out, int timeout_ms);

 private:
  struct Interest {
    short events = 0;
    u64 tag = 0;
  };

  int epfd_ = -1;
  std::unordered_map<int, Interest> interest_;
};

}  // namespace repro::net
