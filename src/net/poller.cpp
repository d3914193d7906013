#include "net/poller.hpp"

#include <poll.h>
#include <sys/epoll.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "net/frame.hpp"  // NetError

namespace repro::net {
namespace {

u32 to_epoll(short events) {
  u32 ev = 0;
  if (events & POLLIN) ev |= EPOLLIN;
  if (events & POLLOUT) ev |= EPOLLOUT;
  return ev;
}

short from_epoll(u32 ev) {
  short r = 0;
  if (ev & EPOLLIN) r |= POLLIN;
  if (ev & EPOLLOUT) r |= POLLOUT;
  if (ev & EPOLLERR) r |= POLLERR;
  if (ev & EPOLLHUP) r |= POLLHUP;
  return r;
}

}  // namespace

Poller::Poller() : epfd_(::epoll_create1(EPOLL_CLOEXEC)) {
  if (epfd_ < 0) throw NetError("net: epoll_create1: " + std::string(std::strerror(errno)));
}

Poller::~Poller() { ::close(epfd_); }

void Poller::set(int fd, short events, u64 tag) {
  auto it = interest_.find(fd);
  if (it != interest_.end() && it->second.events == events && it->second.tag == tag)
    return;
  const bool known = it != interest_.end();
  epoll_event ev{};
  ev.events = to_epoll(events);
  ev.data.u64 = tag;
  const int op = known ? EPOLL_CTL_MOD : EPOLL_CTL_ADD;
  if (::epoll_ctl(epfd_, op, fd, &ev) != 0) {
    // ADD on an fd epoll already tracks (or MOD on one it lost through a
    // close we were not told about) — retry with the other op before giving
    // up, so a missed remove() cannot wedge the loop.
    const int op2 = op == EPOLL_CTL_ADD ? EPOLL_CTL_MOD : EPOLL_CTL_ADD;
    if (::epoll_ctl(epfd_, op2, fd, &ev) != 0)
      throw NetError("net: epoll_ctl: " + std::string(std::strerror(errno)));
  }
  if (known) {
    it->second.events = events;
    it->second.tag = tag;
  } else {
    interest_.emplace(fd, Interest{events, tag});
  }
}

void Poller::remove(int fd) {
  auto it = interest_.find(fd);
  if (it == interest_.end()) return;
  epoll_event ev{};  // ignored by DEL; non-null for pre-2.6.9 kernels
  ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, &ev);
  interest_.erase(it);
}

std::size_t Poller::wait(std::vector<Event>& out, int timeout_ms) {
  out.clear();
  epoll_event evs[256];
  const int rc = ::epoll_wait(epfd_, evs, 256, timeout_ms);
  if (rc < 0) {
    if (errno == EINTR) return 0;
    throw NetError("net: epoll_wait: " + std::string(std::strerror(errno)));
  }
  out.reserve(static_cast<std::size_t>(rc));
  for (int i = 0; i < rc; ++i)
    out.push_back(Event{evs[i].data.u64, from_epoll(evs[i].events)});
  return out.size();
}

}  // namespace repro::net
