#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <iterator>

namespace repro::net {
namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw NetError(what + ": " + std::strerror(errno));
}

/// Resolve host to an IPv4 sockaddr_in (numeric literal or getaddrinfo).
sockaddr_in resolve(const std::string& host, u16 port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string h = host.empty() ? "127.0.0.1" : host;
  if (inet_pton(AF_INET, h.c_str(), &addr.sin_addr) == 1) return addr;
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const int rc = getaddrinfo(h.c_str(), nullptr, &hints, &res);
  if (rc != 0 || !res)
    throw NetError("net: cannot resolve host '" + h + "': " + gai_strerror(rc));
  addr.sin_addr = reinterpret_cast<sockaddr_in*>(res->ai_addr)->sin_addr;
  freeaddrinfo(res);
  return addr;
}

/// Poll one fd for `events`; returns false on timeout. Throws on poll error.
bool wait_fd(int fd, short events, int timeout_ms) {
  pollfd p{fd, events, 0};
  for (;;) {
    const int rc = ::poll(&p, 1, timeout_ms <= 0 ? -1 : timeout_ms);
    if (rc > 0) return true;
    if (rc == 0) return false;
    if (errno != EINTR) throw_errno("net: poll");
  }
}

}  // namespace

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void split_host_port(const std::string& spec, std::string& host, u16& port) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos)
    throw NetError("net: expected host:port, got '" + spec + "'");
  host = spec.substr(0, colon);
  const std::string p = spec.substr(colon + 1);
  char* end = nullptr;
  const unsigned long v = std::strtoul(p.c_str(), &end, 10);
  if (p.empty() || *end != '\0' || v == 0 || v > 65535)
    throw NetError("net: invalid port '" + p + "'");
  port = static_cast<u16>(v);
}

Socket tcp_listen(const std::string& host, u16 port, int backlog) {
  Socket s(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!s.valid()) throw_errno("net: socket");
  const int one = 1;
  setsockopt(s.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = resolve(host, port);
  if (::bind(s.fd(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
    throw_errno("net: bind " + host + ":" + std::to_string(port));
  if (::listen(s.fd(), backlog) != 0) throw_errno("net: listen");
  set_nonblocking(s.fd(), true);
  return s;
}

u16 local_port(const Socket& s) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (getsockname(s.fd(), reinterpret_cast<sockaddr*>(&addr), &len) != 0)
    throw_errno("net: getsockname");
  return ntohs(addr.sin_port);
}

Socket tcp_connect(const std::string& host, u16 port, int timeout_ms) {
  Socket s(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!s.valid()) throw_errno("net: socket");
  sockaddr_in addr = resolve(host, port);
  // Non-blocking connect + poll: a blocking connect honors only the system's
  // multi-minute timeout, useless for a client with a request deadline.
  set_nonblocking(s.fd(), true);
  if (::connect(s.fd(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (errno != EINPROGRESS)
      throw_errno("net: connect " + host + ":" + std::to_string(port));
    if (!wait_fd(s.fd(), POLLOUT, timeout_ms))
      throw NetError("net: connect " + host + ":" + std::to_string(port) + ": timeout");
    int err = 0;
    socklen_t len = sizeof(err);
    if (getsockopt(s.fd(), SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0)
      throw NetError("net: connect " + host + ":" + std::to_string(port) + ": " +
                     std::strerror(err ? err : errno));
  }
  set_nonblocking(s.fd(), false);
  const int one = 1;
  setsockopt(s.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return s;
}

void set_nonblocking(int fd, bool on) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0) throw_errno("net: fcntl(F_GETFL)");
  if (fcntl(fd, F_SETFL, on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK)) < 0)
    throw_errno("net: fcntl(F_SETFL)");
}

ssize_t send_gather(int fd, const iovec* iov, std::size_t n, std::size_t skip) {
  iovec left[16];
  std::size_t k = 0;
  for (std::size_t i = 0; i < n && k < std::size(left); ++i) {
    if (skip >= iov[i].iov_len) {  // sent already, or empty
      skip -= iov[i].iov_len;
      continue;
    }
    left[k++] = {static_cast<u8*>(iov[i].iov_base) + skip, iov[i].iov_len - skip};
    skip = 0;
  }
  msghdr m{};
  m.msg_iov = left;
  m.msg_iovlen = k;
  for (;;) {
    const ssize_t rc = ::sendmsg(fd, &m, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (rc >= 0) return rc;
    if (errno == EINTR) continue;
    return errno == EAGAIN || errno == EWOULDBLOCK ? 0 : -1;
  }
}

void send_all(int fd, const iovec* iov, std::size_t n, int timeout_ms) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) total += iov[i].iov_len;
  for (std::size_t sent = 0; sent < total;) {
    const ssize_t rc = send_gather(fd, iov, n, sent);
    if (rc < 0) throw_errno("net: send");
    if (rc == 0 && !wait_fd(fd, POLLOUT, timeout_ms)) throw NetError("net: send timeout");
    sent += static_cast<std::size_t>(rc);
  }
}

void recv_all(int fd, void* data, std::size_t n, int timeout_ms) {
  u8* p = static_cast<u8*>(data);
  std::size_t got = 0;
  while (got < n) {
    if (!wait_fd(fd, POLLIN, timeout_ms)) throw NetError("net: recv timeout");
    const ssize_t rc = ::recv(fd, p + got, n - got, 0);
    if (rc > 0) {
      got += static_cast<std::size_t>(rc);
      continue;
    }
    if (rc == 0) throw NetError("net: connection closed by peer");
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
    throw_errno("net: recv");
  }
}

}  // namespace repro::net
