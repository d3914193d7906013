// Thin dependency-free POSIX TCP helpers for the PFPN service: an RAII fd,
// listen/connect with timeouts, scatter-gather sends and poll-gated recv. All
// failures throw NetError with errno text; SIGPIPE is never raised (sends
// use MSG_NOSIGNAL).
#pragma once

#include <sys/types.h>
#include <sys/uio.h>

#include <cstddef>
#include <string>

#include "common/types.hpp"
#include "net/frame.hpp"

namespace repro::net {

/// Move-only RAII owner of a file descriptor.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }

  Socket(Socket&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  Socket& operator=(Socket&& o) noexcept {
    if (this != &o) {
      close();
      fd_ = o.fd_;
      o.fd_ = -1;
    }
    return *this;
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void close();

 private:
  int fd_ = -1;
};

/// Parse "host:port" (host may be empty => 127.0.0.1). Throws NetError on a
/// missing/invalid port.
void split_host_port(const std::string& spec, std::string& host, u16& port);

/// Create a listening TCP socket bound to host:port (port 0 = ephemeral,
/// SO_REUSEADDR set, non-blocking). `host` is an IPv4 literal or a name
/// resolvable by getaddrinfo.
Socket tcp_listen(const std::string& host, u16 port, int backlog = 128);

/// Local port of a bound socket (resolves port-0 binds).
u16 local_port(const Socket& s);

/// Blocking connect with timeout; the returned socket is in blocking mode.
Socket tcp_connect(const std::string& host, u16 port, int timeout_ms);

void set_nonblocking(int fd, bool on);

/// One non-blocking sendmsg of the bytes of `iov[0..n)` past the first
/// `skip`, 16 buffers at most. Returns the bytes sent, 0 when the socket
/// takes none now, or -1 on any other error (errno says which).
ssize_t send_gather(int fd, const iovec* iov, std::size_t n, std::size_t skip);

/// Send every byte of `iov[0..n)` in order, resuming after partial writes;
/// `timeout_ms` bounds each poll-for-writable wait (<= 0 = wait forever).
/// Throws NetError on failure or timeout.
void send_all(int fd, const iovec* iov, std::size_t n, int timeout_ms);
inline void send_all(int fd, const void* data, std::size_t n, int timeout_ms) {
  const iovec one{const_cast<void*>(data), n};
  send_all(fd, &one, 1, timeout_ms);
}

/// Receive exactly `n` bytes. Throws NetError on failure, timeout, or EOF
/// before `n` bytes arrived.
void recv_all(int fd, void* data, std::size_t n, int timeout_ms);

}  // namespace repro::net
