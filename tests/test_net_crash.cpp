// Fork-based pfpld fixtures: a serving process killed by SIGSEGV inside a
// pool worker, and a request wedged on its worker past the stall watchdog's
// threshold. Each server runs in a forked child, because the crash handler,
// the flight recorder, the watchdog and the event log are process-wide. The
// child crashes or holds its request through the chunk store's write seam
// (gated_store.hpp); the server itself has no test hook. Nothing here sleeps
// to make a request slow: the parent polls, with a deadline, for the
// snapshots, the crash report and the stall dump.
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/pfpl.hpp"
#include "gated_store.hpp"
#include "json_value.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "obs/event_log.hpp"

using namespace repro;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;
constexpr auto kDeadline = std::chrono::seconds(10);

std::vector<float> make_f32(std::size_t n) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<float>(std::sin(i * 0.01) * 50.0);
  return v;
}

/// A fresh directory for one test, removed on scope exit.
struct TempRoot {
  TempRoot()
      : path(fs::path(::testing::TempDir()) /
             ("pfpl_net_crash_" +
              std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()) +
              "_" + std::to_string(::getpid()))) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempRoot() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  fs::path path;
};

/// A pfpld in a forked child. `body(ready)` runs in the child: it builds
/// its store and server, arms its gate, calls `ready(server)` to report the
/// bound ports through a pipe, and serves. The child _exits when the body
/// returns; one still alive when the fixture ends is killed.
struct ServingChild {
  template <typename Body>
  explicit ServingChild(Body body) {
    int fds[2];
    if (::pipe(fds) != 0) return;
    pid = ::fork();
    if (pid == 0) {
      ::close(fds[0]);
      auto ready = [fd = fds[1]](const net::Server& server) {
        const u16 ports[2] = {server.port(), server.metrics_port()};
        if (::write(fd, ports, sizeof ports) != sizeof ports) ::_exit(101);
        ::close(fd);
      };
      int code = 0;
      try {
        body(ready);
      } catch (...) {
        code = 100;
      }
      ::_exit(code);
    }
    ::close(fds[1]);
    pollfd p{fds[0], POLLIN, 0};
    u16 ports[2] = {0, 0};
    if (pid > 0 && ::poll(&p, 1, 10000) == 1 &&
        ::read(fds[0], ports, sizeof ports) == sizeof ports) {
      port = ports[0];
      metrics_port = ports[1];
    }
    ::close(fds[0]);
  }
  ~ServingChild() {
    if (pid > 0 && !reaped) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
  }
  ServingChild(const ServingChild&) = delete;
  ServingChild& operator=(const ServingChild&) = delete;

  /// Wait status of the child, or -1 when it is still alive at the deadline.
  int wait() {
    const auto until = Clock::now() + kDeadline;
    int status = 0;
    while (Clock::now() < until) {
      if (::waitpid(pid, &status, WNOHANG) == pid) {
        reaped = true;
        return status;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return -1;
  }
  net::Client client() const {
    net::Client::Options o;
    o.host = "127.0.0.1";
    o.port = port;
    o.max_attempts = 1;  // a dead server must not be redialled
    return net::Client(o);
  }

  pid_t pid = -1;
  bool reaped = false;
  u16 port = 0;
  u16 metrics_port = 0;
};

/// The body of a plain-HTTP GET (the server answers Connection: close).
std::string http_get(u16 port, const std::string& path) {
  net::Socket sock = net::tcp_connect("127.0.0.1", port, 5000);
  const std::string req = "GET " + path + " HTTP/1.1\r\nHost: x\r\n\r\n";
  net::send_all(sock.fd(), req.data(), req.size(), 5000);
  std::string out;
  char buf[4096];
  for (ssize_t n; (n = ::recv(sock.fd(), buf, sizeof buf, 0)) > 0;)
    out.append(buf, static_cast<std::size_t>(n));
  const std::size_t body = out.find("\r\n\r\n");
  return body == std::string::npos ? std::string() : out.substr(body + 4);
}

/// Parse `path` as JSON once it exists and parses (its writer may still be
/// mid-write); a null value at the deadline.
obs::JsonValue poll_json(const fs::path& path) {
  const auto until = Clock::now() + kDeadline;
  while (Clock::now() < until) {
    std::ifstream in(path);
    if (in.good()) {
      std::stringstream ss;
      ss << in.rdbuf();
      try {
        return obs::parse_json(ss.str());
      } catch (const std::exception&) {
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return {};
}

/// A `pfpl-flight/1` history document: served by a running recorder, every
/// snapshot a metrics snapshot with the server's stats, seq increasing.
void expect_history(const obs::JsonValue& d, std::size_t min_snapshots) {
  EXPECT_EQ(d.at("schema").str, "pfpl-flight/1");
  EXPECT_TRUE(d.at("running").b);
  const auto& snaps = d.at("snapshots").arr;
  EXPECT_GE(snaps.size(), min_snapshots);
  double prev = -1;
  for (const obs::JsonValue& s : snaps) {
    EXPECT_TRUE(s.has("seq") && s.has("ts_ms") && s.has("metrics"));
    EXPECT_EQ(s.at("schema").str, "pfpl-metrics/1");
    EXPECT_TRUE(s.has("stats"));
    EXPECT_GT(s.at("seq").num, prev);
    prev = s.at("seq").num;
  }
}

}  // namespace

// A SIGSEGV in a pool worker of a serving pfpld: the client sees the
// connection close, the process dies with the signal, and the crash handler
// leaves a pfpl-crash/1 report carrying the last flight snapshots. The
// /history ring is checked over PFPN and HTTP while the server is healthy.
TEST(NetCrash, WorkerSegfaultWritesTheCrashReport) {
  TempRoot root;
  const fs::path crash_dir = root.path / "crash";
  ServingChild child([&](auto ready) {
    gated::GatedStore gs(root.path / "store");
    net::Server::Options o;
    o.threads = 2;
    o.metrics_port = 0;
    o.flight_ms = 50;
    o.flight_depth = 8;
    o.crash_dir = crash_dir.string();
    o.store = gs.store;
    net::Server server(o);
    gs.ops.crash();
    ready(server);
    server.run();
  });
  ASSERT_NE(child.port, 0) << "the serving child never reported its port";
  net::Client client = child.client();

  // Two snapshots in the ring mean the first one's crash body is rendered.
  obs::JsonValue history;
  for (const auto until = Clock::now() + kDeadline; Clock::now() < until;) {
    history = obs::parse_json(client.metrics_fmt("history"));
    if (history.at("snapshots").arr.size() >= 2) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  expect_history(history, 2);
  expect_history(obs::parse_json(http_get(child.metrics_port, "/history")), 2);

  const std::vector<float> data = make_f32(4096);
  try {
    client.compress(data.data(), data.size() * 4, DType::F32, EbType::ABS, 1e-3);
    ADD_FAILURE() << "a crashed worker answered";
  } catch (const net::NetError& e) {
    EXPECT_NE(std::string(e.what()).find("connection closed by peer"), std::string::npos)
        << e.what();
  }
  const int status = child.wait();
  ASSERT_TRUE(WIFSIGNALED(status)) << "wait status " << status;
  EXPECT_EQ(WTERMSIG(status), SIGSEGV);

  const obs::JsonValue d =
      poll_json(crash_dir / ("crash-" + std::to_string(child.pid) + ".json"));
  ASSERT_TRUE(d.is_object()) << "no parseable crash report in " << crash_dir;
  EXPECT_EQ(d.at("schema").str, "pfpl-crash/1");
  EXPECT_EQ(d.at("signal").str, "SIGSEGV");
  EXPECT_EQ(d.at("signo").num, SIGSEGV);
  EXPECT_EQ(d.at("flight").at("interval_ms").num, 50);
  const auto& snaps = d.at("flight").at("snapshots").arr;
  ASSERT_GE(snaps.size(), 1u);
  for (const obs::JsonValue& s : snaps)
    EXPECT_TRUE(s.has("seq") && s.has("ts_ms") && s.has("metrics"));
  EXPECT_TRUE(d.has("trace_tail"));
}

// A request held on its worker past --stall-ms: the watchdog logs one
// `stall` event for the worker's slot and writes a stall dump. Released,
// the request answers, lands in the slow-request ring and the slow log
// (an obs::EventLog file, as --slow-log configures it), and the server
// drains cleanly.
TEST(NetCrash, HeldWorkerTripsTheStallWatchdog) {
  TempRoot root;
  const fs::path dumps = root.path / "dumps", events = root.path / "events.jsonl";
  constexpr u64 kStallMs = 100;
  int release[2];
  ASSERT_EQ(::pipe(release), 0);
  ServingChild child([&](auto ready) {
    obs::EventLog::Options lo;
    lo.path = events.string();
    obs::EventLog::global().configure(lo);
    gated::GatedStore gs(root.path / "store");
    net::Server::Options o;
    o.threads = 2;
    o.flight_ms = 50;
    o.stall_ms = kStallMs;
    o.crash_dir = dumps.string();
    o.slow_ms = 1;
    o.store = gs.store;
    net::Server server(o);
    gs.ops.hold();
    // The parent opens the gate by closing its end of the pipe.
    ::close(release[1]);
    std::thread opener([&] {
      char b;
      while (::read(release[0], &b, 1) > 0) {
      }
      gs.ops.open();
    });
    ready(server);
    server.run();
    opener.join();
  });
  ::close(release[0]);
  ASSERT_NE(child.port, 0) << "the serving child never reported its port";

  const std::vector<float> data = make_f32(4096);
  net::FrameHeader h;
  h.op = static_cast<u8>(net::Op::Compress);
  h.eps = 1e-3;
  h.request_id = 77;
  const Bytes req = net::encode_frame(h, data.data(), data.size() * 4);
  net::Socket sock = net::tcp_connect("127.0.0.1", child.port, 5000);
  net::send_all(sock.fd(), req.data(), req.size(), 5000);

  const obs::JsonValue dump = poll_json(dumps / "stall-1.json");
  ::close(release[1]);
  ASSERT_TRUE(dump.is_object()) << "no stall dump in " << dumps;
  EXPECT_EQ(dump.at("schema").str, "pfpl-flight/1");
  EXPECT_GE(dump.at("stalls_detected").num, 1);

  // The held request still answers, byte-identical to the local codec.
  u8 hdr[net::kFrameHeaderSize];
  net::recv_all(sock.fd(), hdr, sizeof hdr, 10000);
  const net::FrameHeader rh = net::decode_frame_header(hdr);
  EXPECT_EQ(rh.status, static_cast<u16>(net::Status::Ok));
  EXPECT_EQ(rh.request_id, 77u);
  Bytes remote(static_cast<std::size_t>(rh.payload_len));
  net::recv_all(sock.fd(), remote.data(), remote.size(), 10000);
  pfpl::Params params;
  params.eps = 1e-3;
  EXPECT_EQ(remote, pfpl::compress(Field(data.data(), data.size()), params));

  net::Client client = child.client();
  const obs::JsonValue doc = obs::parse_json(client.metrics());
  const auto& slow = doc.at("stats").at("slow_requests").arr;
  ASSERT_FALSE(slow.empty());
  for (const obs::JsonValue& e : slow)
    for (const char* k : {"request_id", "op", "total_us", "wait_us", "work_us"})
      EXPECT_TRUE(e.has(k)) << k;
  client.shutdown_server();
  const int status = child.wait();
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << "wait status " << status;

  std::ifstream log(events);
  std::size_t stalls = 0, slow_lines = 0;
  for (std::string line; std::getline(log, line);) {
    const obs::JsonValue e = obs::parse_json(line);
    const obs::JsonValue& f = e.at("fields");
    if (e.at("event").str == "stall") {
      ++stalls;
      EXPECT_EQ(f.at("slot").str.rfind("svc.worker", 0), 0u) << line;
      EXPECT_EQ(f.at("threshold_ms").num, kStallMs) << line;
      EXPECT_GE(f.at("busy_ms").num, f.at("threshold_ms").num) << line;
    } else if (e.at("event").str == "slow_request") {
      ++slow_lines;
      EXPECT_EQ(f.at("request_id").num, 77) << line;
    }
  }
  EXPECT_GE(stalls, 1u);
  EXPECT_GE(slow_lines, 1u);
}
