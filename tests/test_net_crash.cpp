// Fork-based pfpld fixtures: a serving process killed by SIGSEGV inside a
// pool worker, and a request wedged on its worker past the stall watchdog's
// threshold. Each server runs in a forked child, because the crash handler,
// the sampler, the watchdog and the event log are process-wide. The child
// crashes or holds its request through the chunk store's write seam
// (gated_store.hpp); the server itself has no test hook. Nothing here sleeps
// to make a request slow: the parent waits, with a deadline, for the child's
// death or for the stall report.
#include <gtest/gtest.h>

#include <poll.h>
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
/// bound port through a pipe, and serves. The child _exits when the body
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
        const u16 p = server.port();
        if (::write(fd, &p, sizeof p) != sizeof p) ::_exit(101);
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
    if (pid > 0 && ::poll(&p, 1, 10000) == 1 && ::read(fds[0], &port, sizeof port) != sizeof port)
      port = 0;
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
};

/// Parse `path` once it exists. Its writers never leave half a file: the
/// crash handler finishes before its process dies, and the sampler renames
/// each stall report into place. A null value at the deadline.
obs::JsonValue wait_json(const fs::path& path) {
  for (const auto until = Clock::now() + kDeadline; Clock::now() < until;) {
    std::ifstream in(path);
    if (in.good()) {
      std::stringstream ss;
      ss << in.rdbuf();
      return obs::parse_json(ss.str());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return {};
}

}  // namespace

// A SIGSEGV in a pool worker of a serving pfpld: the client sees the
// connection close, the process dies with the signal, and the crash handler
// leaves the metrics document with the server's stats and a `crash` member
// naming the signal. The server renders that body before it serves, so the
// first request may crash.
TEST(NetCrash, WorkerSegfaultWritesTheCrashReport) {
  TempRoot root;
  const fs::path crash_dir = root.path / "crash";
  ServingChild child([&](auto ready) {
    gated::GatedStore gs(root.path / "store");
    net::Server::Options o;
    o.threads = 2;
    o.crash_dir = crash_dir.string();
    o.store = gs.store;
    net::Server server(o);
    gs.ops.crash();
    ready(server);
    server.run();
  });
  ASSERT_NE(child.port, 0) << "the serving child never reported its port";
  net::Client client = child.client();
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
      wait_json(crash_dir / ("crash-" + std::to_string(child.pid) + ".json"));
  ASSERT_TRUE(d.is_object()) << "no crash report in " << crash_dir;
  EXPECT_EQ(d.at("schema").str, "pfpl-metrics/1");
  EXPECT_TRUE(d.has("ts_ms") && d.at("metrics").is_object());
  EXPECT_TRUE(d.at("stats").has("requests_compress"));
  const obs::JsonValue& crash = d.at("crash");
  EXPECT_EQ(crash.at("pid").num, child.pid);
  EXPECT_EQ(crash.at("signal").str, "SIGSEGV");
  EXPECT_EQ(crash.at("signo").num, SIGSEGV);
  EXPECT_TRUE(crash.at("trace_tail").is_array());
}

// A request held on its worker past --stall-ms: the watchdog logs one
// `stall` event for the worker's slot and the sampler writes a stall report
// naming the slot and the request. Released,
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

  const obs::JsonValue report = wait_json(dumps / "stall-1.json");
  ::close(release[1]);
  ASSERT_TRUE(report.is_object()) << "no stall report in " << dumps;
  EXPECT_EQ(report.at("schema").str, "pfpl-metrics/1");
  EXPECT_TRUE(report.at("stats").has("requests_compress"));
  const obs::JsonValue& stall = report.at("stall");
  EXPECT_EQ(stall.at("threshold_ms").num, kStallMs);
  ASSERT_EQ(stall.at("slots").arr.size(), 1u);
  const obs::JsonValue& held = stall.at("slots").arr[0];
  EXPECT_EQ(held.at("slot").str.rfind("svc.worker.", 0), 0u) << held.at("slot").str;
  EXPECT_GE(held.at("busy_ms").num, kStallMs);
  EXPECT_EQ(held.at("detail").num, 77);

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
