// Tests for the PFPN/1 network subsystem (src/net): shared CRC-32, frame
// codec, incremental parser robustness against hostile bytes, ThreadPool
// drain semantics, and full loopback server/client integration — including
// byte-identity of remote round trips against the local compressor, typed
// error frames, backpressure caps, graceful drain, and client retry.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/checksum.hpp"
#include "core/pfpl.hpp"
#include "gated_store.hpp"
#include "json_value.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "obs/control.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "store/store.hpp"
#include "svc/thread_pool.hpp"

using namespace repro;

namespace {

std::vector<float> make_f32(std::size_t n, unsigned seed = 0) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = static_cast<float>(std::sin(i * 0.01 + seed) * 50.0 + seed);
  return v;
}

std::vector<double> make_f64(std::size_t n, unsigned seed = 0) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = std::cos(i * 0.01 + seed) * 50.0 + seed;
  return v;
}

/// A server running on its own thread; joins + checks clean exit on scope
/// exit.
struct TestServer {
  explicit TestServer(net::Server::Options opts = {}) : server(opts) {
    thread = std::thread([this] { server.run(); });
  }
  ~TestServer() {
    if (thread.joinable()) {
      server.request_stop();
      thread.join();
    }
  }
  void stop() {
    server.request_stop();
    thread.join();
  }
  net::Client::Options client_options() const {
    net::Client::Options o;
    o.host = "127.0.0.1";
    o.port = server.port();
    return o;
  }
  net::Server server;
  std::thread thread;
};

/// A TestServer whose chunk store holds every segment append on a gate:
/// each COMPRESS stays in flight on its pool worker, after the compressor
/// ran, until the test calls `open()`. The destructor opens the gate before
/// the server drains, so a failed assertion cannot wedge the drain.
struct HeldServer {
  explicit HeldServer(const net::Server::Options& opts)
      : gs(std::filesystem::path(::testing::TempDir()) /
           ("pfpl_held_" +
            std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()) +
            "_" + std::to_string(::getpid()))),
        ts(with_store(opts)) {
    gs.ops.hold();
  }
  net::Server::Options with_store(net::Server::Options o) const {
    o.store = gs.store;
    return o;
  }
  ~HeldServer() { open(); }
  void open() { gs.ops.open(); }
  gated::GatedStore gs;
  TestServer ts;
};

/// Blocking raw-socket request: send pre-encoded wire bytes, read one
/// response frame. For tests that need to send what net::Client refuses to.
net::Frame raw_roundtrip(int fd, const Bytes& wire, int timeout_ms = 5000) {
  net::send_all(fd, wire.data(), wire.size(), timeout_ms);
  u8 hdr[net::kFrameHeaderSize];
  net::recv_all(fd, hdr, sizeof(hdr), timeout_ms);
  net::Frame f;
  f.header = net::decode_frame_header(hdr);
  f.payload.resize(static_cast<std::size_t>(f.header.payload_len));
  if (!f.payload.empty())
    net::recv_all(fd, f.payload.data(), f.payload.size(), timeout_ms);
  return f;
}

Bytes ping_frame(u64 id) {
  net::FrameHeader h;
  h.op = static_cast<u8>(net::Op::Ping);
  h.request_id = id;
  return net::encode_frame(h, nullptr, 0);
}

// ---------------------------------------------------------------------------
// Shared CRC-32 (src/common)

TEST(NetChecksum, Crc32CheckValue) {
  // The CRC-32/IEEE check value: crc32("123456789") == 0xCBF43926.
  const char* s = "123456789";
  EXPECT_EQ(common::crc32(s, 9), 0xCBF43926u);
}

// ---------------------------------------------------------------------------
// Frame codec + parser robustness

TEST(NetFrame, EncodeDecodeRoundTrip) {
  net::FrameHeader h;
  h.op = static_cast<u8>(net::Op::Compress);
  h.dtype = static_cast<u8>(DType::F64);
  h.eb_type = static_cast<u8>(EbType::REL);
  h.eps = 1.25e-3;
  h.request_id = 0xDEADBEEFCAFEBABEull;
  const Bytes payload = {1, 2, 3, 4, 5, 6, 7};
  const Bytes wire = net::encode_frame(h, payload);
  ASSERT_EQ(wire.size(), net::kFrameHeaderSize + payload.size());

  net::FrameParser p;
  p.feed(wire.data(), wire.size());
  net::Frame f;
  ASSERT_EQ(p.next(f), net::FrameParser::Result::Ready);
  EXPECT_EQ(f.header.op, h.op);
  EXPECT_EQ(f.header.dtype, h.dtype);
  EXPECT_EQ(f.header.eb_type, h.eb_type);
  EXPECT_EQ(f.header.eps, h.eps);
  EXPECT_EQ(f.header.request_id, h.request_id);
  EXPECT_EQ(f.payload, payload);
  EXPECT_EQ(p.next(f), net::FrameParser::Result::NeedMore);
  EXPECT_EQ(p.buffered(), 0u);
}

TEST(NetFrame, PayloadCrcIsTheScalarSpec) {
  // A payload long enough for the folding tier, with a ragged tail: the CRC on
  // the wire is the bytewise specification's value, and the parser accepts it.
  Bytes payload((std::size_t{1} << 20) + 13);
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = static_cast<u8>(i * 131 + (i >> 9));
  net::FrameHeader h;
  h.op = static_cast<u8>(net::Op::Compress);
  const Bytes wire = net::encode_frame(h, payload);

  net::FrameParser p;
  p.feed(wire.data(), wire.size());
  net::Frame f;
  ASSERT_EQ(p.next(f), net::FrameParser::Result::Ready);
  EXPECT_EQ(f.header.payload_crc, common::scalar::crc32(payload.data(), payload.size()));
  EXPECT_EQ(f.payload, payload);
}

TEST(NetFrame, ErrorFrameCodec) {
  const Bytes wire = net::encode_error_frame(
      42, static_cast<u8>(net::Op::Compress), net::Status::BadParams, "nope");
  net::FrameParser p;
  p.feed(wire.data(), wire.size());
  net::Frame f;
  ASSERT_EQ(p.next(f), net::FrameParser::Result::Ready);
  EXPECT_TRUE(f.header.is_response());
  EXPECT_EQ(f.header.base_op(), static_cast<u8>(net::Op::Compress));
  EXPECT_EQ(f.header.status, static_cast<u16>(net::Status::BadParams));
  EXPECT_EQ(f.header.request_id, 42u);
  EXPECT_EQ(std::string(f.payload.begin(), f.payload.end()), "nope");
}

// The status names are part of the user-facing contract: `pfpl remote`
// reports server errors by CamelCase enumerator name, and unknown codes
// (from a newer peer) degrade to "Status<N>", never a bare number or "?".
TEST(NetFrame, StatusNamesAreTyped) {
  EXPECT_STREQ(net::to_string(net::Status::Ok), "Ok");
  EXPECT_STREQ(net::to_string(net::Status::BadFrame), "BadFrame");
  EXPECT_STREQ(net::to_string(net::Status::CrcMismatch), "CrcMismatch");
  EXPECT_STREQ(net::to_string(net::Status::BadParams), "BadParams");
  EXPECT_STREQ(net::to_string(net::Status::CompressFailed), "CompressFailed");
  EXPECT_STREQ(net::to_string(net::Status::TooLarge), "TooLarge");
  EXPECT_STREQ(net::to_string(net::Status::Draining), "Draining");
  EXPECT_EQ(net::status_name(2), "CrcMismatch");
  EXPECT_EQ(net::status_name(6), "Draining");
  EXPECT_EQ(net::status_name(999), "Status999");
}

TEST(NetFrame, ByteAtATimeFeed) {
  net::FrameHeader h;
  h.op = static_cast<u8>(net::Op::Ping);
  h.request_id = 7;
  const Bytes payload = {9, 8, 7};
  const Bytes wire = net::encode_frame(h, payload);

  net::FrameParser p;
  net::Frame f;
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    p.feed(&wire[i], 1);
    ASSERT_EQ(p.next(f), net::FrameParser::Result::NeedMore) << "at byte " << i;
  }
  p.feed(&wire[wire.size() - 1], 1);
  ASSERT_EQ(p.next(f), net::FrameParser::Result::Ready);
  EXPECT_EQ(f.payload, payload);
}

TEST(NetFrame, MultipleFramesOneFeed) {
  Bytes wire;
  for (u64 id = 1; id <= 3; ++id) {
    const Bytes one = ping_frame(id);
    wire.insert(wire.end(), one.begin(), one.end());
  }
  net::FrameParser p;
  p.feed(wire.data(), wire.size());
  net::Frame f;
  for (u64 id = 1; id <= 3; ++id) {
    ASSERT_EQ(p.next(f), net::FrameParser::Result::Ready);
    EXPECT_EQ(f.header.request_id, id);
  }
  EXPECT_EQ(p.next(f), net::FrameParser::Result::NeedMore);
}

TEST(NetFrame, TruncatedHeaderNeverReady) {
  const Bytes wire = ping_frame(1);
  net::FrameParser p;
  p.feed(wire.data(), net::kFrameHeaderSize - 1);
  net::Frame f;
  EXPECT_EQ(p.next(f), net::FrameParser::Result::NeedMore);
  EXPECT_FALSE(p.fatal());
}

TEST(NetFrame, BadMagicIsFatal) {
  Bytes wire = ping_frame(1);
  wire[0] ^= 0xFF;
  net::FrameParser p;
  p.feed(wire.data(), wire.size());
  net::Frame f;
  ASSERT_EQ(p.next(f), net::FrameParser::Result::Error);
  EXPECT_TRUE(p.fatal());
  EXPECT_EQ(p.status(), net::Status::BadFrame);
  // Sticky: feeding more valid bytes cannot resurrect the stream.
  const Bytes good = ping_frame(2);
  p.feed(good.data(), good.size());
  EXPECT_EQ(p.next(f), net::FrameParser::Result::Error);
}

TEST(NetFrame, OversizedDeclaredLengthIsFatal) {
  net::FrameHeader h;
  h.op = static_cast<u8>(net::Op::Compress);
  h.request_id = 5;
  Bytes payload(64, 0xAB);
  Bytes wire = net::encode_frame(h, payload);
  // Rewrite payload_len (offset 32, u64 LE) to something absurd.
  const u64 huge = 1ull << 40;
  std::memcpy(&wire[32], &huge, 8);
  net::FrameParser p(1u << 20);  // 1 MiB cap
  p.feed(wire.data(), wire.size());
  net::Frame f;
  ASSERT_EQ(p.next(f), net::FrameParser::Result::Error);
  EXPECT_TRUE(p.fatal());
  EXPECT_EQ(p.status(), net::Status::TooLarge);
  EXPECT_EQ(p.error_request_id(), 5u);
}

TEST(NetFrame, CrcMismatchIsRecoverable) {
  net::FrameHeader h;
  h.op = static_cast<u8>(net::Op::Ping);
  h.request_id = 9;
  Bytes payload = {1, 2, 3, 4};
  Bytes bad = net::encode_frame(h, payload);
  bad[net::kFrameHeaderSize] ^= 0xFF;  // flip a payload bit

  net::FrameParser p;
  p.feed(bad.data(), bad.size());
  net::Frame f;
  ASSERT_EQ(p.next(f), net::FrameParser::Result::Error);
  EXPECT_FALSE(p.fatal());
  EXPECT_EQ(p.status(), net::Status::CrcMismatch);
  EXPECT_EQ(p.error_request_id(), 9u);

  // The frame boundary was trustworthy, so the next frame parses cleanly.
  const Bytes good = ping_frame(10);
  p.feed(good.data(), good.size());
  ASSERT_EQ(p.next(f), net::FrameParser::Result::Ready);
  EXPECT_EQ(f.header.request_id, 10u);
}

TEST(NetFrame, GarbageMidStream) {
  const Bytes good = ping_frame(1);
  Bytes wire = good;
  Bytes garbage(200, 0xFF);
  wire.insert(wire.end(), garbage.begin(), garbage.end());
  net::FrameParser p;
  p.feed(wire.data(), wire.size());
  net::Frame f;
  ASSERT_EQ(p.next(f), net::FrameParser::Result::Ready);
  EXPECT_EQ(f.header.request_id, 1u);
  ASSERT_EQ(p.next(f), net::FrameParser::Result::Error);
  EXPECT_TRUE(p.fatal());
}

namespace {

/// One thing a parser yields: a frame, or a typed error.
struct ParseEvent {
  net::FrameParser::Result result;
  net::Status status;
  bool fatal;
  u64 request_id;
  Bytes payload;
  bool operator==(const ParseEvent&) const = default;
};

/// Take every frame and error the parser holds now.
void drain_parser(net::FrameParser& p, std::vector<ParseEvent>& out) {
  using Result = net::FrameParser::Result;
  net::Frame f;
  for (Result r; (r = p.next(f)) != Result::NeedMore;) {
    if (r == Result::Ready) {
      out.push_back({r, net::Status::Ok, false, f.header.request_id, f.payload});
      continue;
    }
    out.push_back({r, p.status(), p.fatal(), p.error_request_id(), {}});
    if (p.fatal()) break;
  }
}

Bytes pattern_payload(std::size_t n, unsigned seed) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<u8>(i * 131 + seed + (i >> 11));
  return b;
}

}  // namespace

// The same pipelined stream, cut every way the server and the fuzzer cut
// it, parses to the same frames and the same typed errors as one feed().
TEST(NetFrame, EveryDeliveryPatternParsesTheSameFrames) {
  struct Spec {
    u64 id;
    std::size_t bytes;
    bool bad_crc;
  };
  const Spec specs[] = {{1, 0, false},     {2, 3, false},
                        {3, 100, true},    {4, 16u << 10, false},
                        {5, (1u << 20) + 3, false}};
  Bytes wire;
  std::vector<std::size_t> frame_at;
  for (const Spec& sp : specs) {
    net::FrameHeader h;
    h.op = static_cast<u8>(net::Op::Compress);
    h.request_id = sp.id;
    Bytes one = net::encode_frame(h, pattern_payload(sp.bytes, static_cast<unsigned>(sp.id)));
    if (sp.bad_crc) one[net::kFrameHeaderSize + 7] ^= 0x10;
    frame_at.push_back(wire.size());
    wire.insert(wire.end(), one.begin(), one.end());
  }

  std::vector<ParseEvent> want;
  {
    net::FrameParser p;
    p.feed(wire.data(), wire.size());
    drain_parser(p, want);
  }
  ASSERT_EQ(want.size(), std::size(specs));
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].request_id, specs[i].id);
    EXPECT_EQ(want[i].status,
              specs[i].bad_crc ? net::Status::CrcMismatch : net::Status::Ok);
    EXPECT_FALSE(want[i].fatal);
    if (!specs[i].bad_crc) {
      EXPECT_EQ(want[i].payload,
                pattern_payload(specs[i].bytes, static_cast<unsigned>(specs[i].id)));
    }
  }

  auto check = [&](const std::string& how, const std::vector<ParseEvent>& got) {
    ASSERT_EQ(got.size(), want.size()) << how;
    for (std::size_t i = 0; i < got.size(); ++i)
      EXPECT_TRUE(got[i] == want[i]) << how << ": event " << i << " differs";
  };

  {  // every header byte by byte, every payload in one piece
    net::FrameParser p;
    std::vector<ParseEvent> got;
    for (std::size_t f = 0; f < frame_at.size(); ++f) {
      const std::size_t end = f + 1 < frame_at.size() ? frame_at[f + 1] : wire.size();
      for (std::size_t i = frame_at[f]; i < frame_at[f] + net::kFrameHeaderSize; ++i) {
        p.feed(&wire[i], 1);
        drain_parser(p, got);
      }
      const std::size_t body = frame_at[f] + net::kFrameHeaderSize;
      p.feed(wire.data() + body, end - body);
      drain_parser(p, got);
    }
    check("header bytes one at a time", got);
  }
  {  // 13-byte pieces
    net::FrameParser p;
    std::vector<ParseEvent> got;
    for (std::size_t at = 0; at < wire.size(); at += 13) {
      p.feed(wire.data() + at, std::min<std::size_t>(13, wire.size() - at));
      drain_parser(p, got);
    }
    check("13-byte pieces", got);
  }
  // The server's path: whatever a header's payload window offers is
  // received in place, anything else goes through feed(); the parser is
  // drained after some pieces only, as after a round of reads.
  for (unsigned seed = 1; seed <= 8; ++seed) {
    std::mt19937 rng(seed);
    net::FrameParser p;
    std::vector<ParseEvent> got;
    std::size_t in_place = 0;
    for (std::size_t at = 0; at < wire.size();) {
      const std::size_t cut =
          std::min<std::size_t>(1 + rng() % (seed % 2 ? 97 : 300000), wire.size() - at);
      const std::span<u8> window = p.recv_window();
      if (!window.empty()) {
        const std::size_t k = std::min(cut, window.size());
        std::memcpy(window.data(), wire.data() + at, k);
        p.commit(k);
        in_place += k;
        at += k;
      } else {
        p.feed(wire.data() + at, cut);
        at += cut;
      }
      if (rng() % 2) drain_parser(p, got);
    }
    drain_parser(p, got);
    check("in place, seed " + std::to_string(seed), got);
    EXPECT_GT(in_place, std::size_t{1} << 19) << "seed " << seed;
  }
}

// A header may declare the largest payload the parser accepts; the memory
// it holds still follows the bytes that arrived, not that declaration.
TEST(NetFrame, DeclaredLengthAllocatesOnlyWhatArrived) {
  constexpr std::size_t kStep = net::FrameParser::kRecvStep;
  net::FrameParser p;
  net::FrameHeader h;
  h.op = static_cast<u8>(net::Op::Compress);
  Bytes wire = net::encode_frame(h, Bytes{0x5A});
  const u64 declared = p.max_payload();
  std::memcpy(&wire[32], &declared, 8);
  p.feed(wire.data(), wire.size());
  net::Frame f;
  ASSERT_EQ(p.next(f), net::FrameParser::Result::NeedMore);
  EXPECT_FALSE(p.fatal());
  EXPECT_LE(p.held_bytes(), wire.size() + kStep);
  EXPECT_LE(p.recv_window().size(), kStep);
  EXPECT_LE(p.held_bytes(), wire.size() + kStep);

  // More bytes grow it only with them: never past twice what arrived plus
  // one step, whether they come in place or through feed().
  const Bytes piece(48u << 10, 0xA5);
  std::size_t received = wire.size();
  for (int i = 0; i < 64; ++i) {
    std::size_t k = piece.size();
    if (i % 2) {
      p.feed(piece.data(), k);
    } else {
      const std::span<u8> window = p.recv_window();
      ASSERT_FALSE(window.empty());
      k = std::min(window.size(), k);
      std::memcpy(window.data(), piece.data(), k);
      p.commit(k);
    }
    received += k;
    ASSERT_EQ(p.next(f), net::FrameParser::Result::NeedMore);
    ASSERT_LE(p.held_bytes(), 2 * received + kStep) << "after " << received << " bytes";
  }
}

// ---------------------------------------------------------------------------
// ThreadPool::drain (satellite)

TEST(ThreadPoolDrain, CompletesQueuedWorkAndStaysUsable) {
  svc::ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 16; ++i)
    pool.submit([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      ++done;
    });
  pool.drain();
  EXPECT_EQ(done.load(), 16);
  EXPECT_FALSE(pool.draining());
  // Pool accepts work again after the drain.
  pool.submit([&] { ++done; });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 17);
}

TEST(ThreadPoolDrain, RejectsSubmissionsWhileDraining) {
  svc::ThreadPool pool(1);
  std::atomic<bool> release{false};
  pool.submit([&] {
    while (!release.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  std::thread drainer([&] { pool.drain(); });
  // Wait until the drain flag is visibly up, then try to submit.
  while (!pool.draining()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_THROW(pool.submit([] {}), CompressionError);
  release = true;
  drainer.join();
  EXPECT_EQ(pool.counters().executed, 1u);
}

TEST(ThreadPoolDrain, IdlePoolDrainsImmediately) {
  svc::ThreadPool pool(2);
  pool.drain();  // must not hang
  pool.drain();  // and is repeatable
  std::atomic<bool> ran{false};
  pool.submit([&] { ran = true; });
  pool.wait_idle();
  EXPECT_TRUE(ran.load());
}

// ---------------------------------------------------------------------------
// Loopback integration

TEST(NetLoopback, PingStatsAndShutdownOps) {
  TestServer ts;
  net::Client client(ts.client_options());
  client.ping();
  const std::string stats = client.stats();
  EXPECT_NE(stats.find("\"service\""), std::string::npos);
  EXPECT_NE(stats.find("\"frames_rx\""), std::string::npos);
  client.shutdown_server();  // response arrives before the server exits
  ts.thread.join();
  EXPECT_TRUE(ts.server.stats().draining);
}

TEST(NetLoopback, RoundTripAllDtypesAndBounds) {
  TestServer ts;
  net::Client client(ts.client_options());
  const std::vector<float> f32 = make_f32(2048);
  const std::vector<double> f64 = make_f64(2048);

  for (EbType eb : {EbType::ABS, EbType::REL, EbType::NOA}) {
    for (DType dtype : {DType::F32, DType::F64}) {
      const double eps = 1e-3;
      pfpl::Params params;
      params.eb = eb;
      params.eps = eps;
      const Field field = dtype == DType::F32 ? Field(f32.data(), f32.size())
                                              : Field(f64.data(), f64.size());
      const void* raw = dtype == DType::F32 ? static_cast<const void*>(f32.data())
                                            : static_cast<const void*>(f64.data());
      const std::size_t raw_n = 2048 * dtype_size(dtype);

      const Bytes local = pfpl::compress(field, params);
      const Bytes remote = client.compress(raw, raw_n, dtype, eb, eps);
      EXPECT_EQ(remote, local) << to_string(dtype) << "/" << to_string(eb);

      const std::vector<u8> back = client.decompress(remote);
      EXPECT_EQ(back, pfpl::decompress(local)) << to_string(dtype) << "/" << to_string(eb);
    }
  }

  // A 4 MiB + 12 B field: the request and the DECOMPRESS answer each take
  // many socket reads, so the server receives the payload in place in steps.
  const std::vector<float> big = make_f32(((4u << 20) + 12) / 4, 5);
  for (EbType eb : {EbType::ABS, EbType::REL, EbType::NOA}) {
    pfpl::Params params;
    params.eb = eb;
    params.eps = 1e-3;
    const Bytes local = pfpl::compress(Field(big.data(), big.size()), params);
    const Bytes remote = client.compress(big.data(), big.size() * 4, DType::F32, eb, 1e-3);
    EXPECT_EQ(remote, local) << "4 MiB + 12 B f32/" << to_string(eb);
    EXPECT_EQ(client.decompress(remote), pfpl::decompress(local))
        << "4 MiB + 12 B f32/" << to_string(eb);
  }
}

TEST(NetLoopback, RemoteErrorCarriesStatusName) {
  TestServer ts;
  net::Client client(ts.client_options());
  const std::vector<float> data = make_f32(64);
  try {
    // eps < 0 passes frame validation but is rejected by the compressor,
    // producing a CompressFailed error frame with the compressor's text.
    client.compress(data.data(), data.size() * 4, DType::F32, EbType::ABS, -1.0);
    FAIL() << "expected RemoteError";
  } catch (const net::RemoteError& e) {
    EXPECT_EQ(e.status(), static_cast<u16>(net::Status::CompressFailed));
    EXPECT_NE(std::string(e.what()).find("CompressFailed"), std::string::npos)
        << e.what();
    // Never the bare numeric or the old SCREAMING_SNAKE spelling.
    EXPECT_EQ(std::string(e.what()).find("COMPRESS_FAILED"), std::string::npos);
  }
}

TEST(NetLoopback, ServerAnswersFromChunkStore) {
  net::Server::Options opts;
  opts.store = std::make_shared<store::ChunkStore>(store::ChunkStore::Options{});
  TestServer ts(opts);
  net::Client client(ts.client_options());
  const std::vector<float> data = make_f32(4096);
  pfpl::Params params;
  params.eps = 1e-3;
  const Bytes local = pfpl::compress(Field(data.data(), data.size()), params);

  const Bytes first = client.compress(data.data(), data.size() * 4, DType::F32,
                                      EbType::ABS, 1e-3);
  const Bytes second = client.compress(data.data(), data.size() * 4, DType::F32,
                                       EbType::ABS, 1e-3);
  EXPECT_EQ(first, local);
  EXPECT_EQ(second, local);  // the cached response is byte-identical

  // And the decompress path caches independently (domain-separated keys).
  const std::vector<u8> back1 = client.decompress(first);
  const std::vector<u8> back2 = client.decompress(first);
  EXPECT_EQ(back1, back2);
  EXPECT_EQ(back1.size(), data.size() * 4);

  ts.stop();
  const net::Server::Stats st = ts.server.stats();
  EXPECT_EQ(st.store_hits, 2u);    // second compress + second decompress
  EXPECT_EQ(st.store_misses, 2u);  // first compress + first decompress
}

TEST(NetLoopback, EightConcurrentClientsZeroErrors) {
  TestServer ts;
  std::atomic<u64> errors{0};
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < 8; ++c) {
    threads.emplace_back([&, c] {
      try {
        net::Client client(ts.client_options());
        const std::vector<float> data = make_f32(1024, c);
        pfpl::Params params;
        params.eb = EbType::ABS;
        params.eps = 1e-3;
        const Bytes local = pfpl::compress(Field(data.data(), data.size()), params);
        for (int q = 0; q < 8; ++q) {
          const Bytes remote = client.compress(data.data(), data.size() * 4,
                                               DType::F32, EbType::ABS, 1e-3);
          if (remote != local) ++errors;
          if (client.decompress(remote) != pfpl::decompress(local)) ++errors;
        }
      } catch (const std::exception&) {
        ++errors;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(errors.load(), 0u);
  EXPECT_EQ(ts.server.stats().errors, 0u);
}

TEST(NetLoopback, BadParamsTypedErrorKeepsConnection) {
  TestServer ts;
  net::Socket sock =
      net::tcp_connect("127.0.0.1", ts.server.port(), 5000);

  // dtype 7 does not exist -> typed BadParams error frame.
  net::FrameHeader h;
  h.op = static_cast<u8>(net::Op::Compress);
  h.dtype = 7;
  h.eps = 1e-3;
  h.request_id = 77;
  Bytes payload(64, 1);
  net::Frame err = raw_roundtrip(sock.fd(), net::encode_frame(h, payload));
  EXPECT_EQ(err.header.status, static_cast<u16>(net::Status::BadParams));
  EXPECT_EQ(err.header.request_id, 77u);

  // Recoverable: the same connection still answers a valid PING.
  net::Frame pong = raw_roundtrip(sock.fd(), ping_frame(78));
  EXPECT_EQ(pong.header.status, static_cast<u16>(net::Status::Ok));
  EXPECT_EQ(pong.header.request_id, 78u);
}

TEST(NetLoopback, CrcMismatchTypedErrorKeepsConnection) {
  TestServer ts;
  net::Socket sock = net::tcp_connect("127.0.0.1", ts.server.port(), 5000);
  Bytes wire = ping_frame(5);
  Bytes payload = {1, 2, 3, 4};
  net::FrameHeader h;
  h.op = static_cast<u8>(net::Op::Ping);
  h.request_id = 5;
  wire = net::encode_frame(h, payload);
  wire[net::kFrameHeaderSize] ^= 0xFF;
  net::Frame err = raw_roundtrip(sock.fd(), wire);
  EXPECT_EQ(err.header.status, static_cast<u16>(net::Status::CrcMismatch));

  net::Frame pong = raw_roundtrip(sock.fd(), ping_frame(6));
  EXPECT_EQ(pong.header.status, static_cast<u16>(net::Status::Ok));
}

TEST(NetLoopback, BadMagicErrorFrameThenClose) {
  TestServer ts;
  net::Socket sock = net::tcp_connect("127.0.0.1", ts.server.port(), 5000);
  Bytes wire = ping_frame(1);
  wire[0] ^= 0xFF;
  net::Frame err = raw_roundtrip(sock.fd(), wire);
  EXPECT_EQ(err.header.status, static_cast<u16>(net::Status::BadFrame));
  // The server closes a connection it cannot resynchronize: the next read
  // must hit EOF (recv_all throws).
  u8 byte;
  EXPECT_THROW(net::recv_all(sock.fd(), &byte, 1, 2000), net::NetError);
}

TEST(NetLoopback, BackpressureCapsInflightBytes) {
  net::Server::Options opts;
  opts.max_inflight_bytes = 64 * 1024;
  opts.threads = 1;
  HeldServer held(opts);
  TestServer& ts = held.ts;

  net::Socket sock = net::tcp_connect("127.0.0.1", ts.server.port(), 5000);
  const std::vector<float> data = make_f32(8192);  // 32 KiB per request
  Bytes wire;
  const unsigned kRequests = 8;
  for (unsigned q = 0; q < kRequests; ++q) {
    net::FrameHeader h;
    h.op = static_cast<u8>(net::Op::Compress);
    h.dtype = static_cast<u8>(DType::F32);
    h.eb_type = static_cast<u8>(EbType::ABS);
    h.eps = 1e-3;
    h.request_id = 100 + q;
    const Bytes one = net::encode_frame(h, data.data(), data.size() * 4);
    wire.insert(wire.end(), one.begin(), one.end());
  }
  // Blast all 8 pipelined requests at once while the first one is held on
  // the gate: the loop admits a second (the budget is full) and parks the
  // rest. Then collect all 8 responses. The pool's LIFO pop may reorder
  // completions, so match by request id.
  net::send_all(sock.fd(), wire.data(), wire.size(), 10000);
  ASSERT_TRUE(held.gs.ops.wait_held());
  for (int i = 0; i < 5000 && ts.server.stats().inflight_bytes < opts.max_inflight_bytes; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(ts.server.stats().inflight_bytes, opts.max_inflight_bytes);
  held.open();
  std::vector<bool> seen(kRequests, false);
  for (unsigned q = 0; q < kRequests; ++q) {
    u8 hdr[net::kFrameHeaderSize];
    net::recv_all(sock.fd(), hdr, sizeof(hdr), 30000);
    net::FrameHeader rh = net::decode_frame_header(hdr);
    EXPECT_EQ(rh.status, static_cast<u16>(net::Status::Ok));
    ASSERT_GE(rh.request_id, 100u);
    ASSERT_LT(rh.request_id, 100u + kRequests);
    EXPECT_FALSE(seen[rh.request_id - 100]) << "duplicate response";
    seen[rh.request_id - 100] = true;
    std::vector<u8> payload(static_cast<std::size_t>(rh.payload_len));
    if (!payload.empty())
      net::recv_all(sock.fd(), payload.data(), payload.size(), 30000);
  }

  // 32 KiB requests against a 64 KiB budget: at most 2 admitted at once.
  EXPECT_LE(ts.server.stats().peak_inflight_bytes, opts.max_inflight_bytes);
  EXPECT_EQ(ts.server.stats().errors, 0u);
}

TEST(NetLoopback, OversizedSingleRequestAdmittedAlone) {
  net::Server::Options opts;
  opts.max_inflight_bytes = 1024;  // smaller than one request
  TestServer ts(opts);
  net::Client client(ts.client_options());
  const std::vector<float> data = make_f32(4096);  // 16 KiB > budget
  pfpl::Params params;
  params.eb = EbType::ABS;
  params.eps = 1e-3;
  const Bytes local = pfpl::compress(Field(data.data(), data.size()), params);
  const Bytes remote =
      client.compress(data.data(), data.size() * 4, DType::F32, EbType::ABS, 1e-3);
  EXPECT_EQ(remote, local);
}

TEST(NetLoopback, DrainFinishesInflightAndRejectsNew) {
  net::Server::Options opts;
  opts.threads = 1;
  HeldServer held(opts);
  TestServer& ts = held.ts;

  const std::vector<float> data = make_f32(1024);
  pfpl::Params params;
  params.eb = EbType::ABS;
  params.eps = 1e-3;
  const Bytes local = pfpl::compress(Field(data.data(), data.size()), params);

  // A raw connection with one COMPRESS held in flight. The in-flight bytes
  // keep this connection alive across the drain (idle conns are reaped).
  net::Socket sock = net::tcp_connect("127.0.0.1", ts.server.port(), 5000);
  net::FrameHeader h;
  h.op = static_cast<u8>(net::Op::Compress);
  h.dtype = static_cast<u8>(DType::F32);
  h.eb_type = static_cast<u8>(EbType::ABS);
  h.eps = 1e-3;
  h.request_id = 1;
  const Bytes slow_req = net::encode_frame(h, data.data(), data.size() * 4);
  net::send_all(sock.fd(), slow_req.data(), slow_req.size(), 5000);
  ASSERT_TRUE(held.gs.ops.wait_held());

  // Drain begins while request 1 is still on its worker.
  net::Client ctl(ts.client_options());
  ctl.shutdown_server();
  EXPECT_TRUE(ts.server.stats().draining);

  // A NEW compress on the surviving connection is refused with the typed
  // Draining status, immediately — before the held request finishes.
  h.request_id = 2;
  net::Frame refused = raw_roundtrip(sock.fd(), net::encode_frame(h, data.data(), 64));
  EXPECT_EQ(refused.header.status, static_cast<u16>(net::Status::Draining));
  EXPECT_EQ(refused.header.request_id, 2u);

  // The in-flight request still completes, byte-identical to local.
  held.open();
  u8 hdr[net::kFrameHeaderSize];
  net::recv_all(sock.fd(), hdr, sizeof(hdr), 10000);
  net::FrameHeader rh = net::decode_frame_header(hdr);
  EXPECT_EQ(rh.status, static_cast<u16>(net::Status::Ok));
  EXPECT_EQ(rh.request_id, 1u);
  Bytes remote(static_cast<std::size_t>(rh.payload_len));
  net::recv_all(sock.fd(), remote.data(), remote.size(), 10000);
  EXPECT_EQ(remote, local);

  ts.thread.join();  // run() returns once the drain finishes
}

TEST(NetLoopback, ClientRetriesOnceAfterServerRestart) {
  net::Server::Options opts;
  auto ts1 = std::make_unique<TestServer>(opts);
  const u16 port = ts1->server.port();

  net::Client::Options copts;
  copts.host = "127.0.0.1";
  copts.port = port;
  net::Client client(copts);
  client.ping();
  EXPECT_EQ(client.reconnects(), 0u);

  // Kill the server; SO_REUSEADDR lets a fresh one take the same port.
  ts1.reset();
  opts.port = port;
  TestServer ts2(opts);

  // The old connection is dead; the client must reconnect + retry once.
  client.ping();
  EXPECT_EQ(client.reconnects(), 1u);
}

// ---------------------------------------------------------------------------
// Wire bytes: the scatter-gather sends of the client and the server put on
// the socket exactly what encode_frame() builds.

namespace {

/// Receive `n` bytes, at most `piece` per read.
void recv_pieces(int fd, u8* p, std::size_t n, std::size_t piece) {
  for (std::size_t at = 0; at < n; at += piece) {
    piece = std::min(piece, n - at);
    net::recv_all(fd, p + at, piece, 10000);
  }
}

/// One whole frame as the raw bytes that crossed the socket.
Bytes recv_frame_bytes(int fd, std::size_t piece) {
  Bytes out(net::kFrameHeaderSize);
  recv_pieces(fd, out.data(), out.size(), piece);
  const auto len = static_cast<std::size_t>(net::decode_frame_header(out.data()).payload_len);
  out.resize(out.size() + len);
  recv_pieces(fd, out.data() + net::kFrameHeaderSize, len, piece);
  return out;
}

/// Shrunk send and receive buffers. With them, and with reads of 997 bytes
/// on the other end, a 4 MiB frame leaves in many short sendmsg counts.
/// (At a few KiB, TCP's small-window stalls make the test take minutes.)
void shrink_buffers(int fd) {
  const int small = 64 << 10;
  ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &small, sizeof small);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &small, sizeof small);
}

net::FrameHeader response_header(net::Op op, u64 id) {
  net::FrameHeader h;
  h.op = static_cast<u8>(op) | net::kResponseBit;
  h.request_id = id;
  return h;
}

}  // namespace

TEST(NetWire, ScatterGatherBytesEqualEncodeFrame) {
  const std::vector<float> data = make_f32(((4u << 20) + 12) / 4, 3);
  const std::size_t raw_n = data.size() * 4;
  const auto* raw_p = reinterpret_cast<const u8*>(data.data());
  pfpl::Params params;
  params.eb = EbType::ABS;
  params.eps = 1e-3;
  const Bytes stream = pfpl::compress(Field(data.data(), data.size()), params);
  const std::vector<u8> raw = pfpl::decompress(stream);
  const pfpl::Header sh = pfpl::peek_header(stream);

  for (const bool shrunk : {false, true}) {
    SCOPED_TRACE(shrunk ? "SO_SNDBUF shrunk" : "default buffers");
    const std::size_t piece = shrunk ? 997 : std::size_t{1} << 20;

    // Client requests, captured by a bare listener that answers by hand.
    {
      net::Socket lst = net::tcp_listen("127.0.0.1", 0);
      if (shrunk) shrink_buffers(lst.fd());  // an accepted socket inherits them
      net::Client::Options o;
      o.port = net::local_port(lst);
      o.max_attempts = 1;
      net::Client client(o);
      auto compressed = std::async(std::launch::async, [&] {
        return client.compress(data.data(), raw_n, DType::F32, EbType::ABS, 1e-3);
      });
      pollfd pl{lst.fd(), POLLIN, 0};
      ASSERT_EQ(::poll(&pl, 1, 10000), 1);
      net::Socket peer(::accept(lst.fd(), nullptr, nullptr));
      ASSERT_TRUE(peer.valid());

      const Bytes req = recv_frame_bytes(peer.fd(), piece);
      net::FrameHeader want;
      want.op = static_cast<u8>(net::Op::Compress);
      want.dtype = static_cast<u8>(DType::F32);
      want.eb_type = static_cast<u8>(EbType::ABS);
      want.eps = 1e-3;
      want.request_id = net::decode_frame_header(req.data()).request_id;
      EXPECT_TRUE(req == net::encode_frame(want, raw_p, raw_n)) << "COMPRESS request";
      const Bytes ok =
          net::encode_frame(response_header(net::Op::Compress, want.request_id), stream);
      net::send_all(peer.fd(), ok.data(), ok.size(), 10000);
      EXPECT_TRUE(compressed.get() == stream);

      auto decompressed =
          std::async(std::launch::async, [&] { return client.decompress(stream); });
      const Bytes dreq = recv_frame_bytes(peer.fd(), piece);
      want = {};
      want.op = static_cast<u8>(net::Op::Decompress);
      want.request_id = net::decode_frame_header(dreq.data()).request_id;
      EXPECT_TRUE(dreq == net::encode_frame(want, stream)) << "DECOMPRESS request";
      const Bytes dok =
          net::encode_frame(response_header(net::Op::Decompress, want.request_id), raw);
      net::send_all(peer.fd(), dok.data(), dok.size(), 10000);
      EXPECT_TRUE(decompressed.get() == raw);
    }

    // Server responses to four pipelined requests, matched by request id:
    // the pool may answer COMPRESS and DECOMPRESS in either order. The
    // requests leave as one gathered send of eight parts, so with shrunk
    // buffers its short counts fall inside any of them.
    TestServer ts;
    net::Socket sock = net::tcp_connect("127.0.0.1", ts.server.port(), 5000);
    if (shrunk) shrink_buffers(sock.fd());
    net::FrameHeader c;
    c.op = static_cast<u8>(net::Op::Compress);
    c.dtype = static_cast<u8>(DType::F32);
    c.eb_type = static_cast<u8>(EbType::ABS);
    c.eps = 1e-3;
    c.request_id = 11;
    net::FrameHeader d;
    d.op = static_cast<u8>(net::Op::Decompress);
    d.request_id = 12;
    net::FrameHeader ping;
    ping.op = static_cast<u8>(net::Op::Ping);
    ping.request_id = 13;
    net::FrameHeader bad = c;
    bad.dtype = 9;
    bad.request_id = 14;
    const std::string echo = "ping body";
    std::vector<net::WireFrame> reqs;
    reqs.push_back(net::wire_frame(c, Bytes(raw_p, raw_p + raw_n)));
    reqs.push_back(net::wire_frame(d, stream));
    reqs.push_back(net::wire_frame(ping, Bytes(echo.begin(), echo.end())));
    reqs.push_back(net::wire_frame(bad, Bytes(64)));
    std::vector<iovec> parts;
    for (net::WireFrame& w : reqs) {
      parts.push_back({w.head.data(), w.head.size()});
      parts.push_back({w.body.data(), w.body.size()});
    }
    const Bytes flat = net::encode_frame(c, raw_p, raw_n);
    EXPECT_TRUE(std::equal(reqs[0].head.begin(), reqs[0].head.end(), flat.begin()));
    auto sent = std::async(std::launch::async, [&] {
      net::send_all(sock.fd(), parts.data(), parts.size(), 10000);
    });

    net::FrameHeader c_ok = c;
    c_ok.op |= net::kResponseBit;
    net::FrameHeader d_ok = response_header(net::Op::Decompress, 12);
    d_ok.dtype = static_cast<u8>(sh.dtype);
    d_ok.eb_type = static_cast<u8>(sh.eb_type);
    d_ok.eps = sh.eps;
    std::map<u64, Bytes> want = {
        {11, net::encode_frame(c_ok, stream)},
        {12, net::encode_frame(d_ok, raw)},
        {13, net::encode_frame(response_header(net::Op::Ping, 13), echo.data(), echo.size())},
        {14, net::encode_error_frame(14, c.op, net::Status::BadParams, "unknown dtype/eb_type")}};
    for (std::size_t i = 0; i < want.size(); ++i) {
      const Bytes got = recv_frame_bytes(sock.fd(), piece);
      const u64 id = net::decode_frame_header(got.data()).request_id;
      ASSERT_EQ(want.count(id), 1u) << "response id " << id;
      EXPECT_TRUE(got == want[id]) << "response to request " << id;
    }
    sent.get();
  }

  // Where a short write falls is the kernel's choice, so resuming is also
  // checked at fixed cuts: inside the header, at its end, inside the body.
  // The first `cut` bytes go by hand, then send_gather() continues from
  // there, as flush_out() and send_all() do after a short count.
  const net::WireFrame frame = net::wire_frame(response_header(net::Op::Compress, 21), stream);
  const Bytes whole = net::encode_frame(response_header(net::Op::Compress, 21), stream);
  const iovec parts[2] = {{const_cast<u8*>(frame.head.data()), frame.head.size()},
                          {const_cast<u8*>(frame.body.data()), frame.body.size()}};
  for (const std::size_t cut : {std::size_t{1}, std::size_t{39}, net::kFrameHeaderSize,
                                net::kFrameHeaderSize + 1, whole.size() / 2, whole.size() - 1}) {
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv), 0);
    net::Socket a(sv[0]), b(sv[1]);
    auto got = std::async(std::launch::async, [&] {
      Bytes out(whole.size());
      net::recv_all(b.fd(), out.data(), out.size(), 10000);
      return out;
    });
    net::send_all(a.fd(), whole.data(), cut, 10000);
    for (std::size_t sent = cut; sent < whole.size();) {
      const ssize_t rc = net::send_gather(a.fd(), parts, 2, sent);
      ASSERT_GE(rc, 0) << "cut " << cut;
      if (rc == 0) {
        pollfd pw{a.fd(), POLLOUT, 0};
        ::poll(&pw, 1, 1000);
      }
      sent += static_cast<std::size_t>(rc);
    }
    EXPECT_TRUE(got.get() == whole) << "resumed at byte " << cut;
  }
}

// ---------------------------------------------------------------------------
// Live introspection: request-scoped tracing, the METRICS op, the HTTP
// scrape listener, slow-request capture, and client request-id hygiene.

namespace {

/// Save/restore the global observability switch (same idiom as test_obs).
struct ObsGuard {
  explicit ObsGuard(bool on) : prev(obs::enabled()) { obs::set_enabled(on); }
  ~ObsGuard() { obs::set_enabled(prev); }
  bool prev;
};

/// Minimal HTTP/1.0-style GET against the server's metrics listener: one
/// request, read to EOF (the server answers Connection: close).
std::string http_get(u16 port, const std::string& path) {
  net::Socket sock = net::tcp_connect("127.0.0.1", port, 5000);
  const std::string req = "GET " + path + " HTTP/1.1\r\nHost: x\r\n\r\n";
  net::send_all(sock.fd(), req.data(), req.size(), 5000);
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(sock.fd(), buf, sizeof buf, 0);
    if (n <= 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  return out;
}

/// Parse a Prometheus text document: every "# TYPE" family must be unique
/// and every sample line's value must parse as a number. Returns the sample
/// value for `name` (exact match before the space), or -1 if absent.
double check_prom_text(const std::string& text, const std::string& name) {
  std::set<std::string> families;
  double found = -1;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line.rfind("# TYPE ", 0) == 0) {
      const std::string fam = line.substr(7, line.find(' ', 7) - 7);
      EXPECT_TRUE(families.insert(fam).second) << "duplicate family " << fam;
      continue;
    }
    if (line[0] == '#') continue;
    const std::size_t sp = line.rfind(' ');
    if (sp == std::string::npos) {
      ADD_FAILURE() << "sample line without a value: " << line;
      continue;
    }
    double v = 0;
    try {
      v = std::stod(line.substr(sp + 1));
    } catch (const std::exception&) {
      ADD_FAILURE() << "sample value does not parse: " << line;
      continue;
    }
    if (line.compare(0, sp, name) == 0) found = v;
  }
  return found;
}

}  // namespace

// Acceptance criterion: a single request's timeline is reconstructible from
// the Chrome trace — net (loop thread), svc (pool worker), and core
// (compressor) spans all carry the client's request_id.
TEST(NetIntrospection, RequestScopedTraceSharesRequestId) {
  ObsGuard guard(true);
  auto& rec = obs::TraceRecorder::global();
  rec.clear();
  u64 id = 0;
  {
    TestServer ts;
    net::Client client(ts.client_options());
    const std::vector<float> data = make_f32(2048);
    client.compress(data.data(), data.size() * 4, DType::F32, EbType::ABS, 1e-3);
    id = client.last_request_id();
  }
  ASSERT_NE(id, 0u);

  // Read the ids back out of the Chrome JSON itself — the artifact an
  // operator loads — not out of internal recorder state. (Ids are compared
  // as doubles because that is what a JSON reader sees; both sides round
  // the same 64-bit integer the same way.)
  obs::JsonValue doc = obs::parse_json(rec.chrome_json());
  std::set<std::string> with_id;
  for (const obs::JsonValue& ev : doc.at("traceEvents").arr) {
    if (!ev.has("args") || !ev.at("args").has("request_id")) continue;
    if (ev.at("args").at("request_id").num == static_cast<double>(id))
      with_id.insert(ev.at("name").str);
  }
  std::string names;  // the failure message: every span that carries the id
  for (const std::string& n : with_id) names += n + " ";
  EXPECT_TRUE(with_id.count("net.handle_frame")) << names;
  EXPECT_TRUE(with_id.count("net.work.compress")) << names;
  EXPECT_TRUE(with_id.count("svc.pool.task")) << names;
  EXPECT_TRUE(with_id.count("pfpl.compress")) << names;
  rec.clear();
}

// Acceptance criterion: `pfpl remote metrics` (the METRICS op) and the HTTP
// GET /metrics listener return consistent counters, in both formats.
TEST(NetIntrospection, MetricsOpJsonPromAndHttpConsistent) {
  ObsGuard guard(true);
  net::Server::Options opts;
  opts.metrics_port = 0;  // ephemeral HTTP listener on the same loop
  TestServer ts(opts);
  ASSERT_NE(ts.server.metrics_port(), 0);
  net::Client client(ts.client_options());
  const std::vector<float> data = make_f32(1024);
  client.compress(data.data(), data.size() * 4, DType::F32, EbType::ABS, 1e-3);

  obs::JsonValue doc = obs::parse_json(client.metrics(false));
  EXPECT_EQ(doc.at("schema").str, "pfpl-metrics/1");
  ASSERT_TRUE(doc.has("metrics"));
  ASSERT_TRUE(doc.has("stats"));
  ASSERT_TRUE(doc.at("stats").has("slow_requests"));
  EXPECT_FALSE(doc.has("slow_requests"));  // serialized once, inside stats
  EXPECT_GE(doc.at("stats").at("requests_compress").num, 1.0);
  const double json_requests =
      doc.at("metrics").at("counters").at("net.requests").num;

  // net.requests counts only pooled ops, so scrapes between the reads can't
  // perturb the comparison.
  const double prom_requests =
      check_prom_text(client.metrics(true), "pfpl_net_requests_total");
  EXPECT_EQ(prom_requests, json_requests);

  const std::string http = http_get(ts.server.metrics_port(), "/metrics");
  EXPECT_NE(http.find("HTTP/1.1 200"), std::string::npos) << http.substr(0, 120);
  EXPECT_NE(http.find("text/plain; version=0.0.4"), std::string::npos);
  const std::size_t body_at = http.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  const double http_requests =
      check_prom_text(http.substr(body_at + 4), "pfpl_net_requests_total");
  EXPECT_EQ(http_requests, json_requests);

  // The JSON variant and the stats page serve over HTTP too.
  const std::string hj = http_get(ts.server.metrics_port(), "/metrics.json");
  EXPECT_NE(hj.find("application/json"), std::string::npos);
  EXPECT_NE(hj.find("pfpl-metrics/1"), std::string::npos);
  EXPECT_NE(http_get(ts.server.metrics_port(), "/nope").find("404"),
            std::string::npos);

  ts.stop();
  EXPECT_GE(ts.server.stats().metrics_scrapes, 4u);  // 2 op + 2 HTTP /metrics*
}

// The flight-recorder ring is gone: its METRICS selector is an unknown
// format and its HTTP path an unknown path, and the connection survives.
TEST(NetIntrospection, RetiredHistorySurfaceIsRefused) {
  net::Server::Options opts;
  opts.metrics_port = 0;
  TestServer ts(opts);
  net::Socket sock = net::tcp_connect("127.0.0.1", ts.server.port(), 5000);
  net::FrameHeader h;
  h.op = static_cast<u8>(net::Op::Metrics);
  h.request_id = 5;
  const std::string history = "history";
  const net::Frame err = raw_roundtrip(sock.fd(), net::encode_frame(h, history.data(),
                                                                     history.size()));
  EXPECT_EQ(err.header.status, static_cast<u16>(net::Status::BadParams));
  const std::string text(err.payload.begin(), err.payload.end());
  EXPECT_NE(text.find("unknown metrics format 'history'"), std::string::npos) << text;
  h.request_id = 6;
  const net::Frame ok = raw_roundtrip(sock.fd(), net::encode_frame(h, nullptr, 0));
  EXPECT_EQ(ok.header.status, static_cast<u16>(net::Status::Ok));
  EXPECT_EQ(obs::parse_json(std::string(ok.payload.begin(), ok.payload.end())).at("schema").str,
            "pfpl-metrics/1");
  const std::string http = http_get(ts.server.metrics_port(), "/history");
  EXPECT_EQ(http.rfind("HTTP/1.1 404", 0), 0u) << http.substr(0, 120);
}

// Satellite: scraping under concurrent traffic always yields a parseable
// document, and the counters in it never go backwards.
TEST(NetIntrospection, ConcurrentScrapesSeeMonotonicCounters) {
  ObsGuard guard(true);
  TestServer ts;
  std::atomic<bool> stop{false};
  std::thread traffic([&] {
    net::Client c(ts.client_options());
    const std::vector<float> data = make_f32(512);
    while (!stop.load(std::memory_order_relaxed))
      c.compress(data.data(), data.size() * 4, DType::F32, EbType::ABS, 1e-2);
  });
  net::Client scraper(ts.client_options());
  double last_frames = 0, last_requests = 0;
  for (int i = 0; i < 20; ++i) {
    obs::JsonValue doc = obs::parse_json(scraper.metrics(false));
    const double frames = doc.at("stats").at("frames_rx").num;
    const double requests = doc.at("stats").at("requests_compress").num;
    EXPECT_GE(frames, last_frames);
    EXPECT_GE(requests, last_requests);
    last_frames = frames;
    last_requests = requests;
  }
  stop.store(true);
  traffic.join();
  EXPECT_GT(last_frames, 0.0);
}

// Satellite: with observability disabled the scrape still serves a valid
// (possibly empty) document, the always-live stats block still moves, and
// the obs-gated histograms record nothing.
TEST(NetIntrospection, DisabledObservabilityScrapeValidAndRecordsNothing) {
  ObsGuard guard(false);
  obs::Histogram& request_us =
      obs::MetricsRegistry::global().histogram("net.request_us");
  const u64 before = request_us.count();
  TestServer ts;
  net::Client client(ts.client_options());
  const std::vector<float> data = make_f32(1024);
  client.compress(data.data(), data.size() * 4, DType::F32, EbType::ABS, 1e-3);

  obs::JsonValue doc = obs::parse_json(client.metrics(false));
  EXPECT_EQ(doc.at("schema").str, "pfpl-metrics/1");
  ASSERT_TRUE(doc.at("metrics").is_object());  // valid-but-idle registry dump
  EXPECT_GE(doc.at("stats").at("requests_compress").num, 1.0);
  check_prom_text(client.metrics(true), "");  // prom variant stays well-formed
  EXPECT_EQ(request_us.count(), before);  // zero recording while disabled
}

// Tentpole: requests over --slow-ms land in the slow ring with their
// request_id and per-stage micros, visible through STATS.
TEST(NetIntrospection, SlowRequestCaptureRingInStats) {
  net::Server::Options opts;
  opts.slow_ms = 1;
  HeldServer held(opts);
  net::Client client(held.ts.client_options());
  const std::vector<float> data = make_f32(1024);
  auto reply = std::async(std::launch::async, [&] {
    return client.compress(data.data(), data.size() * 4, DType::F32, EbType::ABS, 1e-3);
  });
  // The gate keeps the request on its worker until the test has seen it
  // there for 5 ms; the ring must charge that time to work.
  ASSERT_TRUE(held.gs.ops.wait_held());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  held.open();
  reply.get();
  const u64 id = client.last_request_id();

  obs::JsonValue doc = obs::parse_json(client.stats());
  EXPECT_GE(doc.at("slow_requests_captured").num, 1.0);
  ASSERT_FALSE(doc.at("slow_requests").arr.empty());
  const obs::JsonValue& worst = doc.at("slow_requests").arr[0];
  EXPECT_EQ(worst.at("op").str, "COMPRESS");
  EXPECT_GE(worst.at("total_us").num, 5000.0);
  EXPECT_EQ(worst.at("request_id").num, static_cast<double>(id));
  EXPECT_GE(worst.at("work_us").num, 5000.0);  // the held append is work
}

// A connection reset while its request is in the pool must not leave its
// bytes in the net.inflight_bytes gauge: the gauge tracks the live count.
TEST(NetIntrospection, InflightGaugeReturnsToZeroWhenConnDies) {
  ObsGuard guard(true);
  obs::Gauge& gauge = obs::MetricsRegistry::global().gauge("net.inflight_bytes");
  obs::Histogram& request_us =
      obs::MetricsRegistry::global().histogram("net.request_us");
  const u64 finished = request_us.count();
  net::Server::Options opts;
  opts.threads = 1;
  HeldServer held(opts);
  TestServer& ts = held.ts;

  const std::vector<float> data = make_f32(1024);
  net::Socket sock = net::tcp_connect("127.0.0.1", ts.server.port(), 5000);
  net::FrameHeader h;
  h.op = static_cast<u8>(net::Op::Compress);
  h.eps = 1e-3;
  h.request_id = 1;
  const Bytes req = net::encode_frame(h, data.data(), data.size() * 4);
  net::send_all(sock.fd(), req.data(), req.size(), 5000);
  for (int i = 0; i < 500 && ts.server.stats().inflight_bytes == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ASSERT_EQ(ts.server.stats().inflight_bytes, data.size() * 4);
  ASSERT_TRUE(held.gs.ops.wait_held());

  // Reset (not FIN) the connection: the loop sees POLLERR and closes it
  // while the held request is still on the worker.
  const linger rst{1, 0};
  ASSERT_EQ(::setsockopt(sock.fd(), SOL_SOCKET, SO_LINGER, &rst, sizeof rst), 0);
  sock.close();
  for (int i = 0; i < 1000 && ts.server.stats().connections_current != 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_EQ(held.gs.ops.held(), 1u) << "the request left its worker before the reset";
  held.open();
  for (int i = 0; i < 1000 && request_us.count() == finished; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ASSERT_EQ(ts.server.stats().connections_current, 0u);
  ASSERT_EQ(request_us.count(), finished + 1) << "the held request never finished";

  EXPECT_EQ(ts.server.stats().inflight_bytes, 0u);
  EXPECT_EQ(gauge.value(), 0);
}

// Satellite: ids are unique per client instance (seeded counter), distinct
// across instances, and quoted in RemoteError text for correlation.
TEST(NetIntrospection, ClientRequestIdsUniqueAndQuotedInErrors) {
  TestServer ts;
  const std::vector<float> data = make_f32(64);
  auto fail_id = [&](net::Client& c) -> std::pair<u64, std::string> {
    try {
      // eps < 0 is rejected by the compressor: deterministic RemoteError.
      c.compress(data.data(), data.size() * 4, DType::F32, EbType::ABS, -1.0);
    } catch (const net::RemoteError& e) {
      return {c.last_request_id(), e.what()};
    }
    return {0, "no error raised"};
  };
  net::Client a(ts.client_options());
  net::Client b(ts.client_options());
  const auto [id_a, what_a] = fail_id(a);
  const auto [id_b, what_b] = fail_id(b);
  ASSERT_NE(id_a, 0u);
  ASSERT_NE(id_b, 0u);
  EXPECT_NE(id_a, id_b);  // per-instance seeding: disjoint ranges
  EXPECT_NE(what_a.find("(request_id " + std::to_string(id_a) + ")"),
            std::string::npos)
      << what_a;
  EXPECT_NE(what_b.find("(request_id " + std::to_string(id_b) + ")"),
            std::string::npos)
      << what_b;
  const auto [id_a2, what_a2] = fail_id(a);
  (void)what_a2;
  EXPECT_NE(id_a2, id_a);  // consecutive ids from one client differ too
}

// ---------------------------------------------------------------------------
// Retry policy (Client::Options::max_attempts)

/// A port with nothing listening: bind an ephemeral listener, note the
/// port, close it.
u16 dead_port() {
  net::Socket l = net::tcp_listen("127.0.0.1", 0, 1);
  return net::local_port(l);
}

TEST(NetRetry, MaxAttemptsAreHonoredAgainstDeadServer) {
  net::Client::Options o;
  o.host = "127.0.0.1";
  o.port = dead_port();
  o.max_attempts = 4;
  o.connect_timeout_ms = 500;
  net::Client c(o);
  EXPECT_THROW(c.ping(), net::NetError);
  EXPECT_EQ(c.attempts(), 4u);
  EXPECT_EQ(c.requests(), 0u);
}

TEST(NetRetry, OneMaxAttemptMeansExactlyOneAttempt) {
  // max_attempts = 1 is the fail-fast setting; 0 is clamped to it.
  for (unsigned max_attempts : {1u, 0u}) {
    net::Client::Options o;
    o.host = "127.0.0.1";
    o.port = dead_port();
    o.max_attempts = max_attempts;
    o.connect_timeout_ms = 500;
    net::Client c(o);
    EXPECT_THROW(c.ping(), net::NetError);
    EXPECT_EQ(c.attempts(), 1u) << "max_attempts=" << max_attempts;
  }
}

TEST(NetRetry, RemoteErrorIsNeverRetried) {
  // Regression guard: a typed server refusal must not burn retry attempts —
  // the server answered, repeating the request would repeat the refusal.
  TestServer ts;
  net::Client::Options o = ts.client_options();
  o.max_attempts = 5;
  net::Client c(o);
  const std::vector<float> data = make_f32(64);
  EXPECT_THROW(
      c.compress(data.data(), data.size() * 4, DType::F32, EbType::ABS, -1.0),
      net::RemoteError);
  EXPECT_EQ(c.attempts(), 1u);
}

// ---------------------------------------------------------------------------
// Event backend + accept-path resilience

TEST(NetPoller, EpollBackendIsTheLinuxDefault) {
  // epoll is the only event backend: a default server must serve a
  // round trip byte-identical to the local codec.
  TestServer ts;
  net::Client client(ts.client_options());
  client.ping();
  const std::vector<float> data = make_f32(2048);
  pfpl::Params params;
  params.eps = 1e-3;
  const Bytes local = pfpl::compress(Field(data.data(), data.size()), params);
  const Bytes remote =
      client.compress(data.data(), data.size() * 4, DType::F32, EbType::ABS, 1e-3);
  EXPECT_EQ(remote, local);
  EXPECT_EQ(client.decompress(remote), pfpl::decompress(local));
}

TEST(NetServer, MaxConnsDefersExtraConnections) {
  net::Server::Options o;
  o.max_conns = 1;
  TestServer ts(o);

  net::Client a(ts.client_options());
  a.ping();  // occupies the single slot

  // A second connection sits in the kernel backlog: its request is not
  // answered while the slot is taken.
  net::Client::Options bo = ts.client_options();
  bo.max_attempts = 1;
  bo.request_timeout_ms = 300;
  net::Client b(bo);
  EXPECT_THROW(b.ping(), net::NetError);

  // Freeing the slot lets the next connection in.
  a = net::Client(ts.client_options());  // old connection closed by move-assign
  net::Client c(ts.client_options());
  // Two live clients would exceed the cap; use just the new one.
  c.ping();
}

TEST(NetServer, AcceptShedsGracefullyOnFdExhaustion) {
  net::Server::Options o;
  o.metrics_port = 0;  // the HTTP /metrics listener must shed too
  TestServer ts(o);
  net::Client ok(ts.client_options());
  ok.ping();  // an established connection keeps working throughout

  // Hoard every spare fd, then hand exactly one back so a victim can
  // connect — the server's accept() then fails with EMFILE and must shed
  // (close the new conn) instead of dying or spinning. One victim per
  // listener, PFPN first, then HTTP on the same freed fd. Nothing may throw
  // while the hoard is held: sanitizer runtimes need a free fd to report,
  // so only plain syscalls run until the hoard is released.
  std::vector<int> hoard;
  for (;;) {
    const int fd = ::open("/dev/null", O_RDONLY);
    if (fd < 0) break;
    hoard.push_back(fd);
  }
  ASSERT_FALSE(hoard.empty());
  ::close(hoard.back());
  hoard.pop_back();

  struct Shed {
    bool connected = false;
    ssize_t got = -1;
    int err = 0;
    bool pinged = false;
  };
  auto shed = [&](u16 port) {
    Shed r;
    net::Socket victim;
    try {
      victim = net::tcp_connect("127.0.0.1", port, 2000);
      r.connected = true;
    } catch (...) {
    }
    // The shed closes the server's end: the victim reads EOF or ECONNRESET.
    if (r.connected) {
      pollfd p{victim.fd(), POLLIN, 0};
      if (::poll(&p, 1, 2000) == 1) {
        char byte;
        r.got = ::recv(victim.fd(), &byte, 1, 0);
        r.err = r.got < 0 ? errno : 0;
      }
    }
    // The loop answers this PING after the shed returned, so its reserve fd
    // is back before the victim's fd is freed for the next victim.
    try {
      ok.ping();
      r.pinged = true;
    } catch (...) {
    }
    return r;
  };
  const Shed pfpn = shed(ts.server.port());
  const Shed http = shed(ts.server.metrics_port());
  for (int fd : hoard) ::close(fd);

  for (const Shed& r : {pfpn, http}) {
    ASSERT_TRUE(r.connected);
    EXPECT_TRUE(r.got == 0 || (r.got < 0 && r.err == ECONNRESET)) << r.got << " " << r.err;
    EXPECT_TRUE(r.pinged);
  }
  EXPECT_EQ(ts.server.stats().accept_overloads, 2u);  // one shed per listener
  // The server survived: existing and brand-new connections both work, on
  // both listeners.
  ok.ping();
  net::Client fresh(ts.client_options());
  fresh.ping();
  EXPECT_NE(http_get(ts.server.metrics_port(), "/metrics").find("HTTP/1.1 200"),
            std::string::npos);
}

}  // namespace

// The op table's policy, one op at a time on a connection that a held
// in-flight COMPRESS keeps alive across the drain: pooled ops are refused
// with Draining, retired ops get BadFrame, everything else still answers,
// and every request frame with a known op is counted once on arrival.
TEST(NetServer, EveryOpHasATypedAnswerWhileDraining) {
  net::Server::Options opts;
  opts.threads = 1;
  HeldServer held(opts);
  TestServer& ts = held.ts;

  const std::vector<float> data = make_f32(256);
  net::Socket sock = net::tcp_connect("127.0.0.1", ts.server.port(), 5000);
  net::FrameHeader h;
  h.op = static_cast<u8>(net::Op::Compress);
  h.eps = 1e-3;
  h.request_id = 1;
  const Bytes slow_req = net::encode_frame(h, data.data(), data.size() * 4);
  net::send_all(sock.fd(), slow_req.data(), slow_req.size(), 5000);
  for (int i = 0; i < 500 && ts.server.stats().inflight_bytes == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ASSERT_TRUE(held.gs.ops.wait_held());
  net::Client ctl(ts.client_options());
  ctl.shutdown_server();
  ASSERT_TRUE(ts.server.stats().draining);
  const net::Server::Stats before = ts.server.stats();

  u64 id = 100;
  auto ask = [&](u8 op, const Bytes& payload) {
    net::FrameHeader q = h;
    q.op = op;
    q.request_id = ++id;
    const net::Frame r = raw_roundtrip(sock.fd(), net::encode_frame(q, payload));
    EXPECT_EQ(r.header.request_id, id) << "op " << int(op);
    return static_cast<net::Status>(r.header.status);
  };
  struct Case {
    net::Op op;
    std::size_t payload_bytes;
    net::Status want;
  };
  const Case cases[] = {
      {net::Op::Compress, 64, net::Status::Draining},
      {net::Op::Decompress, 64, net::Status::Draining},
      {net::Op::Ping, 0, net::Status::Ok},
      {net::Op::Stats, 0, net::Status::Ok},
      {net::Op::Metrics, 0, net::Status::Ok},
      {static_cast<net::Op>(7), 0, net::Status::BadFrame},  // retired op: unknown
      {static_cast<net::Op>(9), 16, net::Status::BadFrame},   // retired STREAM_OPEN
      {static_cast<net::Op>(10), 32, net::Status::BadFrame},  // retired STREAM_FRAME
      {static_cast<net::Op>(11), 8, net::Status::BadFrame},   // retired STREAM_CLOSE
      {net::Op::Shutdown, 0, net::Status::Ok},
      {static_cast<net::Op>(8), 0, net::Status::BadFrame},  // retired op: unknown
  };
  for (const Case& k : cases)
    EXPECT_EQ(ask(static_cast<u8>(k.op), Bytes(k.payload_bytes, 0)), k.want)
        << "op " << int(k.op);

  // An unknown op and a response frame are BadFrame; the connection stays.
  EXPECT_EQ(ask(0x30, {}), net::Status::BadFrame);
  EXPECT_EQ(ask(static_cast<u8>(net::Op::Ping) | net::kResponseBit, {}),
            net::Status::BadFrame);
  EXPECT_EQ(ask(static_cast<u8>(net::Op::Ping), {}), net::Status::Ok);

  const net::Server::Stats after = ts.server.stats();
  EXPECT_EQ(after.requests_compress - before.requests_compress, 1u);
  EXPECT_EQ(after.requests_decompress - before.requests_decompress, 1u);
  EXPECT_EQ(after.requests_other - before.requests_other, 5u);  // 4 cases + PING

  // The in-flight request still completes on the same connection.
  held.open();
  const net::Frame done = raw_roundtrip(sock.fd(), {}, 10000);
  EXPECT_EQ(done.header.status, static_cast<u16>(net::Status::Ok));
  EXPECT_EQ(done.header.request_id, 1u);
  ts.thread.join();
}
