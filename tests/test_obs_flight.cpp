// Tests for the flight-recorder subsystem added with kernel attribution:
// per-kernel nanosecond accounting, the stall watchdog, the async-signal-safe
// crash reporter (validated by actually crashing a forked child), the
// FlightRecorder ring + /history document round-trip, and the stall dump.
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "core/pfpl.hpp"
#include "json_value.hpp"
#include "obs/control.hpp"
#include "obs/crash.hpp"
#include "obs/flight.hpp"
#include "obs/kernels.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "svc/thread_pool.hpp"

using namespace repro;

namespace {

struct ObsGuard {
  explicit ObsGuard(bool on) : prev(obs::enabled()) { obs::set_enabled(on); }
  ~ObsGuard() { obs::set_enabled(prev); }
  bool prev;
};

std::vector<float> smooth(std::size_t n) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = static_cast<float>(i) * 0.001f + (i % 17) * 0.01f;
  return v;
}

}  // namespace

// ------------------------------------------------------ kernel attribution --

TEST(ObsKernels, AttributesAllEightKernelsOnRoundTrip) {
  ObsGuard guard(true);
  obs::MetricsRegistry::global().reset();
  auto v = smooth(1 << 16);
  Bytes c = pfpl::compress(Field(v.data(), v.size()), {1e-3, EbType::ABS});
  auto raw = pfpl::decompress(c);
  ASSERT_EQ(raw.size(), v.size() * sizeof(float));

  const std::vector<obs::KernelStat> stats = obs::kernel_stats();
  ASSERT_EQ(stats.size(), static_cast<std::size_t>(obs::kKernelCount));
  u64 encode_ns = 0;
  for (const obs::KernelStat& st : stats) {
    EXPECT_GT(st.calls, 0u) << st.name;
    EXPECT_EQ(st.bytes, v.size() * sizeof(float)) << st.name;
    if (st.encode) encode_ns += st.ns;
  }
  // The kernel spans nest inside the chunk span and share its clock, so the
  // attributed encode time never exceeds the per-chunk total.
  EXPECT_LE(encode_ns, obs::encode_chunk_ns());

  // The JSON parses and covers both directions.
  obs::JsonValue rep = obs::parse_json(obs::kernel_json());
  ASSERT_TRUE(rep.at("encode").is_array());
  ASSERT_TRUE(rep.at("decode").is_array());
  EXPECT_EQ(rep.at("encode").arr.size(), 4u);
  EXPECT_EQ(rep.at("decode").arr.size(), 4u);
  for (const obs::JsonValue& k : rep.at("encode").arr) {
    EXPECT_TRUE(k.has("name"));
    EXPECT_GT(k.at("calls").num, 0);
    EXPECT_GE(k.at("MBps").num, 0);
  }
  EXPECT_FALSE(obs::kernel_table_text().empty());
}

TEST(ObsKernels, TinyFieldRecordsNanoseconds) {
  // 64 f32 values: every kernel runs for well under a microsecond, which a
  // whole-microsecond timer floors to 0. The nanosecond sums stay above 0.
  ObsGuard guard(true);
  obs::MetricsRegistry::global().reset();
  auto v = smooth(64);
  Bytes c = pfpl::compress(Field(v.data(), v.size()), {1e-3, EbType::ABS});
  ASSERT_EQ(pfpl::decompress(c).size(), v.size() * sizeof(float));
  u64 encode_ns = 0;
  for (const obs::KernelStat& st : obs::kernel_stats()) {
    EXPECT_EQ(st.calls, 1u) << st.name;
    EXPECT_GT(st.ns, 0u) << st.name;
    if (st.encode) encode_ns += st.ns;
  }
  EXPECT_LE(encode_ns, obs::encode_chunk_ns());
}

TEST(ObsKernels, DisabledRecordsNothing) {
  ObsGuard guard(false);
  obs::MetricsRegistry::global().reset();
  auto v = smooth(1 << 12);
  Bytes c = pfpl::compress(Field(v.data(), v.size()), {1e-3, EbType::ABS});
  (void)pfpl::decompress(c);
  for (const obs::KernelStat& st : obs::kernel_stats()) {
    EXPECT_EQ(st.calls, 0u) << st.name;
    EXPECT_EQ(st.ns, 0u) << st.name;
  }
  EXPECT_EQ(obs::encode_chunk_ns(), 0u);
  EXPECT_TRUE(obs::kernel_table_text().empty());
}

// --------------------------------------------------------------- watchdog ---

TEST(Watchdog, DetectsStallOncePerBusySpan) {
  obs::Watchdog& wd = obs::Watchdog::global();
  wd.reset_for_tests();
  const int slot = wd.register_slot("test.worker");
  ASSERT_GE(slot, 0);
  wd.arm(20);  // 20 ms threshold

  wd.begin(slot, 777);
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  std::vector<obs::Watchdog::Stall> stalls = wd.check();
  ASSERT_EQ(stalls.size(), 1u);
  EXPECT_EQ(stalls[0].slot, "test.worker");
  EXPECT_GE(stalls[0].busy_ms, 20u);
  EXPECT_EQ(stalls[0].detail, 777u);

  // Same busy span: already reported, not re-reported.
  EXPECT_TRUE(wd.check().empty());
  wd.end(slot);

  // A new span re-arms the report.
  wd.begin(slot, 778);
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  stalls = wd.check();
  ASSERT_EQ(stalls.size(), 1u);
  EXPECT_EQ(stalls[0].detail, 778u);
  wd.end(slot);
  EXPECT_EQ(wd.stalls_detected(), 2u);
  wd.reset_for_tests();
}

TEST(Watchdog, IdleOrFastSpansNeverReport) {
  obs::Watchdog& wd = obs::Watchdog::global();
  wd.reset_for_tests();
  const int slot = wd.register_slot("test.fast");
  ASSERT_GE(slot, 0);
  wd.arm(200);
  EXPECT_TRUE(wd.check().empty());  // idle slot
  wd.begin(slot, 1);
  EXPECT_TRUE(wd.check().empty());  // busy but within threshold
  wd.end(slot);
  EXPECT_TRUE(wd.check().empty());
  EXPECT_EQ(wd.stalls_detected(), 0u);
  wd.reset_for_tests();
}

TEST(Watchdog, DisarmedScopeIsInert) {
  obs::Watchdog& wd = obs::Watchdog::global();
  wd.reset_for_tests();
  EXPECT_FALSE(wd.armed());
  const int slot = wd.register_slot("test.inert");
  {
    obs::StallScope scope(slot, 42);  // disarmed: no begin recorded
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  wd.arm(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_TRUE(wd.check().empty());  // the scope never registered a start
  wd.reset_for_tests();
}

// A pool task names the request it serves even with obs off: the pool
// carries the submitter's TraceContext id, and the watchdog reports it as
// the stall's detail.
TEST(Watchdog, StallDetailIsRequestIdWithObsOff) {
  ObsGuard guard(false);
  obs::Watchdog& wd = obs::Watchdog::global();
  wd.reset_for_tests();
  wd.arm(20);
  svc::ThreadPool pool(1);
  {
    obs::TraceContext::Scope ctx(42);
    pool.submit([] { std::this_thread::sleep_for(std::chrono::milliseconds(100)); });
  }
  std::vector<obs::Watchdog::Stall> stalls;
  for (int i = 0; i < 200 && stalls.empty(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    stalls = wd.check();
  }
  pool.wait_idle();
  ASSERT_EQ(stalls.size(), 1u);
  EXPECT_EQ(stalls[0].slot, "svc.worker.0");
  EXPECT_EQ(stalls[0].detail, 42u);
  wd.reset_for_tests();
}

// ------------------------------------------------------------ crash report --

TEST(CrashHandler, ForkedChildCrashWritesParseableReport) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "pfpl_crash_test";
  std::error_code ec;
  fs::remove_all(dir, ec);

  obs::install_crash_handler(dir.string());
  ASSERT_TRUE(obs::crash_handler_installed());
  obs::set_crash_body(obs::minimal_crash_body() + ",\"marker\":\"unit-test\"");
  const std::string path = obs::crash_report_path();
  ASSERT_FALSE(path.empty());

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: inherits the handler and the pre-rendered body; dies by SIGSEGV
    // re-raise after the handler writes the report.
    ::raise(SIGSEGV);
    _exit(99);  // unreachable if the handler chain works
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGSEGV);

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::string doc((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  obs::JsonValue v = obs::parse_json(doc);
  EXPECT_EQ(v.at("schema").str, "pfpl-crash/1");
  EXPECT_EQ(v.at("marker").str, "unit-test");
  EXPECT_EQ(v.at("signal").str, "SIGSEGV");
  EXPECT_DOUBLE_EQ(v.at("signo").num, SIGSEGV);
  EXPECT_TRUE(v.at("build").has("compiler"));

  // Restore default dispositions so a later real crash in this binary is not
  // routed into the test directory.
  ::signal(SIGSEGV, SIG_DFL);
  ::signal(SIGABRT, SIG_DFL);
  ::signal(SIGBUS, SIG_DFL);
  fs::remove_all(dir, ec);
}

TEST(CrashHandler, MinimalBodyClosesToValidJson) {
  obs::JsonValue v = obs::parse_json(obs::minimal_crash_body() + "}");
  EXPECT_EQ(v.at("schema").str, "pfpl-crash/1");
  EXPECT_GT(v.at("pid").num, 0);
}

// -------------------------------------------------------- flight recorder ---

TEST(FlightRecorder, NotRunningUntilConfiguredAndStarted) {
  // Zero-footprint: merely linking the recorder must not spin up a thread.
  EXPECT_FALSE(obs::FlightRecorder::global().running());
}

TEST(FlightRecorder, HistoryDocumentRoundTripsAndRingIsBounded) {
  ObsGuard guard(true);
  obs::FlightRecorder& fr = obs::FlightRecorder::global();
  fr.clear();
  obs::FlightRecorder::Options o;
  o.interval_ms = 10;
  o.depth = 4;
  o.stats = [] { return std::string("{\"probe\":123}"); };
  fr.configure(o);

  obs::MetricsRegistry::global().reset();
  obs::MetricsRegistry::global().counter("flight.test.count").add(7);

  fr.start();
  EXPECT_TRUE(fr.running());
  // Ten manual samples on a depth-4 ring: the ring must cap, seq must keep
  // counting.
  for (int i = 0; i < 10; ++i) fr.sample_now();
  EXPECT_LE(fr.snapshot_count(), 4u);
  fr.stop();
  EXPECT_FALSE(fr.running());

  obs::JsonValue v = obs::parse_json(fr.history_json());
  EXPECT_EQ(v.at("schema").str, "pfpl-flight/1");
  EXPECT_FALSE(v.at("running").b);
  EXPECT_DOUBLE_EQ(v.at("depth").num, 4);
  const auto& snaps = v.at("snapshots").arr;
  ASSERT_GE(snaps.size(), 1u);
  ASSERT_LE(snaps.size(), 4u);
  double prev_seq = -1;
  for (const obs::JsonValue& s : snaps) {
    EXPECT_GT(s.at("seq").num, prev_seq);
    prev_seq = s.at("seq").num;
    EXPECT_GT(s.at("ts_ms").num, 0);
    // Each entry is a metrics snapshot: the registry and the caller's stats.
    EXPECT_EQ(s.at("schema").str, "pfpl-metrics/1");
    EXPECT_DOUBLE_EQ(s.at("metrics").at("counters").at("flight.test.count").num, 7);
    EXPECT_DOUBLE_EQ(s.at("stats").at("probe").num, 123);
  }
  fr.clear();
  EXPECT_EQ(fr.snapshot_count(), 0u);
}

// A stall dump is the history document at full depth, so the snapshots in it
// are metrics snapshots and its stalls_detected counts the stall.
TEST(FlightRecorder, StallDumpIsTheHistoryDocument) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "pfpl_stall_dump_test";
  std::error_code ec;
  fs::remove_all(dir, ec);
  obs::Watchdog& wd = obs::Watchdog::global();
  wd.reset_for_tests();
  obs::FlightRecorder& fr = obs::FlightRecorder::global();
  fr.clear();
  obs::FlightRecorder::Options o;
  o.stall_ms = 20;
  o.crash_dir = dir.string();
  fr.configure(o);

  fr.sample_now();  // one snapshot before the stall
  const int slot = wd.register_slot("test.stalled");
  {
    obs::StallScope scope(slot, 7);
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    fr.sample_now();
  }

  std::ifstream in(dir / "stall-1.json");
  ASSERT_TRUE(in.good());
  const std::string doc((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  obs::JsonValue v = obs::parse_json(doc);
  EXPECT_EQ(v.at("schema").str, "pfpl-flight/1");
  EXPECT_GE(v.at("stalls_detected").num, 1);
  const auto& snaps = v.at("snapshots").arr;
  ASSERT_EQ(snaps.size(), 2u);
  for (const obs::JsonValue& s : snaps) EXPECT_EQ(s.at("schema").str, "pfpl-metrics/1");

  fr.configure({});
  fr.clear();
  wd.reset_for_tests();
  fs::remove_all(dir, ec);
}

TEST(FlightRecorder, SamplerThreadSamplesOnItsOwn) {
  ObsGuard guard(true);
  obs::FlightRecorder& fr = obs::FlightRecorder::global();
  fr.clear();
  obs::FlightRecorder::Options o;
  o.interval_ms = 5;
  o.depth = 8;
  fr.configure(o);
  fr.start();
  // First sample is immediate; wait for at least one more from the cadence.
  for (int i = 0; i < 200 && fr.snapshot_count() < 2; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  fr.stop();
  EXPECT_GE(fr.snapshot_count(), 2u);
  fr.clear();
}
