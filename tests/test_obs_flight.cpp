// Tests for kernel attribution (per-kernel nanosecond accounting), the stall
// watchdog, the async-signal-safe crash reporter (validated by actually
// crashing a forked child), and the Sampler thread's stall reports.
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
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

/// Undo install_crash_handler(), so a later real crash in this binary is not
/// routed into a test directory.
void restore_default_signals() {
  ::signal(SIGSEGV, SIG_DFL);
  ::signal(SIGABRT, SIG_DFL);
  ::signal(SIGBUS, SIG_DFL);
}

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
  EXPECT_TRUE(wd.check().empty());  // an ended span never reports
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
  obs::set_crash_body(obs::crash_body() + ",\"marker\":\"unit-test\"");
  const fs::path path = dir / ("crash-" + std::to_string(::getpid()) + ".json");

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
  EXPECT_EQ(v.at("schema").str, "pfpl-metrics/1");
  const obs::JsonValue& crash = v.at("crash");
  EXPECT_EQ(crash.at("marker").str, "unit-test");
  EXPECT_EQ(crash.at("signal").str, "SIGSEGV");
  EXPECT_DOUBLE_EQ(crash.at("signo").num, SIGSEGV);
  EXPECT_TRUE(crash.at("build").has("compiler"));

  restore_default_signals();
  fs::remove_all(dir, ec);
}

// The body installed before any sampler tick, closed with the exact tail
// the handler writes for SIGSEGV.
TEST(CrashHandler, MinimalBodyClosesToValidJson) {
  const std::string tail = ",\"signal\":\"SIGSEGV\",\"signo\":11}}\n";
  obs::JsonValue v = obs::parse_json(obs::crash_body() + tail);
  EXPECT_EQ(v.at("schema").str, "pfpl-metrics/1");
  EXPECT_TRUE(v.at("metrics").is_object());
  const obs::JsonValue& crash = v.at("crash");
  EXPECT_GT(crash.at("pid").num, 0);
  EXPECT_EQ(crash.at("signal").str, "SIGSEGV");
  EXPECT_DOUBLE_EQ(crash.at("signo").num, 11);
  EXPECT_TRUE(crash.at("trace_tail").is_array());
}

// ---------------------------------------------------------------- sampler ---

namespace {

/// The parsed `<dir>/stall-1.json` once the sampler has renamed it into
/// place; a null value at the deadline.
obs::JsonValue wait_stall_report(const std::filesystem::path& dir) {
  const std::filesystem::path path = dir / "stall-1.json";
  for (int i = 0; i < 2000 && !std::filesystem::exists(path); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  std::ifstream in(path);
  if (!in.good()) return {};
  return obs::parse_json(
      std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>()));
}

}  // namespace

TEST(Sampler, NotRunningUntilStarted) {
  // Zero-footprint: constructing a sampler does not spin up a thread.
  obs::Sampler s;
  EXPECT_FALSE(s.running());
  s.start(0, "", nullptr);
  EXPECT_TRUE(s.running());
  s.stop();
  EXPECT_FALSE(s.running());
}

// A stall report is the metrics document (the registry and the caller's
// stats) with a `stall` member naming the stuck slot and its unit.
TEST(Sampler, StallReportIsAMetricsDocument) {
  namespace fs = std::filesystem;
  ObsGuard guard(true);
  const fs::path dir = fs::path(::testing::TempDir()) / "pfpl_stall_report_test";
  std::error_code ec;
  fs::remove_all(dir, ec);
  obs::Watchdog& wd = obs::Watchdog::global();
  wd.reset_for_tests();
  obs::MetricsRegistry::global().reset();
  obs::MetricsRegistry::global().counter("sampler.test.count").add(7);

  const int slot = wd.register_slot("test.stalled");
  obs::Sampler s;
  s.start(20, dir.string(), [] { return std::string("{\"probe\":123}"); });
  obs::JsonValue v;
  {
    obs::StallScope scope(slot, 7);
    v = wait_stall_report(dir);
  }
  s.stop();
  EXPECT_FALSE(wd.armed());

  ASSERT_TRUE(v.is_object()) << "no stall report in " << dir;
  EXPECT_EQ(v.at("schema").str, "pfpl-metrics/1");
  EXPECT_GT(v.at("ts_ms").num, 0);
  EXPECT_DOUBLE_EQ(v.at("metrics").at("counters").at("sampler.test.count").num, 7);
  EXPECT_DOUBLE_EQ(v.at("stats").at("probe").num, 123);
  const obs::JsonValue& stall = v.at("stall");
  EXPECT_DOUBLE_EQ(stall.at("threshold_ms").num, 20);
  ASSERT_EQ(stall.at("slots").arr.size(), 1u);
  const obs::JsonValue& row = stall.at("slots").arr[0];
  EXPECT_EQ(row.at("slot").str, "test.stalled");
  EXPECT_GE(row.at("busy_ms").num, 20);
  EXPECT_DOUBLE_EQ(row.at("detail").num, 7);

  wd.reset_for_tests();
  restore_default_signals();
  fs::remove_all(dir, ec);
}

// With nothing but the sampler thread checking, a pool task held past the
// threshold leaves a whole report that names its worker and request id, and
// no temporary file behind.
TEST(Sampler, WritesStallReportOnItsOwn) {
  namespace fs = std::filesystem;
  ObsGuard guard(false);
  const fs::path dir = fs::path(::testing::TempDir()) / "pfpl_stall_sampler_test";
  std::error_code ec;
  fs::remove_all(dir, ec);
  obs::Watchdog& wd = obs::Watchdog::global();
  wd.reset_for_tests();
  svc::ThreadPool pool(1);
  obs::Sampler s;
  s.start(20, dir.string(), nullptr);
  std::atomic<bool> release{false};
  {
    obs::TraceContext::Scope ctx(42);
    pool.submit([&] {
      while (!release.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });
  }
  const obs::JsonValue v = wait_stall_report(dir);
  release.store(true);
  pool.wait_idle();
  s.stop();

  ASSERT_TRUE(v.is_object()) << "no stall report in " << dir;
  EXPECT_EQ(v.at("schema").str, "pfpl-metrics/1");
  const auto& slots = v.at("stall").at("slots").arr;
  ASSERT_EQ(slots.size(), 1u);
  EXPECT_EQ(slots[0].at("slot").str, "svc.worker.0");
  EXPECT_DOUBLE_EQ(slots[0].at("detail").num, 42);
  EXPECT_FALSE(fs::exists(dir / "stall-1.json.tmp"));
  EXPECT_FALSE(fs::exists(dir / "stall-2.json"));  // one report per stalled unit

  wd.reset_for_tests();
  restore_default_signals();
  fs::remove_all(dir, ec);
}
