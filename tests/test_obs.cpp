// Tests for the observability subsystem: metric correctness under
// concurrency, histogram bucketing, Chrome-trace well-formedness (parsed
// back with the obs JSON parser), the disabled-mode zero-footprint
// guarantee, and the ThreadPool scheduler-counter invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.hpp"
#include "json_value.hpp"
#include "obs/control.hpp"
#include "obs/event_log.hpp"
#include "obs/exposition.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "svc/thread_pool.hpp"

using namespace repro;

namespace {

/// Every test must leave the global switch the way it found it (other tests
/// in this binary assert on both modes).
struct ObsGuard {
  explicit ObsGuard(bool on) : prev(obs::enabled()) { obs::set_enabled(on); }
  ~ObsGuard() { obs::set_enabled(prev); }
  bool prev;
};

}  // namespace

// ---------------------------------------------------------------- JSON -----

TEST(ObsJson, WriterEscapesAndParserRoundTrips) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("plain", "abc");
  w.kv("quoted", "a\"b\\c\nd\te");
  w.kv("num", 1.5);
  w.kv("neg", -3LL);
  w.kv("flag", true);
  w.key("arr").begin_array().value(1).value(2).end_array();
  w.end_object();

  obs::JsonValue v = obs::parse_json(w.str());
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.at("plain").str, "abc");
  EXPECT_EQ(v.at("quoted").str, "a\"b\\c\nd\te");
  EXPECT_DOUBLE_EQ(v.at("num").num, 1.5);
  EXPECT_DOUBLE_EQ(v.at("neg").num, -3);
  EXPECT_TRUE(v.at("flag").b);
  ASSERT_EQ(v.at("arr").arr.size(), 2u);
  EXPECT_DOUBLE_EQ(v.at("arr").arr[1].num, 2);
}

TEST(ObsJson, ParserRejectsMalformed) {
  EXPECT_THROW(obs::parse_json("{"), std::runtime_error);
  EXPECT_THROW(obs::parse_json("{\"a\":}"), std::runtime_error);
  EXPECT_THROW(obs::parse_json("[1,2,]x"), std::runtime_error);
  EXPECT_THROW(obs::parse_json("\"unterminated"), std::runtime_error);
  // Depth bomb must throw, not overflow the stack.
  std::string deep(1000, '[');
  EXPECT_THROW(obs::parse_json(deep), std::runtime_error);
}

// ------------------------------------------------------------- metrics -----

TEST(ObsMetrics, CounterSumsExactlyAcrossThreads) {
  ObsGuard guard(true);
  obs::Counter c;
  constexpr int kThreads = 8, kIncrements = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&c] {
      for (int i = 0; i < kIncrements; ++i) c.add(1);
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<u64>(kThreads) * kIncrements);
}

TEST(ObsMetrics, HistogramBucketBoundaries) {
  ObsGuard guard(true);
  obs::Histogram h({10, 100, 1000});
  // Boundary semantics: bucket i counts v <= bounds[i]; last bucket = rest.
  EXPECT_EQ(h.bucket_of(0), 0u);
  EXPECT_EQ(h.bucket_of(10), 0u);   // inclusive upper bound
  EXPECT_EQ(h.bucket_of(11), 1u);
  EXPECT_EQ(h.bucket_of(100), 1u);
  EXPECT_EQ(h.bucket_of(101), 2u);
  EXPECT_EQ(h.bucket_of(1000), 2u);
  EXPECT_EQ(h.bucket_of(1001), 3u);  // overflow bucket

  for (u64 v : {u64{5}, u64{10}, u64{11}, u64{100}, u64{5000}}) h.record(v);
  std::vector<u64> counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 0u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 5126u);
  EXPECT_EQ(h.min(), 5u);
  EXPECT_EQ(h.max(), 5000u);
  EXPECT_DOUBLE_EQ(h.mean(), 5126.0 / 5.0);
}

TEST(ObsMetrics, HistogramQuantiles) {
  ObsGuard guard(true);
  obs::Histogram empty({10, 100});
  EXPECT_EQ(empty.quantile(0.5), 0.0);  // no samples, nothing to estimate

  // All-identical samples: the interpolation clamps to the observed range,
  // so every quantile is exactly the value.
  obs::Histogram flat({10, 100});
  for (int i = 0; i < 100; ++i) flat.record(7);
  EXPECT_EQ(flat.p50(), 7.0);
  EXPECT_EQ(flat.p95(), 7.0);
  EXPECT_EQ(flat.p99(), 7.0);

  // Bimodal: 50 samples at 5 (bucket <=10), 50 at 500 (bucket 100..1000,
  // clamped above by max=500). The estimates interpolate within the bucket
  // that holds the target rank.
  obs::Histogram h({10, 100, 1000});
  for (int i = 0; i < 50; ++i) h.record(5);
  for (int i = 0; i < 50; ++i) h.record(500);
  EXPECT_DOUBLE_EQ(h.p50(), 10.0);   // rank 50 = last sample of bucket 0
  EXPECT_DOUBLE_EQ(h.p95(), 460.0);  // 100 + 0.9 * (500 - 100)
  EXPECT_DOUBLE_EQ(h.p99(), 492.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 500.0);  // == max()
  // Monotone in q and bounded by the observed range.
  double prev = h.quantile(0.0);
  EXPECT_GE(prev, 5.0);
  for (double q : {0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    const double v = h.quantile(q);
    EXPECT_GE(v, prev);
    EXPECT_LE(v, 500.0);
    prev = v;
  }

  // The registry JSON exposes the quantiles (only once populated).
  obs::MetricsRegistry reg;
  reg.histogram("lat_us", {10, 100}).record(42);
  obs::JsonValue v = obs::parse_json(reg.json());
  EXPECT_TRUE(v.at("histograms").at("lat_us").has("p99"));
}

TEST(ObsMetrics, HistogramRejectsNonIncreasingBounds) {
  EXPECT_THROW(obs::Histogram({10, 10}), std::invalid_argument);
  EXPECT_THROW(obs::Histogram({10, 5}), std::invalid_argument);
}

TEST(ObsMetrics, HistogramConcurrentRecordsSumExactly) {
  ObsGuard guard(true);
  obs::Histogram h({8, 64});
  constexpr int kThreads = 6, kRecords = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kRecords; ++i) h.record(static_cast<u64>(t));
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), static_cast<u64>(kThreads) * kRecords);
  u64 total = 0;
  for (u64 b : h.bucket_counts()) total += b;
  EXPECT_EQ(total, h.count());
}

TEST(ObsMetrics, GaugeTracksValueAndPeak) {
  ObsGuard guard(true);
  obs::Gauge g;
  g.set(5);
  g.add(10);
  g.add(-12);
  EXPECT_EQ(g.value(), 3);
  EXPECT_EQ(g.peak(), 15);
}

TEST(ObsMetrics, RegistryGetOrCreateIsStableAndJsonParses) {
  ObsGuard guard(true);
  auto& r = obs::MetricsRegistry::global();
  obs::Counter& a = r.counter("test.registry.counter");
  obs::Counter& b = r.counter("test.registry.counter");
  EXPECT_EQ(&a, &b);  // same name -> same metric
  a.add(7);
  r.histogram("test.registry.hist").record(42);
  obs::JsonValue v = obs::parse_json(r.json());
  EXPECT_GE(v.at("counters").at("test.registry.counter").num, 7);
  EXPECT_TRUE(v.at("histograms").has("test.registry.hist"));
}

TEST(ObsMetrics, DisabledModeRecordsNothing) {
  ObsGuard guard(false);
  obs::Counter c;
  obs::Gauge g;
  obs::Histogram h({10});
  c.add(100);
  g.set(5);
  h.record(3);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.count(), 0u);
}

// --------------------------------------------------------------- spans -----

TEST(ObsTrace, NestedSpansProduceWellFormedChromeJson) {
  ObsGuard guard(true);
  auto& rec = obs::TraceRecorder::global();
  rec.clear();
  {
    OBS_SPAN("outer");
    {
      OBS_SPAN("inner");
      volatile int sink = 0;
      for (int i = 0; i < 1000; ++i) sink = sink + i;
    }
    OBS_SPAN("sibling");
  }
  ASSERT_EQ(rec.event_count(), 3u);

  obs::JsonValue doc = obs::parse_json(rec.chrome_json());
  ASSERT_TRUE(doc.is_object());
  ASSERT_TRUE(doc.at("traceEvents").is_array());
  const auto& evs = doc.at("traceEvents").arr;
  ASSERT_EQ(evs.size(), 3u);
  for (const obs::JsonValue& e : evs) {
    // The keys Perfetto/chrome://tracing require of a complete event.
    for (const char* k : {"ph", "ts", "dur", "tid", "name"}) ASSERT_TRUE(e.has(k)) << k;
    EXPECT_EQ(e.at("ph").str, "X");
    EXPECT_GE(e.at("dur").num, 0);
  }

  // Nesting: outer contains inner in time, and depths reflect the tree.
  std::vector<obs::SpanEvent> raw = rec.events();
  auto find = [&](const std::string& n) {
    return *std::find_if(raw.begin(), raw.end(),
                         [&](const obs::SpanEvent& e) { return e.name == n; });
  };
  obs::SpanEvent outer = find("outer"), inner = find("inner"), sib = find("sibling");
  EXPECT_EQ(outer.depth, 0u);
  EXPECT_EQ(inner.depth, 1u);
  EXPECT_EQ(sib.depth, 1u);
  EXPECT_LE(outer.start_ns, inner.start_ns);
  EXPECT_GE(outer.start_ns + outer.dur_ns, inner.start_ns + inner.dur_ns);
  rec.clear();
}

TEST(ObsTrace, SpansFromMultipleThreadsGetDistinctTids) {
  ObsGuard guard(true);
  auto& rec = obs::TraceRecorder::global();
  rec.clear();
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t)
    threads.emplace_back([] { OBS_SPAN("worker_span"); });
  for (auto& t : threads) t.join();
  std::vector<obs::SpanEvent> evs = rec.events();
  ASSERT_EQ(evs.size(), 3u);
  std::set<u32> tids;
  for (const obs::SpanEvent& e : evs) tids.insert(e.tid);
  EXPECT_EQ(tids.size(), 3u);
  EXPECT_EQ(rec.thread_count(), 3u);
  rec.clear();
}

TEST(ObsTrace, DisabledModeRecordsNoSpans) {
  ObsGuard guard(false);
  auto& rec = obs::TraceRecorder::global();
  rec.clear();
  {
    OBS_SPAN("should_not_exist");
    obs::ScopedSpan dynamic(std::string("also_not"));
  }
  EXPECT_EQ(rec.event_count(), 0u);
  // No thread shows up as having recorded anything: the disabled path never
  // touches (or allocates) a thread buffer.
  EXPECT_EQ(rec.thread_count(), 0u);
}

// ----------------------------------------------------- timer satellite -----

TEST(ObsTimer, MedianRuntimeRecordsPerRunTimes) {
  // Runs of 0, 60, 0, 60, 0 ms: the median is one of the instant runs.
  int calls = 0;
  const double med = median_runtime(
      [&] {
        if (calls++ % 2) std::this_thread::sleep_for(std::chrono::milliseconds(60));
      },
      5);
  EXPECT_EQ(calls, 5);
  EXPECT_GE(med, 0.0);
  EXPECT_LT(med, 0.03);
}

// ------------------------------------------------- ThreadPool counters -----

TEST(ObsThreadPool, CountersConsistentAfterRandomizedBurst) {
  ObsGuard guard(true);
  constexpr unsigned kWorkers = 4;
  constexpr int kTasks = 400;
  svc::ThreadPool pool(kWorkers, /*queue_capacity=*/64);
  std::mt19937 rng(1234);
  std::uniform_int_distribution<int> spin(0, 2000);
  std::atomic<int> ran{0};
  for (int i = 0; i < kTasks; ++i) {
    int work = spin(rng);
    pool.submit([&ran, work] {
      volatile int sink = 0;
      for (int j = 0; j < work; ++j) sink = sink + j;
      ran.fetch_add(1);
    });
  }
  pool.wait_idle();

  svc::ThreadPool::Counters c = pool.counters();
  EXPECT_EQ(ran.load(), kTasks);
  EXPECT_EQ(c.submitted, static_cast<u64>(kTasks));
  EXPECT_EQ(c.executed, c.submitted);  // every accepted task ran
  EXPECT_LE(c.peak_pending, 64u);      // bounded queue held
  pool.shutdown();
  // Counters are stable after shutdown.
  EXPECT_EQ(pool.counters().executed, c.executed);
}

// ------------------------------------------------ request-scoped tracing ---

TEST(ObsTraceContext, NestsAndRestores) {
  EXPECT_EQ(obs::TraceContext::current(), 0u);
  {
    obs::TraceContext::Scope outer(7);
    EXPECT_EQ(obs::TraceContext::current(), 7u);
    {
      obs::TraceContext::Scope inner(9);
      EXPECT_EQ(obs::TraceContext::current(), 9u);
    }
    EXPECT_EQ(obs::TraceContext::current(), 7u);
  }
  EXPECT_EQ(obs::TraceContext::current(), 0u);
}

TEST(ObsTraceContext, SpanCarriesRequestIdIntoChromeArgs) {
  ObsGuard guard(true);
  auto& rec = obs::TraceRecorder::global();
  rec.clear();
  {
    obs::TraceContext::Scope ctx(4242);
    OBS_SPAN("ctx_span");
  }
  { OBS_SPAN("no_ctx_span"); }

  std::vector<obs::SpanEvent> evs = rec.events();
  ASSERT_EQ(evs.size(), 2u);
  for (const obs::SpanEvent& e : evs)
    EXPECT_EQ(e.request_id, e.name == "ctx_span" ? 4242u : 0u) << e.name;

  obs::JsonValue doc = obs::parse_json(rec.chrome_json());
  for (const obs::JsonValue& ev : doc.at("traceEvents").arr) {
    if (ev.at("name").str == "ctx_span") {
      ASSERT_TRUE(ev.has("args"));
      EXPECT_DOUBLE_EQ(ev.at("args").at("request_id").num, 4242);
    } else {
      // Context-free spans carry no args at all — id 0 means "no context"
      // and is never emitted.
      EXPECT_FALSE(ev.has("args")) << ev.at("name").str;
    }
  }
  rec.clear();
}

// ---------------------------------------------------- metrics exposition ---

TEST(ObsExposition, PrometheusFamilyMangling) {
  EXPECT_EQ(obs::prometheus_family("net.request_us"), "pfpl_net_request_us");
  EXPECT_EQ(obs::prometheus_family("Svc.Pool-Depth"), "pfpl_svc_pool_depth");
}

TEST(ObsExposition, PrometheusTextWellFormed) {
  ObsGuard guard(true);
  auto& reg = obs::MetricsRegistry::global();
  reg.counter("expo.test.count").add(3);
  reg.gauge("expo.test.depth").set(5);
  obs::Histogram& h = reg.histogram("expo.test_us", {10, 100});
  h.record(5);
  h.record(50);
  h.record(500);

  const std::string text = obs::prometheus_text();
  // No duplicate TYPE families, and every sample line's value is a number.
  std::set<std::string> families;
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
    ASSERT_NE(sp, std::string::npos) << line;
    EXPECT_NO_THROW((void)std::stod(line.substr(sp + 1))) << line;
  }
  // Counters get the _total suffix; gauges a _peak companion.
  EXPECT_NE(text.find("pfpl_expo_test_count_total 3"), std::string::npos);
  EXPECT_NE(text.find("pfpl_expo_test_depth 5"), std::string::npos);
  EXPECT_NE(text.find("pfpl_expo_test_depth_peak 5"), std::string::npos);
  // Histograms are cumulative with a +Inf bucket equal to _count.
  EXPECT_NE(text.find("pfpl_expo_test_us_bucket{le=\"10\"} 1"), std::string::npos);
  EXPECT_NE(text.find("pfpl_expo_test_us_bucket{le=\"100\"} 2"), std::string::npos);
  EXPECT_NE(text.find("pfpl_expo_test_us_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(text.find("pfpl_expo_test_us_count 3"), std::string::npos);
  EXPECT_NE(text.find("pfpl_expo_test_us_sum 555"), std::string::npos);
}

TEST(ObsExposition, MetricsJsonDocParsesWithExtras) {
  const std::string doc = obs::metrics_json_doc("{\"x\":1}");
  obs::JsonValue v = obs::parse_json(doc);
  EXPECT_EQ(v.at("schema").str, "pfpl-metrics/1");
  EXPECT_GT(v.at("ts_ms").num, 0);
  ASSERT_TRUE(v.at("metrics").is_object());
  EXPECT_TRUE(v.at("metrics").has("counters"));
  EXPECT_DOUBLE_EQ(v.at("stats").at("x").num, 1);
  // Without stats the document has no "stats" key and is still valid.
  obs::JsonValue bare = obs::parse_json(obs::metrics_json_doc());
  EXPECT_TRUE(bare.has("metrics"));
  EXPECT_FALSE(bare.has("stats"));
}

TEST(ObsExposition, ZeroObservationHistogramStaysWellFormed) {
  // A histogram family that was registered but never recorded (a server that
  // saw no slow requests, a decode-only run) must still expose a complete,
  // parseable family — zero buckets, zero count — not a truncated one.
  ObsGuard guard(true);
  auto& reg = obs::MetricsRegistry::global();
  (void)reg.histogram("expo.empty_us", {10, 100});

  const std::string text = obs::prometheus_text();
  EXPECT_NE(text.find("pfpl_expo_empty_us_bucket{le=\"10\"} 0"), std::string::npos);
  EXPECT_NE(text.find("pfpl_expo_empty_us_bucket{le=\"+Inf\"} 0"), std::string::npos);
  EXPECT_NE(text.find("pfpl_expo_empty_us_count 0"), std::string::npos);
  EXPECT_NE(text.find("pfpl_expo_empty_us_sum 0"), std::string::npos);

  // JSON side: count 0, no min/max/mean/pXX keys (they would be lies), but
  // bounds + buckets present so a scraper can still learn the layout.
  obs::JsonValue v = obs::parse_json(obs::metrics_json_doc());
  const obs::JsonValue& h = v.at("metrics").at("histograms").at("expo.empty_us");
  EXPECT_DOUBLE_EQ(h.at("count").num, 0);
  EXPECT_FALSE(h.has("p50"));
  EXPECT_FALSE(h.has("mean"));
  ASSERT_EQ(h.at("bounds").arr.size(), 2u);
  ASSERT_EQ(h.at("buckets").arr.size(), 3u);
}

TEST(ObsExposition, GaugeExposesCurrentAndPeakSeparately) {
  ObsGuard guard(true);
  auto& reg = obs::MetricsRegistry::global();
  obs::Gauge& g = reg.gauge("expo.peaky.depth");
  g.set(10);
  g.set(3);  // current drops, peak must not

  const std::string text = obs::prometheus_text();
  EXPECT_NE(text.find("pfpl_expo_peaky_depth 3"), std::string::npos);
  EXPECT_NE(text.find("pfpl_expo_peaky_depth_peak 10"), std::string::npos);

  obs::JsonValue v = obs::parse_json(obs::metrics_json_doc());
  const obs::JsonValue& gj = v.at("metrics").at("gauges").at("expo.peaky.depth");
  EXPECT_DOUBLE_EQ(gj.at("value").num, 3);
  EXPECT_DOUBLE_EQ(gj.at("peak").num, 10);
}

// ------------------------------------------------------------ event log ----

TEST(ObsEventLog, LevelNamesRoundTrip) {
  obs::LogLevel lvl = obs::LogLevel::Info;
  EXPECT_TRUE(obs::parse_log_level("warn", lvl));
  EXPECT_EQ(lvl, obs::LogLevel::Warn);
  EXPECT_STREQ(obs::to_string(obs::LogLevel::Error), "error");
  EXPECT_FALSE(obs::parse_log_level("loud", lvl));
}

TEST(ObsEventLog, LevelFilterRateLimitAndParseableLines) {
  const std::string path = ::testing::TempDir() + "pfpl_event_log_test.jsonl";
  std::remove(path.c_str());
  obs::EventLog log;
  obs::EventLog::Options o;
  o.path = path;
  o.level = obs::LogLevel::Info;
  o.rate_per_s = 2.0;  // burst capacity = 4 lines
  log.configure(o);

  EXPECT_FALSE(log.would_log(obs::LogLevel::Debug));
  EXPECT_FALSE(log.emit(obs::LogLevel::Debug, "filtered"));
  u64 written = 0;
  for (int i = 0; i < 10; ++i)
    if (log.emit(obs::LogLevel::Warn, "evt", "{\"i\":" + std::to_string(i) + "}"))
      ++written;
  EXPECT_EQ(written, 4u);  // token bucket: 2/s rate, 2x burst
  EXPECT_EQ(log.emitted(), written);
  EXPECT_EQ(log.dropped(), 10u - written);

  // Every line on disk is one parseable JSON object with the envelope keys.
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  u64 lines = 0;
  while (std::getline(in, line)) {
    obs::JsonValue v = obs::parse_json(line);
    EXPECT_TRUE(v.has("ts_ms"));
    EXPECT_EQ(v.at("level").str, "warn");
    EXPECT_EQ(v.at("event").str, "evt");
    EXPECT_DOUBLE_EQ(v.at("fields").at("i").num, static_cast<double>(lines));
    ++lines;
  }
  EXPECT_EQ(lines, written);
  std::remove(path.c_str());
}

TEST(ObsThreadPool, WaitAndRunHistogramsPopulateWhenEnabled) {
  ObsGuard guard(true);
  auto& r = obs::MetricsRegistry::global();
  obs::Histogram& wait = r.histogram("svc.pool.task_wait_us");
  obs::Histogram& run = r.histogram("svc.pool.task_run_us");
  const u64 wait_before = wait.count(), run_before = run.count();
  {
    svc::ThreadPool pool(2);
    for (int i = 0; i < 32; ++i) pool.submit([] {});
    pool.wait_idle();
  }
  EXPECT_EQ(wait.count() - wait_before, 32u);
  EXPECT_EQ(run.count() - run_before, 32u);
}
