// Tests for raw-file I/O and the pfpl command-line tool (run end to end via
// std::system against the built binary).
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "common/cpu.hpp"
#include "data/rng.hpp"
#include "io/raw_file.hpp"
#include "obs/json.hpp"

using namespace repro;
namespace fs = std::filesystem;

namespace {

std::string tmp_path(const std::string& name) {
  return (fs::temp_directory_path() / ("pfpl_test_" + name)).string();
}

int run(const std::string& cmd) { return std::system((cmd + " >/dev/null 2>&1").c_str()); }

/// Runs `cmd` with its stdout captured into `out` and returns the wait status.
/// stderr is discarded, unless `cmd` ends in "2>&1": redirections inside the
/// group override the outer one.
int run_out(const std::string& cmd, std::string& out) {
  out.clear();
  FILE* p = popen(("{ " + cmd + "; } 2>/dev/null").c_str(), "r");
  if (!p) return -1;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, p)) > 0;) out.append(buf, n);
  return pclose(p);
}

std::string slurp(const std::string& path) {
  const std::vector<u8> b = io::read_file(path);
  return std::string(b.begin(), b.end());
}

/// Exit code of `cmd` (output discarded), or -1 when a signal killed it.
int exit_code(const std::string& cmd) {
  const int status = run(cmd);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

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

TEST(RawFile, DirectoryIsTypedError) {
  // fopen succeeds on a directory and ftell reports a huge size: the read
  // must refuse it with errno's text and the path, before allocating.
  const std::string dir = tmp_path("io_dir");
  fs::create_directories(dir);
  for (auto read : {+[](const std::string& p) { io::read_file(p); },
                    +[](const std::string& p) { io::read_file_range(p, 0, 4); }}) {
    try {
      read(dir);
      ADD_FAILURE() << "reading a directory did not throw";
    } catch (const CompressionError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(dir), std::string::npos) << what;
      EXPECT_NE(what.find(std::strerror(EISDIR)), std::string::npos) << what;
    }
  }
  fs::remove_all(dir);
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

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // The build passes the CLI's path and builds it before this test.
    cli = PFPL_CLI_PATH;
    ASSERT_TRUE(fs::exists(cli)) << "pfpl CLI binary not found at " << cli;
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

TEST_F(CliTest, VerifyRejectsValueCountMismatch) {
  // An original holding only part of the stream's values must not pass as
  // "bound holds": the pair is rejected before judging, naming both counts.
  ASSERT_EQ(run(cli + " c " + in + " " + comp + " --eb abs --eps 1e-3"), 0);
  const std::string half = tmp_path("verify_half.raw");
  io::write_file(half, values.data(), 25000 * 4);
  std::string err;
  int status = run_out(cli + " verify " + half + " " + comp + " 2>&1", err);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 1) << err;
  EXPECT_NE(err.find("25000"), std::string::npos) << err;
  EXPECT_NE(err.find("50000"), std::string::npos) << err;
  EXPECT_EQ(err.find("bound holds"), std::string::npos) << err;
  // A byte count that is not a whole number of scalars is rejected too.
  io::write_file(half, values.data(), values.size() * 4 - 2);
  status = run_out(cli + " verify " + half + " " + comp + " 2>&1", err);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 1) << err;
  EXPECT_NE(err.find(std::to_string(values.size() * 4 - 2) + " bytes"), std::string::npos) << err;
  fs::remove(half);
}

TEST_F(CliTest, FlagsMayPrecedePositionals) {
  ASSERT_EQ(run(cli + " c --dtype f32 --eb abs --eps 1e-3 " + in + " " + comp), 0);
  ASSERT_EQ(run(cli + " d --exec gpusim " + comp + " " + out), 0);
  EXPECT_EQ(io::read_values<float>(out).size(), values.size());
  std::string info, stats;
  ASSERT_EQ(run_out(cli + " info --json " + comp, info), 0);
  ASSERT_EQ(run_out(cli + " stats --json " + comp, stats), 0);
  EXPECT_EQ(info, stats);
  ASSERT_EQ(run_out(cli + " info " + comp, info), 0);
  ASSERT_EQ(run_out(cli + " stats " + comp, stats), 0);
  EXPECT_EQ(info, stats);
  EXPECT_NE(info.find(" recon_param=0.001 "), std::string::npos) << info;
  ASSERT_EQ(run_out(cli + " verify --exec omp " + in + " " + comp, info), 0);
  EXPECT_NE(info.find("violations: 0 (bound holds)"), std::string::npos) << info;
  // A stray positional is a usage error for every verb, these four included.
  EXPECT_EQ(exit_code(cli + " info " + comp + " " + comp), 2);
  EXPECT_EQ(exit_code(cli + " verify " + in + " " + comp + " " + comp), 2);
  EXPECT_EQ(exit_code(cli + " d " + comp + " " + out + " extra"), 2);
  EXPECT_EQ(exit_code(cli + " store ls extra --store " + tmp_path("stray_store")), 2);
}

// ------------------------------------------------ CLI surface pins ---
// End-to-end pins of the command lines the README and CI use: exit codes,
// the parsed --json documents, and every numeric flag's range.

TEST_F(CliTest, StatsJsonOnEveryContainer) {
  ASSERT_EQ(run(cli + " c " + in + " " + comp + " --dtype f32 --eb abs --eps 1e-3"), 0);
  std::string out;
  ASSERT_EQ(run_out(cli + " stats " + comp + " --json", out), 0);
  obs::JsonValue doc = obs::parse_json(out);
  EXPECT_EQ(doc.at("kind").str, "pfpl");
  EXPECT_EQ(doc.at("dtype").str, "f32");
  EXPECT_EQ(doc.at("eb").str, "ABS");
  EXPECT_DOUBLE_EQ(doc.at("eps").num, 1e-3);
  EXPECT_EQ(doc.at("values").num, static_cast<double>(values.size()));
  EXPECT_EQ(doc.at("chunks").num, 13);  // 50,000 f32 values in 4,096-value chunks
  EXPECT_EQ(doc.at("compressed_bytes").num, static_cast<double>(fs::file_size(comp)));

  const std::string pfpa = tmp_path("stats_json.pfpa");
  ASSERT_EQ(run(cli + " pack " + pfpa + " " + in + " --eps 1e-3"), 0);
  ASSERT_EQ(run_out(cli + " stats " + pfpa + " --json", out), 0);
  doc = obs::parse_json(out);
  EXPECT_EQ(doc.at("kind").str, "pfpa");
  ASSERT_EQ(doc.at("entries").arr.size(), 1u);
  const obs::JsonValue& e = doc.at("entries").arr[0];
  EXPECT_EQ(e.at("name").str, fs::path(in).filename().string());
  EXPECT_EQ(e.at("raw_bytes").num, static_cast<double>(values.size() * 4));
  EXPECT_EQ(e.at("compressed_bytes").num, static_cast<double>(fs::file_size(comp)));
  EXPECT_EQ(doc.at("totals").at("entries").num, 1);
  fs::remove(pfpa);

  const std::string pfpv = tmp_path("stats_json.pfpv");
  ASSERT_EQ(run(cli + " stream pack " + pfpv + " --suite advect --frames 4 --values 4096"), 0);
  ASSERT_EQ(run_out(cli + " stats " + pfpv + " --json", out), 0);
  doc = obs::parse_json(out);
  EXPECT_EQ(doc.at("kind").str, "pfpv");
  EXPECT_EQ(doc.at("frames").num, 4);
  EXPECT_EQ(doc.at("iframes").num + doc.at("pframes").num, 4);
  EXPECT_EQ(doc.at("file_bytes").num, static_cast<double>(fs::file_size(pfpv)));
  EXPECT_FALSE(doc.at("truncated").b);
  fs::remove(pfpv);
}

TEST_F(CliTest, StatsRejectsShortAndJunkFiles) {
  const std::string f = tmp_path("stats_short.bin");
  const u8 two[2] = {'P', 'F'};
  io::write_file(f, two, sizeof two);
  EXPECT_EQ(exit_code(cli + " stats " + f), 2);
  const char junk[] = "this is not a container at all";
  io::write_file(f, junk, sizeof junk);
  EXPECT_EQ(exit_code(cli + " stats " + f), 2);
  fs::remove(f);
}

TEST_F(CliTest, DirectoryInputExitsOne) {
  const std::string dir = tmp_path("cli_dir_input");
  fs::create_directories(dir);
  for (const std::string& args : {" d " + dir + " " + out, " info " + dir}) {
    std::string text;
    const int status = run_out(cli + args + " 2>&1", text);
    ASSERT_TRUE(WIFEXITED(status)) << args;
    EXPECT_EQ(WEXITSTATUS(status), 1) << args;
    EXPECT_EQ(text.find("bad_alloc"), std::string::npos) << text;
    EXPECT_NE(text.find(dir), std::string::npos) << text;
  }
  fs::remove_all(dir);
}

TEST_F(CliTest, StoreRoundTrip) {
  const std::string dir = tmp_path("store_rt");
  fs::remove_all(dir);
  const std::string flags = " --store " + dir + " --dtype f32 --eb abs --eps 1e-3";
  // One file: the synchronous path prints the content key first.
  std::string out;
  ASSERT_EQ(run_out(cli + " store put " + in + flags, out), 0);
  const std::string key = out.substr(0, 32);
  ASSERT_EQ(out.substr(32, 9), ": stored ") << out;

  // Three files: the ingest pipeline; `in` is already stored.
  std::vector<std::string> more{in};
  for (int k = 1; k <= 2; ++k) {
    more.push_back(tmp_path("store_rt_in" + std::to_string(k) + ".raw"));
    std::vector<float> v(values.size());
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = values[i] * static_cast<float>(k + 1);
    io::write_file(more.back(), v.data(), v.size() * 4);
  }
  ASSERT_EQ(run_out(cli + " store put " + more[0] + " " + more[1] + " " + more[2] + flags, out),
            0);
  EXPECT_NE(out.find("stored 3 file(s) (1 deduped)"), std::string::npos) << out;

  ASSERT_EQ(run_out(cli + " store ls --store " + dir, out), 0);
  EXPECT_NE(out.find(key), std::string::npos) << out;
  EXPECT_NE(out.find("3 entries"), std::string::npos) << out;

  // The stored payload is the one-shot stream.
  const std::string got = tmp_path("store_rt_got.pfpl");
  ASSERT_EQ(run(cli + " c " + in + " " + comp + " --dtype f32 --eb abs --eps 1e-3"), 0);
  ASSERT_EQ(run(cli + " store get " + key + " " + got + " --store " + dir), 0);
  EXPECT_EQ(io::read_file(got), io::read_file(comp));

  ASSERT_EQ(run_out(cli + " store verify --store " + dir, out), 0);
  EXPECT_NE(out.find("store: OK"), std::string::npos) << out;
  ASSERT_EQ(run(cli + " store compact --store " + dir), 0);
  ASSERT_EQ(run(cli + " store get " + key + " " + got + " --store " + dir), 0);
  EXPECT_EQ(io::read_file(got), io::read_file(comp));
  EXPECT_EQ(exit_code(cli + " store get 0123456789abcdef0123456789abcdef " + got +
                      " --store " + dir),
            1);

  fs::remove(got);
  for (std::size_t k = 1; k < more.size(); ++k) fs::remove(more[k]);
  fs::remove_all(dir);
}

TEST_F(CliTest, StreamRoundTrip) {
  const std::string pfpv = tmp_path("stream_rt.pfpv");
  const std::string dir = tmp_path("stream_rt_frames");
  fs::remove_all(dir);
  std::string out;
  ASSERT_EQ(run_out(cli + " stream pack " + pfpv +
                        " --suite advect --frames 8 --values 4096 --audit",
                    out),
            0);
  EXPECT_NE(out.find("audit: 0 violation(s) across 8 decoded frame(s) (bound holds)"),
            std::string::npos)
      << out;
  ASSERT_EQ(run_out(cli + " stream info " + pfpv, out), 0);
  EXPECT_NE(out.find("frames=8 "), std::string::npos) << out;
  ASSERT_EQ(run(cli + " stream unpack " + pfpv + " " + dir), 0);
  std::size_t frames = 0;
  for (const auto& f : fs::directory_iterator(dir)) {
    EXPECT_EQ(f.file_size(), 4096u * 4) << f.path();
    ++frames;
  }
  EXPECT_EQ(frames, 8u);
  EXPECT_TRUE(fs::exists(fs::path(dir) / "frame-000007.raw"));
  fs::remove(pfpv);
  fs::remove_all(dir);
}

TEST_F(CliTest, TornStreamRecoversRecordPrefix) {
  // A .pfpv cut short loses its trailer and part of its last records: info
  // flags it, unpack recovers a strict prefix whose every frame equals the
  // reconstruction audited at pack time, and junk bytes are a usage error.
  const std::string pfpv = tmp_path("torn.pfpv"), recon = tmp_path("torn_recon"),
                    frames = tmp_path("torn_frames"), junk = tmp_path("torn_junk.bin");
  fs::remove_all(recon);
  fs::remove_all(frames);
  constexpr std::size_t kFrames = 16;
  std::string text;
  ASSERT_EQ(run_out(cli + " stream pack " + pfpv + " --suite advect --frames " +
                        std::to_string(kFrames) + " --values 4096 --eps 1e-3 --audit" +
                        " --dump-recon " + recon,
                    text),
            0);
  fs::resize_file(pfpv, fs::file_size(pfpv) - 2000);
  ASSERT_EQ(run_out(cli + " stream info " + pfpv, text), 0);
  EXPECT_NE(text.find("TRUNCATED"), std::string::npos) << text;
  ASSERT_EQ(run(cli + " stream unpack " + pfpv + " " + frames), 0);
  std::size_t recovered = 0;
  for (const auto& f : fs::directory_iterator(frames)) {
    const fs::path ref = fs::path(recon) / f.path().filename();
    ASSERT_TRUE(fs::exists(ref)) << ref;
    EXPECT_EQ(slurp(f.path().string()), slurp(ref.string())) << f.path();
    ++recovered;
  }
  EXPECT_GE(recovered, 1u);
  EXPECT_LT(recovered, kFrames);
  std::vector<u8> bytes(4096);
  data::Rng rng(27);
  for (u8& b : bytes) b = static_cast<u8>(rng.next_u64());
  io::write_file(junk, bytes.data(), bytes.size());
  EXPECT_EQ(exit_code(cli + " stats " + junk), 2);
  fs::remove(pfpv);
  fs::remove(junk);
  fs::remove_all(recon);
  fs::remove_all(frames);
}

TEST_F(CliTest, AuditJsonReportsOk) {
  std::string out;
  ASSERT_EQ(run_out(cli + " audit --json --suite CESM-ATM --dtype f32 --eb abs --eps 1e-3", out),
            0);
  const obs::JsonValue doc = obs::parse_json(out);
  EXPECT_TRUE(doc.at("ok").b);
  EXPECT_EQ(doc.at("total_violations").num, 0);
  ASSERT_FALSE(doc.at("cases").arr.empty());
  EXPECT_EQ(doc.at("cases").arr[0].at("suite").str, "CESM-ATM");
}

TEST_F(CliTest, ProfileJsonSchema) {
  std::string out;
  ASSERT_EQ(run_out(cli + " profile --json --suite CESM-ATM", out), 0);
  const obs::JsonValue doc = obs::parse_json(out);
  EXPECT_EQ(doc.at("schema").str, "pfpl-profile/1");
  // The rung the tables measured: this CPU's, as the CLI has no knob to move it.
  EXPECT_EQ(doc.at("isa").str, common::isa_name(common::isa()));
  ASSERT_EQ(doc.at("groups").arr.size(), 1u);
  EXPECT_EQ(doc.at("groups").arr[0].at("dtype").str, "f32");
}

TEST_F(CliTest, NumericFlagRanges) {
  // {flag, lo, hi, hi + 1}. `list` of a missing file fails with exit 1 once
  // its flags parse, so exit 2 can only come from the flag's range check.
  struct Range {
    const char* flag;
    const char* lo;
    const char* hi;
    const char* above;
  };
  const char* kU64 = "18446744073709551615";
  const char* kU64Above = "18446744073709551616";
  const char* kInt = "2147483647";
  const char* kIntAbove = "2147483648";
  const char* kUint = "4294967295";
  const char* kUintAbove = "4294967296";
  const Range ranges[] = {
      {"--threads", "0", "1024", "1025"},
      {"--port", "0", "65535", "65536"},
      {"--max-inflight", "0", kU64, kU64Above},
      {"--cache-mb", "1", kUint, kUintAbove},
      {"--timeout-ms", "0", kInt, kIntAbove},
      {"--slow-ms", "0", kInt, kIntAbove},
      {"--flight-ms", "0", kInt, kIntAbove},
      {"--flight-depth", "1", kInt, kIntAbove},
      {"--stall-ms", "0", kU64, kU64Above},
      {"--metrics-port", "0", "65535", "65536"},
      {"--interval-ms", "1", kInt, kIntAbove},
      {"--count", "0", kInt, kIntAbove},
      {"--max-conns", "0", kU64, kU64Above},
      {"--frames", "1", kU64, kU64Above},
      {"--values", "1", kU64, kU64Above},
      {"--keyframe-interval", "0", kUint, kUintAbove},
      {"--seed", "0", kU64, kU64Above},
      {"--max-sessions", "0", kU64, kU64Above},
      {"--session-idle-ms", "0", kInt, kIntAbove},
  };
  const std::string list = cli + " list /nonexistent/pfpl_flags.pfpa ";
  for (const Range& r : ranges) {
    const std::string f = r.flag;
    EXPECT_EQ(exit_code(list + f + " " + r.lo), 1) << f;
    EXPECT_EQ(exit_code(list + f + " " + r.hi), 1) << f;
    EXPECT_EQ(exit_code(list + f + " " + r.above), 2) << f;
    if (std::string(r.lo) == "1") {
      EXPECT_EQ(exit_code(list + f + " 0"), 2) << f;
    }
  }
}

TEST_F(CliTest, MissingValueAndUnknownFlagExitTwo) {
  const std::string list = cli + " list /nonexistent/pfpl_flags.pfpa";
  EXPECT_EQ(exit_code(list + " --threads"), 2);
  EXPECT_EQ(exit_code(list + " --store"), 2);
  EXPECT_EQ(exit_code(list + " --trace"), 2);
  EXPECT_EQ(exit_code(list + " --no-such-flag"), 2);
  EXPECT_EQ(exit_code(cli + " c " + in + " " + comp + " --eps"), 2);
  EXPECT_EQ(exit_code(cli + " c " + in + " " + comp + " --eps 1e-3 --no-such-flag"), 2);
  EXPECT_FALSE(fs::exists(comp));
}

TEST_F(CliTest, TraceAndReportFromAnyPosition) {
  const std::string trace = tmp_path("obs_any.trace.json");
  const std::string report = tmp_path("obs_any.report.json");
  const std::string c_args = " c " + in + " " + comp + " --eps 1e-3 ";
  for (const std::string& cmd :
       {cli + " --trace " + trace + " --report " + report + c_args,
        cli + " c " + in + " --trace " + trace + " " + comp + " --report " + report +
            " --eps 1e-3",
        cli + c_args + "--report " + report + " --trace " + trace + " --metrics"}) {
    fs::remove(trace);
    fs::remove(report);
    ASSERT_EQ(run(cmd), 0) << cmd;
    ASSERT_TRUE(fs::exists(trace)) << cmd;
    EXPECT_TRUE(obs::parse_json(slurp(trace)).has("traceEvents")) << cmd;
    ASSERT_TRUE(fs::exists(report)) << cmd;
    EXPECT_TRUE(obs::parse_json(slurp(report)).is_object()) << cmd;
  }
  fs::remove(trace);
  fs::remove(report);
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
