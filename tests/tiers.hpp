// The tier harness: runs test bodies at the rungs of the ISA ladder
// (common/cpu.hpp), each rung set as the process-wide ceiling so OpenMP and
// pool workers run it too.
//
//   * Golden tests (pinned digests, executor identity) run at every rung the
//     CPU has: for_each_rung(f).
//   * Tier tests compare a dispatched entry point with its scalar reference
//     at each rung from the first one that has the kernel: for_each_rung(
//     Isa::Avx2, f). Below that rung the entry point is the reference itself.
//   * A test too long to run every rung in one ctest entry is declared with
//     TEST_PER_RUNG, which registers one test per rung.
//
// A rung added to the ladder is covered by every test here without edits.
// The one skip of a tier test is in run_rungs: the CPU is below the rung.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <memory>
#include <string>
#include <vector>

#include "bits/zerobyte.hpp"
#include "common/cpu.hpp"

namespace repro::tiers {

using common::Isa;

/// Runs f() at each rung in [from, to] that this CPU has, the rung named in
/// every failure message; skips the test when the CPU is below `from`.
template <typename F>
void run_rungs(Isa from, Isa to, F&& f) {
  const Isa native = common::isa();
  if (native < from)
    GTEST_SKIP() << "this CPU is below the " << common::isa_name(from) << " rung";
  for (int r = static_cast<int>(from); r <= static_cast<int>(std::min(to, native)); ++r) {
    const Isa rung = static_cast<Isa>(r);
    SCOPED_TRACE(std::string("rung ") + common::isa_name(rung));
    const common::ScopedIsaCeiling ceiling(rung);
    f();
  }
}

/// Runs f() at every rung from `from` up to this CPU's.
template <typename F>
void for_each_rung(Isa from, F&& f) {
  run_rungs(from, common::kTopIsa, f);
}

/// Runs f() at every rung this CPU has, Scalar first.
template <typename F>
void for_each_rung(F&& f) {
  run_rungs(Isa::Scalar, common::kTopIsa, f);
}

/// One test of a TEST_PER_RUNG body, at one rung.
class RungTest : public ::testing::Test {
 public:
  RungTest(Isa rung, void (*body)()) : rung_(rung), body_(body) {}
  void TestBody() override { run_rungs(rung_, rung_, body_); }

 private:
  Isa rung_;
  void (*body_)();
};

/// Registers `body` as Suite.Name at the top rung and Suite.Name<Rung>
/// (NameScalar, NameClmul, ...) at each rung below it.
inline bool register_per_rung(const char* suite, const char* name, const char* file, int line,
                              void (*body)()) {
  for (int r = 0; r <= static_cast<int>(common::kTopIsa); ++r) {
    const Isa rung = static_cast<Isa>(r);
    std::string test = name;
    if (rung != common::kTopIsa) {
      std::string suffix = common::isa_name(rung);
      suffix[0] = static_cast<char>(std::toupper(static_cast<unsigned char>(suffix[0])));
      test += suffix;
    }
    ::testing::RegisterTest(suite, test.c_str(), nullptr, nullptr, file, line,
                            [=]() -> ::testing::Test* { return new RungTest(rung, body); });
  }
  return true;
}

/// Like TEST(suite, name), but one test per rung of the ladder, each its own
/// ctest entry.
#define TEST_PER_RUNG(suite, name)                                                        \
  static void suite##_##name##_body();                                                   \
  [[maybe_unused]] static const bool suite##_##name##_registered =                       \
      ::repro::tiers::register_per_rung(#suite, #name, __FILE__, __LINE__,               \
                                        suite##_##name##_body);                          \
  static void suite##_##name##_body()

// --- zero-byte decoder tiers (test_bits, test_format_fuzz) --------------------

/// A heap copy of exactly v.size() bytes, so a sanitizer build reports any
/// read past its end.
inline std::unique_ptr<u8[]> exact_copy(const std::vector<u8>& v) {
  std::unique_ptr<u8[]> p(new u8[v.size()]);
  std::copy(v.begin(), v.end(), p.get());
  return p;
}

/// What a decode did: threw (with its message), or consumed `used` bytes and
/// wrote `bytes`.
struct Decoded {
  bool threw = false;
  std::string error;
  std::size_t used = 0;
  std::vector<u8> bytes;
};

/// Decodes from an input buffer of exactly in.size() bytes into one of
/// exactly n bytes, so a sanitizer build reports any access outside them.
template <typename Fn>
Decoded run_decode(Fn decode, const std::vector<u8>& in, std::size_t n) {
  const std::unique_ptr<u8[]> src = exact_copy(in);
  const std::unique_ptr<u8[]> dst(new u8[n]);
  std::fill_n(dst.get(), n, u8{0xA5});
  Decoded r;
  try {
    r.used = decode(src.get(), in.size(), dst.get(), n);
    r.bytes.assign(dst.get(), dst.get() + n);
  } catch (const CompressionError& e) {
    r.threw = true;
    r.error = e.what();
  }
  return r;
}

/// bits::zerobyte_decode at the rung in force and the scalar reference must
/// throw the same error, or consume the same count and write the same bytes.
inline void expect_decode_agrees(const std::vector<u8>& in, std::size_t n,
                                 const std::string& what) {
  const Decoded ref = run_decode(bits::scalar::zerobyte_decode, in, n);
  const Decoded got = run_decode(bits::zerobyte_decode, in, n);
  ASSERT_EQ(got.threw, ref.threw) << what;
  ASSERT_EQ(got.error, ref.error) << what;
  ASSERT_EQ(got.used, ref.used) << what;
  ASSERT_EQ(got.bytes, ref.bytes) << what;
}

}  // namespace repro::tiers
