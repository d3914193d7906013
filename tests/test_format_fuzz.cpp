// Failure-injection tests: corrupted, truncated, and bit-flipped compressed
// streams must produce a clean CompressionError (or, where corruption lands
// in value payloads, decode to *something*) — never crash, hang, or read out
// of bounds. Every container format in the repository is fuzzed.
#include <gtest/gtest.h>

#include <malloc.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>
#include <span>

#include "baselines/registry.hpp"
#include "baselines/sz_common.hpp"
#include "common/bytes.hpp"
#include "common/checksum.hpp"
#include "common/hash.hpp"
#include "core/pfpl.hpp"
#include "core/pipeline.hpp"
#include "core/stream.hpp"
#include "data/rng.hpp"
#include "data/evolving.hpp"
#include "data/synthetic.hpp"
#include "io/raw_file.hpp"
#include "lc/stage.hpp"
#include "lossless/huffman.hpp"
#include "lossless/lz.hpp"
#include "metrics/error_stats.hpp"
#include "net/frame.hpp"
#include "store/segment_log.hpp"
#include "svc/archive.hpp"
#include "temporal/pfpv.hpp"
#include "temporal/temporal.hpp"
#include "tiers.hpp"

using namespace repro;
namespace fs = std::filesystem;

namespace {

std::vector<float> field_3d(std::size_t n, u64 seed) {
  data::Rng rng(seed);
  std::vector<float> v(n);
  double acc = 0;
  for (auto& x : v) {
    acc += 0.01 * rng.gaussian();
    x = static_cast<float>(acc);
  }
  return v;
}

/// Decode must either succeed or throw CompressionError; anything else
/// (crash, other exception type) fails the test.
template <typename Fn>
void expect_graceful(Fn&& decode) {
  try {
    decode();
  } catch (const CompressionError&) {
    // fine
  }
}

/// The u32 size table of `nchunks` chunks at byte `table` of s, as stored:
/// PFPL entries keep their raw flag.
std::vector<u32> chunk_sizes(const Bytes& s, std::size_t table, std::size_t nchunks) {
  std::vector<u32> sizes(nchunks);
  std::memcpy(sizes.data(), s.data() + table, nchunks * sizeof(u32));
  return sizes;
}

/// Inserts one junk byte after chunk c's payload and adds 1 to its
/// size-table entry (`nchunks` u32 entries at byte `table`), leaving every
/// other chunk where the table says.
Bytes with_chunk_slack(const Bytes& s, std::size_t table, std::size_t nchunks, std::size_t c) {
  const std::vector<u32> sizes = chunk_sizes(s, table, nchunks);
  std::size_t end = table + sizes.size() * sizeof(u32);
  for (std::size_t i = 0; i <= c; ++i) end += sizes[i] & ~pfpl::kRawChunkFlag;
  Bytes bad(s.begin(), s.begin() + static_cast<std::ptrdiff_t>(end));
  bad.push_back(0x5A);
  bad.insert(bad.end(), s.begin() + static_cast<std::ptrdiff_t>(end), s.end());
  const u32 grown = sizes[c] + 1;  // the raw flag is the top bit: unchanged
  std::memcpy(bad.data() + table + c * sizeof(u32), &grown, sizeof(u32));
  return bad;
}

/// with_chunk_slack for a PFPL stream.
Bytes with_pfpl_chunk_slack(const Bytes& s, std::size_t c) {
  return with_chunk_slack(s, sizeof(pfpl::Header), pfpl::peek_header(s).chunk_count, c);
}

}  // namespace

TEST(Fuzz, PfplChunkSlackRejected) {
  // A size-table entry longer than what its chunk's decoder consumes is
  // damage, not padding: every executor and the stream reader must refuse
  // it, for a compressed chunk (smooth data) and a raw one (random bits).
  std::vector<float> smooth = field_3d(20000, 14), noise(20000);
  data::Rng rng(15);
  for (auto& x : noise) {
    const u32 bits = static_cast<u32>(rng.next_u64());
    std::memcpy(&x, &bits, sizeof(x));
  }
  for (const auto* v : {&smooth, &noise}) {
    const Bytes c = pfpl::compress(Field(v->data(), v->size()), {1e-3, EbType::ABS});
    const pfpl::Header h = pfpl::peek_header(c);
    u32 first_entry;
    std::memcpy(&first_entry, c.data() + sizeof(pfpl::Header), sizeof(u32));
    ASSERT_EQ((first_entry & pfpl::kRawChunkFlag) != 0, v == &noise);
    for (std::size_t chunk : {std::size_t{0}, std::size_t{h.chunk_count - 1}}) {
      const Bytes bad = with_pfpl_chunk_slack(c, chunk);
      for (pfpl::Executor exec :
           {pfpl::Executor::Serial, pfpl::Executor::OpenMP, pfpl::Executor::GpuSim}) {
        EXPECT_NO_THROW(pfpl::decompress(c, exec));
        EXPECT_THROW(pfpl::decompress(bad, exec), CompressionError) << "chunk " << chunk;
      }
      std::vector<float> out(v->size());
      EXPECT_THROW(pfpl::StreamDecoder(bad).read(std::span<float>(out)), CompressionError);
      EXPECT_EQ(pfpl::StreamDecoder(c).read(std::span<float>(out)), out.size());
    }
  }
}

TEST(Fuzz, FzGpuChunkSlackRejected) {
  // The FZ-GPU-like baseline's chunks are bare zero-byte streams: a size
  // entry longer than its chunk's stream must be refused like PFPL's.
  auto v = field_3d(24 * 24 * 24, 16);
  const Field field(v.data(), {24, 24, 24});
  const auto fz = baselines::find_compressor("FZ-GPU_CUDAsim");
  const Bytes c = fz->compress(field, 1e-3, EbType::NOA);
  const std::size_t nchunks = (v.size() + 4095) / 4096;
  ASSERT_GT(nchunks, 1u);
  EXPECT_NO_THROW(fz->decompress(c));
  for (std::size_t chunk : {std::size_t{0}, nchunks - 1})
    EXPECT_THROW(fz->decompress(with_chunk_slack(c, sizeof(baselines::BaselineHeader), nchunks,
                                                 chunk)),
                 CompressionError)
        << "chunk " << chunk;
}

TEST(Fuzz, LcZeroByteStageSlackRejected) {
  // In an LC pipeline the last stage's payload is the rest of the buffer, so
  // one junk byte at the end lengthens the zbe stage's input by one.
  auto v = field_3d(8192, 17);
  std::vector<u8> raw(v.size() * sizeof(float));
  std::memcpy(raw.data(), v.data(), raw.size());
  const lc::Pipeline p(
      {lc::make_diff_negabinary(32), lc::make_bitshuffle(32), lc::make_zerobyte()});
  std::vector<u8> enc = p.encode(raw);
  EXPECT_EQ(p.decode(enc, raw.size()), raw);
  enc.push_back(0x5A);
  EXPECT_THROW(p.decode(enc, raw.size()), CompressionError);
}

TEST(Fuzz, ZeroByteTiersAgreeOnMutatedSuiteChunks) {
  tiers::for_each_rung(common::Isa::Avx2, [&] {
    // Every compressed chunk of one small file per paper suite, under bounded
    // seeded damage: bit flips in the front of the chunk, where the top bitmap
    // and the repeat bytes sit; truncation by 1..8 bytes; one slack byte.
    data::Rng rng(18);
    const std::vector<data::SuiteSpec> specs = data::paper_suites();
    std::size_t compressed = 0;
    for (std::size_t si = 0; si < specs.size(); ++si) {
      const data::Suite suite = data::generate(specs[si], 1 << 14, 1);
      const data::SyntheticFile& file = suite.files.at(0);
      const EbType eb = si % 3 == 0 ? EbType::ABS : si % 3 == 1 ? EbType::REL : EbType::NOA;
      const Bytes c = pfpl::compress(file.field(), {1e-3, eb});
      const pfpl::Header h = pfpl::peek_header(c);
      const std::size_t width = h.dtype == DType::F32 ? 4 : 8;
      const std::size_t per_chunk = pfpl::kChunkBytes / width;
      const std::size_t table = sizeof(pfpl::Header);
      const std::vector<u32> sizes = chunk_sizes(c, table, h.chunk_count);
      std::size_t off = table + sizes.size() * sizeof(u32);
      for (std::size_t ci = 0; ci < sizes.size(); ++ci) {
        const std::size_t at = off, csize = sizes[ci] & ~pfpl::kRawChunkFlag;
        off += csize;
        if (sizes[ci] & pfpl::kRawChunkFlag) continue;
        ++compressed;
        const std::vector<u8> payload(c.begin() + static_cast<std::ptrdiff_t>(at),
                                      c.begin() + static_cast<std::ptrdiff_t>(at + csize));
        const std::size_t k = std::min(per_chunk, h.value_count - ci * per_chunk);
        const std::size_t n = (width == 4 ? pfpl::padded_words<u32>(k)
                                          : pfpl::padded_words<u64>(k)) * width;
        const std::string what = specs[si].name + " chunk " + std::to_string(ci);
        tiers::expect_decode_agrees(payload, n, what);
        const std::size_t front = std::min<std::size_t>(payload.size(), 256);
        for (int t = 0; t < 8; ++t) {
          std::vector<u8> bad = payload;
          for (int f = 0; f <= t % 3; ++f)
            bad[rng.next_u64() % front] ^= static_cast<u8>(1u << (rng.next_u64() % 8));
          tiers::expect_decode_agrees(bad, n, what + " flip " + std::to_string(t));
        }
        for (std::size_t cut = 1; cut <= std::min<std::size_t>(8, payload.size()); ++cut)
          tiers::expect_decode_agrees(std::vector<u8>(payload.begin(), payload.end() - cut), n,
                                      what + " cut " + std::to_string(cut));
        std::vector<u8> slack = payload;
        slack.push_back(static_cast<u8>(rng.next_u64()));
        tiers::expect_decode_agrees(slack, n, what + " slack");
      }
    }
    EXPECT_GE(compressed, specs.size()) << "too few compressed chunks to compare";
  });
}

TEST(Fuzz, PfplTruncationsAllLengths) {
  auto v = field_3d(20000, 1);
  Bytes c = pfpl::compress(Field(v.data(), v.size()), {1e-3, EbType::ABS});
  data::Rng rng(2);
  for (int t = 0; t < 200; ++t) {
    std::size_t len = rng.next_u64() % c.size();
    Bytes cut(c.begin(), c.begin() + len);
    expect_graceful([&] { pfpl::decompress(cut); });
  }
}

TEST(Fuzz, PfplRandomByteFlips) {
  auto v = field_3d(20000, 3);
  for (EbType eb : {EbType::ABS, EbType::REL}) {
    Bytes c = pfpl::compress(Field(v.data(), v.size()), {1e-3, eb});
    data::Rng rng(4);
    for (int t = 0; t < 300; ++t) {
      Bytes bad = c;
      int flips = 1 + static_cast<int>(rng.next_u64() % 8);
      for (int f = 0; f < flips; ++f)
        bad[rng.next_u64() % bad.size()] ^= static_cast<u8>(1u << (rng.next_u64() % 8));
      expect_graceful([&] { pfpl::decompress(bad); });
    }
  }
}

TEST(Fuzz, PfplHeaderFieldCorruption) {
  auto v = field_3d(5000, 5);
  Bytes c = pfpl::compress(Field(v.data(), v.size()), {1e-3, EbType::ABS});
  // Exhaustively flip each byte of the header and the chunk table.
  std::size_t scan = std::min<std::size_t>(c.size(), 256);
  for (std::size_t i = 0; i < scan; ++i) {
    for (u8 bit = 0; bit < 8; ++bit) {
      Bytes bad = c;
      bad[i] ^= static_cast<u8>(1u << bit);
      expect_graceful([&] { pfpl::decompress(bad); });
    }
  }
}

TEST(Fuzz, PfplRandomGarbageInput) {
  data::Rng rng(6);
  for (int t = 0; t < 200; ++t) {
    Bytes junk(rng.next_u64() % 4096);
    for (auto& b : junk) b = static_cast<u8>(rng.next_u64());
    expect_graceful([&] { pfpl::decompress(junk); });
  }
}

TEST(Fuzz, PfplGpuSimDecoderEquallyRobust) {
  auto v = field_3d(20000, 7);
  Bytes c = pfpl::compress(Field(v.data(), v.size()), {1e-3, EbType::ABS});
  data::Rng rng(8);
  for (int t = 0; t < 100; ++t) {
    Bytes bad = c;
    bad[rng.next_u64() % bad.size()] ^= 0xFF;
    expect_graceful([&] { pfpl::decompress(bad, pfpl::Executor::GpuSim); });
  }
}

TEST(Fuzz, HuffmanStreams) {
  std::vector<u16> syms(5000);
  data::Rng rng(9);
  for (auto& s : syms) s = static_cast<u16>(rng.next_u64() % 300);
  Bytes enc = lossless::huffman_encode(syms);
  for (int t = 0; t < 300; ++t) {
    Bytes bad = enc;
    bad[rng.next_u64() % bad.size()] ^= static_cast<u8>(rng.next_u64());
    expect_graceful([&] { lossless::huffman_decode(bad); });
  }
  for (std::size_t len = 0; len < std::min<std::size_t>(enc.size(), 64); ++len) {
    Bytes cut(enc.begin(), enc.begin() + len);
    expect_graceful([&] { lossless::huffman_decode(cut); });
  }
}

TEST(Fuzz, HostileLosslessSizesAreTypedErrors) {
  // Size fields no CRC covers: a Huffman alphabet beyond the u16 symbols,
  // and SZ section sizes whose sum wraps, must be refused before anything is
  // sized or read from them.
  Bytes huff(16, 0);
  common::put_le(huff.data() + 8, u32{0xFFFFFFFFu});
  EXPECT_THROW(lossless::huffman_decode(huff), CompressionError);
  Bytes sz(24, 0);
  common::put_le(sz.data(), ~u64{0} - 15);  // 16 + body + outliers wraps to 16
  common::put_le(sz.data() + 8, u64{16});
  common::put_le(sz.data() + 16, u64{1});  // the LZ body claims one byte
  EXPECT_THROW(baselines::sz_unpack(sz.data(), sz.size()), CompressionError);
}

TEST(Fuzz, LzStreams) {
  std::vector<u8> data(5000);
  data::Rng rng(10);
  for (auto& b : data) b = static_cast<u8>(rng.next_u64() % 5);
  Bytes enc = lossless::lz_encode(data);
  for (int t = 0; t < 300; ++t) {
    Bytes bad = enc;
    bad[rng.next_u64() % bad.size()] ^= static_cast<u8>(rng.next_u64());
    expect_graceful([&] { lossless::lz_decode(bad); });
  }
}

TEST(Fuzz, AllBaselineDecodersSurviveCorruption) {
  auto v = field_3d(16 * 16 * 16, 11);
  Field field(v.data(), {16, 16, 16});
  data::Rng rng(12);
  for (const auto& comp : baselines::all_compressors()) {
    Features f = comp->features();
    EbType eb = f.abs ? EbType::ABS : (f.noa ? EbType::NOA : EbType::REL);
    if (!f.f32) continue;
    Bytes c;
    try {
      c = comp->compress(field, 1e-3, eb);
    } catch (const CompressionError&) {
      continue;  // shape-restricted compressor
    }
    for (int t = 0; t < 100; ++t) {
      Bytes bad = c;
      bad[rng.next_u64() % bad.size()] ^= static_cast<u8>(1u << (rng.next_u64() % 8));
      expect_graceful([&] { comp->decompress(bad); });
      std::size_t len = rng.next_u64() % c.size();
      Bytes cut(c.begin(), c.begin() + len);
      expect_graceful([&] { comp->decompress(cut); });
    }
  }
}

TEST(Fuzz, WrongMagicCrossDecoding) {
  // Feeding one compressor's stream to another must throw, not misparse.
  auto v = field_3d(16 * 16 * 16, 13);
  Field field(v.data(), {16, 16, 16});
  auto all = baselines::all_compressors();
  Bytes pfpl_stream = baselines::find_compressor("PFPL_Serial")->compress(field, 1e-3,
                                                                          EbType::ABS);
  for (const auto& comp : all) {
    if (comp->name().rfind("PFPL", 0) == 0) continue;
    expect_graceful([&] { comp->decompress(pfpl_stream); });
  }
}

// ---------------------------------------------------------------------------
// Structure-aware mutation fuzzer over the five containers (PFPL, PFPA, PFPS,
// PFPV, PFPN). Each target is a seed built from the src/data generators plus
// its layout: the integer length/count/offset fields, the CRC slots, and the
// bytes whose change may alter decoded values undetectably. Iteration i of a
// target is a pure function of (seed, i): truncations at every length first,
// then every field set to 0, max, +1 and -1, then kFlipIterations rounds of
// 1-4 bit flips from Rng(kFuzzSeed + i). Every CRC is re-signed after each
// mutation so the checks behind it are reached.
//
// Invariant: each input throws a CompressionError or gives a reader verdict
// (PFPV prefix, PFPS torn tail or corrupt segment: PFPS open never throws,
// nor does PFPV open past an intact session header); whatever decodes keeps
// the original's bound whenever the mutation left the value bytes alone; and
// no input makes the process hold more than kAllocCap bytes.
//
// Every target runs at every rung of the ISA ladder, its seed built at that
// rung too; each rung is its own test (TEST_PER_RUNG, tests/tiers.hpp).
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::size_t> g_live_bytes{0}, g_peak_bytes{0};
constexpr std::size_t kAllocCap = std::size_t{256} << 20;  // CI's ASan cap is 1 GiB
}  // namespace

// Blocks are counted by malloc_usable_size, not a size prefix, so the
// sanitizers' redzones sit right at each block's edges. Not inlined: GCC's
// -Wmismatched-new-delete misreads an inlined free().
[[gnu::noinline]] void* operator new(std::size_t n) {
  if (n > kAllocCap) throw std::bad_alloc();  // fails the iteration: not a typed error
  void* p = std::malloc(n ? n : 1);
  if (!p) throw std::bad_alloc();
  const std::size_t live = g_live_bytes += malloc_usable_size(p);
  for (std::size_t peak = g_peak_bytes; live > peak;)
    if (g_peak_bytes.compare_exchange_weak(peak, live)) break;
  return p;
}

[[gnu::noinline]] void operator delete(void* p) noexcept {
  if (!p) return;
  g_live_bytes -= malloc_usable_size(p);
  std::free(p);
}

void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

namespace {

constexpr u64 kFuzzSeed = 27;
constexpr int kFlipIterations = 400;

struct Span {
  std::size_t at, len;
};
struct CrcSlot {
  std::size_t at, from, len;  ///< u32 at `at` = CRC-32 of [from, from + len)
};

struct Original {
  DType dtype;
  EbType eb;
  double eps;
  Bytes raw;
};

Original original_of(const Field& f, EbType eb, double eps) {
  const u8* p = static_cast<const u8*>(f.data);
  return {f.dtype, eb, eps, Bytes(p, p + f.byte_size())};
}

/// Violations of `o`'s bound by `decoded` over their common prefix.
std::size_t violations(const Original& o, const Bytes& decoded) {
  const std::size_t n = std::min(o.raw.size(), decoded.size()) / dtype_size(o.dtype);
  if (o.dtype == DType::F32)
    return metrics::count_violations({reinterpret_cast<const float*>(o.raw.data()), n},
                                     {reinterpret_cast<const float*>(decoded.data()), n},
                                     o.eps, o.eb);
  return metrics::count_violations({reinterpret_cast<const double*>(o.raw.data()), n},
                                   {reinterpret_cast<const double*>(decoded.data()), n}, o.eps,
                                   o.eb);
}

/// Collects invariant violations of one iteration.
struct Check {
  const std::vector<Original>& originals;
  bool values_intact;
  std::string problem;
  bool verdict = false;  ///< the reader recovered from damage it reported

  /// `decoded` came from original `o` (an out-of-range index maps nowhere).
  void bound(const Bytes& decoded, std::size_t o) {
    if (!values_intact || o >= originals.size()) return;
    if (const std::size_t bad = violations(originals[o], decoded))
      problem += std::to_string(bad) + " bound violation(s) in field " + std::to_string(o) + "; ";
  }
  void expect(bool ok, const char* what) {
    if (values_intact && !ok) problem += std::string(what) + "; ";
  }
};

/// One container to fuzz: its seed and its layout.
struct Target {
  std::string name;
  Bytes seed;
  std::vector<Span> fields;   ///< integer length/count/offset fields
  std::vector<CrcSlot> crcs;  ///< re-signed after each mutation, innermost first
  std::vector<Span> values;   ///< bytes whose change may alter decoded values undetectably
  /// Decodes `input`: throws CompressionError, or returns after reporting
  /// what it decoded to `check`.
  std::function<void(const Bytes& input, Check& check)> decode;
};

struct Mutation {
  Bytes bytes;
  std::string what;
  bool values_intact = true;
};

bool overlaps(const std::vector<Span>& spans, std::size_t at, std::size_t len) {
  for (const Span& s : spans)
    if (at < s.at + s.len && s.at < at + len) return true;
  return false;
}

std::size_t iteration_count(const Target& t) {
  return t.seed.size() + 4 * t.fields.size() + kFlipIterations;
}

/// Iteration `i` of target `t`, CRCs re-signed.
Mutation mutate(const Target& t, std::size_t i) {
  Mutation m{t.seed, "", true};
  if (i < t.seed.size()) {
    // A fresh buffer, not resize(): a read past the cut must leave the
    // allocation for the sanitizers to see it.
    m.bytes = Bytes(t.seed.begin(), t.seed.begin() + static_cast<std::ptrdiff_t>(i));
    m.what = "truncate to " + std::to_string(i) + " bytes";
  } else if ((i -= t.seed.size()) < 4 * t.fields.size()) {
    const Span f = t.fields[i / 4];
    u64 v = 0;
    for (std::size_t b = 0; b < f.len; ++b) v |= u64{m.bytes[f.at + b]} << (8 * b);
    const u64 max = f.len == 8 ? ~u64{0} : (u64{1} << (8 * f.len)) - 1;
    const u64 set[4] = {0, max, (v + 1) & max, (v - 1) & max};
    for (std::size_t b = 0; b < f.len; ++b)
      m.bytes[f.at + b] = static_cast<u8>(set[i % 4] >> (8 * b));
    m.what = "field at byte " + std::to_string(f.at) + " (" + std::to_string(f.len) +
             " B) set to " + std::to_string(set[i % 4]);
    m.values_intact = !overlaps(t.values, f.at, f.len);
  } else {
    i -= 4 * t.fields.size();
    data::Rng rng(kFuzzSeed + i);
    const int flips = 1 + static_cast<int>(rng.next_u64() % 4);
    m.what = "bit flips at";
    for (int k = 0; k < flips; ++k) {
      const std::size_t at = rng.next_u64() % m.bytes.size();
      const unsigned bit = static_cast<unsigned>(rng.next_u64() % 8);
      m.bytes[at] ^= static_cast<u8>(1u << bit);
      m.what += " " + std::to_string(at) + "." + std::to_string(bit);
      if (overlaps(t.values, at, 1)) m.values_intact = false;
    }
  }
  for (const CrcSlot& c : t.crcs)
    if (c.at + 4 <= m.bytes.size() && c.from + c.len <= m.bytes.size())
      common::put_le(m.bytes.data() + c.at, common::crc32(m.bytes.data() + c.from, c.len));
  return m;
}

/// Runs every iteration of `t` and checks the invariant against `originals`.
void fuzz(const Target& t, const std::vector<Original>& originals) {
  ASSERT_FALSE(t.seed.empty()) << t.name;
  std::size_t failures = 0, rejected = 0;
  const std::size_t n = iteration_count(t);
  std::printf("%s: %zu iterations\n", t.name.c_str(), n);
  for (std::size_t i = 0; i < n && failures < 5; ++i) {
    const Mutation m = mutate(t, i);
    Check check{originals, m.values_intact, ""};
    const std::size_t base = g_live_bytes;
    g_peak_bytes = base;
    try {
      t.decode(m.bytes, check);
      rejected += check.verdict;
    } catch (const CompressionError&) {
      ++rejected;
    } catch (const std::exception& e) {
      check.problem += std::string("untyped exception: ") + e.what() + "; ";
    }
    if (g_peak_bytes - base > kAllocCap)
      check.problem += "peak allocation " + std::to_string(g_peak_bytes - base) + " bytes; ";
    const std::string& problem = check.problem;
    if (problem.empty()) continue;
    ++failures;
    const std::string saved = (fs::temp_directory_path() /
                               ("pfpl_fuzz_" + t.name + "_" + std::to_string(i) + ".bin"))
                                  .string();
    io::write_file(saved, m.bytes.data(), m.bytes.size());
    ADD_FAILURE() << t.name << " seed " << kFuzzSeed << " iteration " << i << " (" << m.what
                  << "): " << problem << "input saved to " << saved;
  }
  EXPECT_GT(rejected, 0u) << t.name << ": no mutation was rejected";
}

// --- Seeds from the src/data generators ------------------------------------

data::SyntheticFile suite_file(DType dtype, std::size_t values, std::size_t pick = 0) {
  for (const data::SuiteSpec& spec : data::paper_suites())
    if (spec.dtype == dtype && pick-- == 0) return data::generate(spec, values, 1).files.at(0);
  throw std::logic_error("no suite of that dtype");
}

/// Layout of a PFPL stream at byte `at` of a container.
void pfpl_layout(const Bytes& s, std::size_t at, Target& t) {
  const pfpl::Header h = pfpl::peek_header(Bytes(s.begin() + at, s.end()));
  t.fields.push_back({at + 24, 8});  // value_count
  t.fields.push_back({at + 32, 4});  // chunk_count
  t.values.push_back({at + 6, 18});  // dtype, eb, eps, recon_param
  std::size_t end = at + sizeof(pfpl::Header) + 4 * h.chunk_count;
  for (std::size_t c = 0; c < h.chunk_count; ++c) {
    t.fields.push_back({at + sizeof(pfpl::Header) + 4 * c, 4});
    end += common::get_le<u32>(s.data() + at + sizeof(pfpl::Header) + 4 * c) & ~pfpl::kRawChunkFlag;
  }
  const std::size_t payload = at + sizeof(pfpl::Header) + 4 * h.chunk_count;
  t.values.push_back({payload, end - payload});
}

/// A scratch path of the running test: each rung's test is its own ctest
/// entry, and ctest may run them at once.
std::string fuzz_dir(const std::string& name) {
  const std::string test = ::testing::UnitTest::GetInstance()->current_test_info()->name();
  return (fs::temp_directory_path() / ("pfpl_fuzz_" + test + "_" + name)).string();
}

}  // namespace

TEST_PER_RUNG(ContainerFuzz, Pfpl) {
  const data::SyntheticFile a = suite_file(DType::F32, 3 * 4096);
  const data::SyntheticFile b = suite_file(DType::F64, 2 * 2048);
  for (const auto& [file, eb] : {std::pair{&a, EbType::ABS}, std::pair{&b, EbType::REL}}) {
    Target t;
    t.name = std::string("pfpl_") + to_string(file->dtype);
    t.seed = pfpl::compress(file->field(), {1e-3, eb});
    pfpl_layout(t.seed, 0, t);
    t.decode = [](const Bytes& in, Check& c) { c.bound(pfpl::decompress(in), 0); };
    fuzz(t, {original_of(file->field(), eb, 1e-3)});
  }
}

TEST_PER_RUNG(ContainerFuzz, Pfpa) {
  const std::string path = fuzz_dir("archive.pfpa");
  std::vector<Original> originals;
  std::vector<data::SyntheticFile> files = {suite_file(DType::F32, 1024),
                                            suite_file(DType::F64, 512)};
  {
    svc::ArchiveWriter w(path);
    for (std::size_t i = 0; i < files.size(); ++i) {
      const EbType eb = i == 0 ? EbType::ABS : EbType::REL;
      const Bytes s = pfpl::compress(files[i].field(), {1e-3, eb});
      w.add("f" + std::to_string(i) + ".raw", pfpl::peek_header(s), s, files[i].byte_size());
      originals.push_back(original_of(files[i].field(), eb, 1e-3));
    }
    w.finish();
  }
  Target t;
  t.name = "pfpa";
  t.seed = io::read_file(path);
  const std::size_t foot = t.seed.size() - svc::kArchiveFooterSize;
  const std::size_t index_at = common::get_le<u64>(t.seed.data() + foot);
  {
    svc::ArchiveReader r(path);
    std::size_t at = index_at;
    for (const svc::ArchiveEntry& e : r.entries()) {
      pfpl_layout(t.seed, e.offset, t);
      const std::size_t rec = at + 2 + e.name.size();  // past name_len and the name
      t.fields.push_back({at, 2});
      for (std::size_t f : {rec + 10, rec + 18, rec + 26, rec + 34}) t.fields.push_back({f, 8});
      t.crcs.push_back({rec + 42, e.offset, e.size});
      at = rec + 50;
    }
  }
  for (std::size_t f : {foot, foot + 8}) t.fields.push_back({f, 8});
  t.fields.push_back({foot + 16, 4});
  t.crcs.push_back({foot + 20, index_at, foot - index_at});
  t.decode = [&](const Bytes& in, Check& c) {
    io::write_file(path, in.data(), in.size());
    svc::ArchiveReader r(path);
    for (std::size_t i = 0; i < r.entries().size(); ++i)
      c.bound(pfpl::decompress(r.read_entry(r.entries()[i])), i);
  };
  fuzz(t, originals);
  fs::remove(path);
}

TEST_PER_RUNG(ContainerFuzz, Pfps) {
  // Two segments of two frames each plus the manifest; each file is its own
  // target, written beside pristine copies of the other two.
  const std::string dir = fuzz_dir("store");
  fs::remove_all(dir);
  store::SegmentStore::Options opts;
  opts.dir = dir;
  opts.max_segment_bytes = 640;
  std::vector<Original> originals;
  std::map<common::Hash128, std::size_t> key_of;
  {
    store::SegmentStore st(opts);
    for (std::size_t i = 0; i < 4; ++i) {
      const data::SyntheticFile f = suite_file(DType::F32, 128, i);
      const Bytes s = pfpl::compress(f.field(), {1e-3, EbType::ABS});
      const common::Hash128 key = common::hash128(s.data(), s.size());
      ASSERT_TRUE(st.put(key, s, {DType::F32, EbType::ABS, 1e-3, f.byte_size()}));
      key_of[key] = originals.size();
      originals.push_back(original_of(f.field(), EbType::ABS, 1e-3));
    }
  }
  const std::vector<std::string> names = {"seg-00000001.pfps", "seg-00000002.pfps",
                                          "manifest.pfps"};
  std::vector<Bytes> pristine;
  for (const std::string& n : names) pristine.push_back(io::read_file(dir + "/" + n));
  ASSERT_GT(pristine[1].size(), store::kSegmentHeaderSize) << "expected two segments";
  for (std::size_t which = 0; which < names.size(); ++which) {
    Target t;
    t.name = "pfps_" + names[which].substr(0, names[which].find('.'));
    t.seed = pristine[which];
    if (which < 2) {
      t.fields.push_back({8, 8});  // segment id
      for (std::size_t at = store::kSegmentHeaderSize; at < t.seed.size();) {
        const std::size_t len = common::get_le<u64>(t.seed.data() + at + 48);
        for (std::size_t f : {at + 40, at + 48}) t.fields.push_back({f, 8});
        t.crcs.push_back({at + 28, at + store::kChunkFrameHeaderSize, len});
        t.crcs.push_back({at + 4, at + 8, store::kChunkFrameHeaderSize - 8});
        t.values.push_back({at + store::kChunkFrameHeaderSize, len});
        at += store::kChunkFrameHeaderSize + len;
      }
    } else {
      for (std::size_t f = 8; f + 4 < t.seed.size(); f += 8) t.fields.push_back({f, 8});
      t.crcs.push_back({t.seed.size() - 4, 0, t.seed.size() - 4});
    }
    t.decode = [&, which](const Bytes& in, Check& c) {
      fs::remove_all(dir);
      fs::create_directories(dir);
      for (std::size_t k = 0; k < names.size(); ++k) {
        const Bytes& b = k == which ? in : pristine[k];
        io::write_file(dir + "/" + names[k], b.data(), b.size());
      }
      // Open must not throw: a torn or corrupt segment is a verdict.
      std::optional<store::SegmentStore> st;
      try {
        st.emplace(opts);
      } catch (const CompressionError& e) {
        throw std::logic_error(std::string("PFPS open threw: ") + e.what());
      }
      const store::SegmentStore::OpenReport& rep = st->open_report();
      c.verdict = rep.torn_bytes || rep.corrupt_segments || rep.manifest_recovered;
      for (const store::StoredChunk& chunk : st->entries()) {
        Bytes payload;
        if (!st->get(chunk.key, payload)) throw std::logic_error("indexed key not found");
        const auto it = key_of.find(chunk.key);
        c.bound(pfpl::decompress(payload), it == key_of.end() ? originals.size() : it->second);
      }
    };
    fuzz(t, originals);
  }
  fs::remove_all(dir);
}

TEST_PER_RUNG(ContainerFuzz, Pfpv) {
  const data::FrameSequence seq =
      data::generate_evolving(data::find_evolving("advect"), 512, 6);
  temporal::SessionConfig cfg;
  cfg.eps = 1e-3;
  cfg.dims = {static_cast<u32>(seq.dims[0]), static_cast<u32>(seq.dims[1]),
              static_cast<u32>(seq.dims[2])};
  cfg.keyframe_interval = 4;
  const std::string path = fuzz_dir("stream.pfpv");
  std::vector<Original> originals;
  {
    temporal::FrameEncoder enc(cfg);
    temporal::StreamWriter w(path, cfg);
    for (std::size_t i = 0; i < seq.frames(); ++i) {
      w.append(enc.encode(seq.frame(i)));
      originals.push_back(original_of(seq.frame(i), EbType::ABS, cfg.eps));
    }
    w.finish();
  }
  Target t;
  t.name = "pfpv";
  t.seed = io::read_file(path);
  fs::remove(path);
  for (std::size_t f : {16, 20, 24, 28}) t.fields.push_back({f, 4});  // dims, interval
  t.values.push_back({6, 10});                                        // dtype, eb, eps
  t.crcs.push_back({36, 0, 36});
  const std::size_t foot = t.seed.size() - temporal::kPfpvFooterSize;
  const std::size_t index_at = common::get_le<u64>(t.seed.data() + foot);
  for (std::size_t at = temporal::kPfpvHeaderSize; at < index_at;) {
    const std::size_t body = common::get_le<u32>(t.seed.data() + at + 28) +
                             std::size_t{common::get_le<u32>(t.seed.data() + at + 32)};
    t.fields.push_back({at + 8, 8});  // frame_index
    for (std::size_t f : {at + 28, at + 32}) t.fields.push_back({f, 4});
    t.values.push_back({at + 16, 12});  // frame type, reserved, abs_bound
    t.values.push_back({at + temporal::kPfpvRecordHeaderSize, body});
    t.crcs.push_back({at + 36, at + temporal::kPfpvRecordHeaderSize, body});
    t.crcs.push_back({at + 4, at + 8, temporal::kPfpvRecordHeaderSize - 8});
    at += temporal::kPfpvRecordHeaderSize + body;
  }
  t.fields.push_back({index_at + 4, 4});  // entry count
  for (std::size_t f = index_at + 8; f < foot; f += 8) t.fields.push_back({f, 8});
  for (std::size_t f : {foot, foot + 8}) t.fields.push_back({f, 8});
  t.crcs.push_back({foot + 16, index_at, foot - index_at});
  t.decode = [&seed = t.seed](const Bytes& in, Check& c) {
    // Past an intact session header, damage is a verdict, never an error.
    const bool header_intact =
        in.size() >= temporal::kPfpvHeaderSize &&
        std::equal(seed.begin(), seed.begin() + temporal::kPfpvHeaderSize, in.begin());
    std::optional<temporal::StreamReader> reader;
    try {
      reader.emplace(Bytes(in));
    } catch (const CompressionError& e) {
      if (header_intact) throw std::logic_error(std::string("PFPV open threw: ") + e.what());
      throw;
    }
    const temporal::StreamReader& r = *reader;
    c.verdict = r.truncated();
    temporal::FrameDecoder dec(r.config());
    for (std::size_t i = 0; i < r.frame_count(); ++i) c.bound(dec.decode(r.frame(i)), i);
  };
  fuzz(t, originals);
}

TEST_PER_RUNG(ContainerFuzz, Pfpn) {
  // A request/response exchange as one byte stream: COMPRESS both ways, a
  // STREAM_OPEN, a typed error and a PING.
  const data::SyntheticFile f = suite_file(DType::F32, 512);
  const Bytes stream = pfpl::compress(f.field(), {1e-3, EbType::ABS});
  const Bytes raw = original_of(f.field(), EbType::ABS, 1e-3).raw;
  u8 open_body[16] = {};
  for (std::size_t d = 0; d < 3; ++d) common::put_le(open_body + 4 * d, u32{8});
  auto header = [](net::Op op, bool response, u64 id) {
    net::FrameHeader h;
    h.op = static_cast<u8>(static_cast<u8>(op) | (response ? net::kResponseBit : 0));
    h.eps = 1e-3;
    h.request_id = id;
    return h;
  };
  const std::vector<Bytes> frames = {
      net::encode_frame(header(net::Op::Compress, false, 1), raw),
      net::encode_frame(header(net::Op::Compress, true, 1), stream),
      net::encode_frame(header(net::Op::StreamOpen, false, 2), open_body, sizeof open_body),
      net::encode_error_frame(3, static_cast<u8>(net::Op::Ping), net::Status::BadParams, "no"),
      net::encode_frame(header(net::Op::Ping, false, 4), nullptr, 0)};
  Target t;
  t.name = "pfpn";
  std::map<std::pair<u64, u8>, Bytes> payload_of;
  for (const Bytes& fr : frames) {
    const std::size_t at = t.seed.size();
    const net::FrameHeader h = net::decode_frame_header(fr.data());
    payload_of[{h.request_id, h.op}] = Bytes(fr.begin() + net::kFrameHeaderSize, fr.end());
    t.seed.insert(t.seed.end(), fr.begin(), fr.end());
    t.fields.push_back({at + 32, 8});  // payload_len
    t.values.push_back({at + 6, 6});   // op, dtype, status, eb_type, reserved
    t.values.push_back({at + 16, 16});  // eps, request_id
    t.values.push_back({at + net::kFrameHeaderSize, h.payload_len});
    t.crcs.push_back({at + 12, at + net::kFrameHeaderSize, h.payload_len});
  }
  pfpl_layout(t.seed, frames[0].size() + net::kFrameHeaderSize, t);
  t.decode = [&](const Bytes& in, Check& c) {
    // Whole, then in 13-byte pieces: both must parse the same frames.
    for (std::size_t piece : {in.size(), std::size_t{13}}) {
      net::FrameParser parser(std::size_t{1} << 16);
      net::Frame fr;
      for (std::size_t at = 0; at < in.size() && !parser.fatal(); at += piece) {
        parser.feed(in.data() + at, std::min(piece, in.size() - at));
        using Result = net::FrameParser::Result;
        for (Result r; (r = parser.next(fr)) != Result::NeedMore;) {
          if (r == Result::Error) {
            if (parser.fatal()) break;
            continue;
          }
          const auto it = payload_of.find({fr.header.request_id, fr.header.op});
          if (it == payload_of.end()) continue;
          c.expect(fr.payload == it->second, "a parsed payload differs from the original");
          if (fr.header.op == (static_cast<u8>(net::Op::Compress) | net::kResponseBit))
            c.bound(pfpl::decompress(fr.payload), 0);
          if (fr.header.op == static_cast<u8>(net::Op::StreamOpen)) {
            common::ByteReader r(fr.payload, "PFPN STREAM_OPEN");
            for (int d = 0; d < 4; ++d) r.take<u32>();
          }
        }
      }
    }
  };
  fuzz(t, {original_of(f.field(), EbType::ABS, 1e-3)});
}
