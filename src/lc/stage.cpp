#include "lc/stage.hpp"

#include <cstring>

#include "bits/bitshuffle.hpp"
#include "bits/delta.hpp"
#include "bits/negabinary.hpp"
#include "bits/zerobyte.hpp"
#include "common/bytes.hpp"
#include "lossless/lz.hpp"

namespace repro::lc {
namespace {

// Helpers to view a byte chunk as words (trailing partial word passes
// through untouched, as in LC).
template <typename U, typename Fn>
void over_words(std::vector<u8>& data, Fn&& fn) {
  std::size_t n = data.size() / sizeof(U);
  if (n == 0) return;
  std::vector<U> w(n);
  std::memcpy(w.data(), data.data(), n * sizeof(U));
  fn(w.data(), n);
  std::memcpy(data.data(), w.data(), n * sizeof(U));
}

template <typename U>
class DiffStage final : public Stage {
 public:
  std::string name() const override {
    return sizeof(U) == 4 ? "diff32" : "diff64";
  }
  void encode(std::vector<u8>& d) const override {
    over_words<U>(d, [](U* w, std::size_t n) {
      U prev = 0;
      for (std::size_t i = 0; i < n; ++i) {
        U cur = w[i];
        w[i] = static_cast<U>(cur - prev);
        prev = cur;
      }
    });
  }
  void decode(std::vector<u8>& d, std::size_t) const override {
    over_words<U>(d, [](U* w, std::size_t n) {
      U acc = 0;
      for (std::size_t i = 0; i < n; ++i) {
        acc = static_cast<U>(acc + w[i]);
        w[i] = acc;
      }
    });
  }
};

template <typename U>
class DiffNbStage final : public Stage {
 public:
  std::string name() const override {
    return sizeof(U) == 4 ? "diff_nb32" : "diff_nb64";
  }
  void encode(std::vector<u8>& d) const override {
    over_words<U>(d, [](U* w, std::size_t n) { bits::delta_negabinary_encode(w, n); });
  }
  void decode(std::vector<u8>& d, std::size_t) const override {
    over_words<U>(d, [](U* w, std::size_t n) { bits::delta_negabinary_decode(w, n); });
  }
};

template <typename U>
class XorPrevStage final : public Stage {
 public:
  std::string name() const override { return sizeof(U) == 4 ? "xor32" : "xor64"; }
  void encode(std::vector<u8>& d) const override {
    over_words<U>(d, [](U* w, std::size_t n) {
      U prev = 0;
      for (std::size_t i = 0; i < n; ++i) {
        U cur = w[i];
        w[i] = cur ^ prev;
        prev = cur;
      }
    });
  }
  void decode(std::vector<u8>& d, std::size_t) const override {
    over_words<U>(d, [](U* w, std::size_t n) {
      U acc = 0;
      for (std::size_t i = 0; i < n; ++i) {
        acc ^= w[i];
        w[i] = acc;
      }
    });
  }
};

template <typename U>
class NegabinaryStage final : public Stage {
 public:
  std::string name() const override { return sizeof(U) == 4 ? "nb32" : "nb64"; }
  void encode(std::vector<u8>& d) const override {
    over_words<U>(d, [](U* w, std::size_t n) {
      for (std::size_t i = 0; i < n; ++i) w[i] = bits::to_negabinary(w[i]);
    });
  }
  void decode(std::vector<u8>& d, std::size_t) const override {
    over_words<U>(d, [](U* w, std::size_t n) {
      for (std::size_t i = 0; i < n; ++i) w[i] = bits::from_negabinary(w[i]);
    });
  }
};

template <typename U>
class BitShuffleStage final : public Stage {
 public:
  std::string name() const override { return sizeof(U) == 4 ? "bshfl32" : "bshfl64"; }
  void encode(std::vector<u8>& d) const override { apply(d); }
  void decode(std::vector<u8>& d, std::size_t) const override { apply(d); }

 private:
  static void apply(std::vector<u8>& d) {
    constexpr std::size_t tile = sizeof(U) * 8;
    over_words<U>(d, [](U* w, std::size_t n) {
      std::size_t full = n / tile * tile;  // trailing partial tile untouched
      bits::bitshuffle(w, full);
    });
  }
};

/// Byte-granularity transpose: byte k of every word grouped together (the
/// classic HDF5-style "shuffle" filter).
template <typename U>
class ByteShuffleStage final : public Stage {
 public:
  std::string name() const override { return sizeof(U) == 4 ? "byshfl32" : "byshfl64"; }
  void encode(std::vector<u8>& d) const override {
    constexpr std::size_t w = sizeof(U);
    std::size_t n = d.size() / w;
    std::vector<u8> out(d.size());
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t b = 0; b < w; ++b) out[b * n + i] = d[i * w + b];
    std::copy(out.begin(), out.begin() + n * w, d.begin());
  }
  void decode(std::vector<u8>& d, std::size_t) const override {
    constexpr std::size_t w = sizeof(U);
    std::size_t n = d.size() / w;
    std::vector<u8> out(d.size());
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t b = 0; b < w; ++b) out[i * w + b] = d[b * n + i];
    std::copy(out.begin(), out.begin() + n * w, d.begin());
  }
};

class ZeroByteStage final : public Stage {
 public:
  std::string name() const override { return "zbe"; }
  bool size_preserving() const override { return false; }
  void encode(std::vector<u8>& d) const override {
    std::vector<u8> out;
    bits::zerobyte_encode(d.data(), d.size(), out);
    d = std::move(out);
  }
  void decode(std::vector<u8>& d, std::size_t original_size) const override {
    std::vector<u8> out(original_size);
    if (bits::zerobyte_decode(d.data(), d.size(), out.data(), original_size) != d.size())
      throw CompressionError("zbe stage: trailing bytes after the stream");
    d = std::move(out);
  }
};

/// Byte RLE: (count, byte) pairs with 255-continuation for long runs.
class RleStage final : public Stage {
 public:
  std::string name() const override { return "rle"; }
  bool size_preserving() const override { return false; }
  void encode(std::vector<u8>& d) const override {
    std::vector<u8> out;
    out.reserve(d.size());
    std::size_t i = 0;
    while (i < d.size()) {
      u8 b = d[i];
      std::size_t run = 1;
      while (i + run < d.size() && d[i + run] == b) ++run;
      std::size_t r = run;
      while (r > 255) {
        out.push_back(255);
        out.push_back(b);
        r -= 255;
      }
      out.push_back(static_cast<u8>(r));
      out.push_back(b);
      i += run;
    }
    d = std::move(out);
  }
  void decode(std::vector<u8>& d, std::size_t original_size) const override {
    std::vector<u8> out;
    out.reserve(original_size);
    for (std::size_t i = 0; i + 1 < d.size(); i += 2)
      out.insert(out.end(), d[i], d[i + 1]);
    if (out.size() != original_size) throw CompressionError("rle: size mismatch");
    d = std::move(out);
  }
};

class LzStage final : public Stage {
 public:
  std::string name() const override { return "lz"; }
  bool size_preserving() const override { return false; }
  void encode(std::vector<u8>& d) const override { d = lossless::lz_encode(d); }
  void decode(std::vector<u8>& d, std::size_t original_size) const override {
    d = lossless::lz_decode(d.data(), d.size());
    if (d.size() != original_size) throw CompressionError("lz stage: size mismatch");
  }
};

}  // namespace

std::string Pipeline::name() const {
  if (stages_.empty()) return "identity";
  std::string s;
  for (const auto& st : stages_) {
    if (!s.empty()) s += "+";
    s += st->name();
  }
  return s;
}

std::vector<u8> Pipeline::encode(std::vector<u8> data) const {
  // Record the input size of every size-changing stage, exactly like LC's
  // per-chunk length metadata, so decode can invert them in reverse order.
  std::vector<u32> sizes;
  for (const auto& st : stages_) {
    if (!st->size_preserving()) sizes.push_back(static_cast<u32>(data.size()));
    st->encode(data);
  }
  std::vector<u8> out;
  out.reserve(4 + sizes.size() * 4 + data.size());
  common::append_le(out, static_cast<u32>(sizes.size()));
  for (u32 size : sizes) common::append_le(out, size);
  out.insert(out.end(), data.begin(), data.end());
  return out;
}

std::vector<u8> Pipeline::decode(std::vector<u8> data, std::size_t original_size) const {
  common::ByteReader r(data, "lc pipeline");
  const u32 cnt = r.take<u32>();
  const u8* table = r.take_bytes(r.size_for(cnt, 4, "truncated size table"));
  std::vector<u32> sizes(cnt);
  for (u32 i = 0; i < cnt; ++i) sizes[i] = common::get_le<u32>(table + 4 * i);
  data.erase(data.begin(), data.begin() + 4 + cnt * 4);
  std::size_t next_size = cnt;  // consume sizes from the back
  for (std::size_t i = stages_.size(); i-- > 0;) {
    const Stage& st = *stages_[i];
    if (st.size_preserving()) {
      st.decode(data, data.size());
    } else {
      if (next_size == 0) throw CompressionError("lc pipeline: size table underrun");
      st.decode(data, sizes[--next_size]);
    }
  }
  if (data.size() != original_size) throw CompressionError("lc pipeline: size mismatch");
  return data;
}

StagePtr make_diff(int wb) {
  return wb == 32 ? StagePtr(std::make_shared<DiffStage<u32>>())
                  : StagePtr(std::make_shared<DiffStage<u64>>());
}
StagePtr make_diff_negabinary(int wb) {
  return wb == 32 ? StagePtr(std::make_shared<DiffNbStage<u32>>())
                  : StagePtr(std::make_shared<DiffNbStage<u64>>());
}
StagePtr make_xor_prev(int wb) {
  return wb == 32 ? StagePtr(std::make_shared<XorPrevStage<u32>>())
                  : StagePtr(std::make_shared<XorPrevStage<u64>>());
}
StagePtr make_negabinary(int wb) {
  return wb == 32 ? StagePtr(std::make_shared<NegabinaryStage<u32>>())
                  : StagePtr(std::make_shared<NegabinaryStage<u64>>());
}
StagePtr make_bitshuffle(int wb) {
  return wb == 32 ? StagePtr(std::make_shared<BitShuffleStage<u32>>())
                  : StagePtr(std::make_shared<BitShuffleStage<u64>>());
}
StagePtr make_byteshuffle(int wb) {
  return wb == 32 ? StagePtr(std::make_shared<ByteShuffleStage<u32>>())
                  : StagePtr(std::make_shared<ByteShuffleStage<u64>>());
}
StagePtr make_zerobyte() { return std::make_shared<ZeroByteStage>(); }
StagePtr make_rle() { return std::make_shared<RleStage>(); }
StagePtr make_lz() { return std::make_shared<LzStage>(); }

std::vector<StagePtr> component_library(int wb) {
  return {make_diff(wb),       make_diff_negabinary(wb), make_xor_prev(wb),
          make_negabinary(wb), make_bitshuffle(wb),      make_byteshuffle(wb),
          make_zerobyte(),     make_rle(),               make_lz()};
}

}  // namespace repro::lc
