#include "lossless/lz.hpp"

#include <algorithm>
#include <cstring>

#include "common/bytes.hpp"

namespace repro::lossless {
namespace {

constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxDist = 65535;
constexpr u32 kHashBits = 16;

u32 hash4(const u8* p) {
  u32 v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kHashBits);
}

void put_varlen(Bytes& out, std::size_t v) {
  while (v >= 255) {
    out.push_back(255);
    v -= 255;
  }
  out.push_back(static_cast<u8>(v));
}

std::size_t get_varlen(const u8* data, std::size_t size, std::size_t& pos) {
  std::size_t v = 0;
  for (;;) {
    if (pos >= size) throw CompressionError("lz: truncated length");
    u8 b = data[pos++];
    v += b;
    if (b != 255) return v;
  }
}

}  // namespace

Bytes lz_encode(std::span<const u8> in) {
  Bytes out;
  common::append_le(out, u64{in.size()});
  if (in.empty()) return out;

  std::vector<u32> head(std::size_t{1} << kHashBits, 0xFFFFFFFFu);
  std::size_t pos = 0, literal_start = 0;

  auto emit_sequence = [&](std::size_t lit_count, std::size_t match_len, std::size_t dist) {
    // Token: high nibble literals (15 = extended), low nibble match-4
    // (15 = extended); dist == 0 marks the final literal-only sequence.
    u8 tok = static_cast<u8>(std::min<std::size_t>(lit_count, 15) << 4);
    std::size_t mcode = dist ? match_len - kMinMatch : 0;
    tok |= static_cast<u8>(std::min<std::size_t>(mcode, 15));
    out.push_back(tok);
    if (lit_count >= 15) put_varlen(out, lit_count - 15);
    out.insert(out.end(), in.data() + literal_start, in.data() + literal_start + lit_count);
    out.push_back(static_cast<u8>(dist & 0xFF));
    out.push_back(static_cast<u8>(dist >> 8));
    if (dist && mcode >= 15) put_varlen(out, mcode - 15);
  };

  while (pos < in.size()) {
    std::size_t best_len = 0, best_dist = 0;
    if (pos + kMinMatch <= in.size()) {
      u32 h = hash4(in.data() + pos);
      u32 cand = head[h];
      if (cand != 0xFFFFFFFFu && pos - cand <= kMaxDist) {
        std::size_t len = 0;
        std::size_t limit = in.size() - pos;
        while (len < limit && in[cand + len] == in[pos + len]) ++len;
        if (len >= kMinMatch) {
          best_len = len;
          best_dist = pos - cand;
        }
      }
      head[h] = static_cast<u32>(pos);
    }
    if (best_len) {
      emit_sequence(pos - literal_start, best_len, best_dist);
      // Insert hash entries inside the match (sparsely, every 2 bytes).
      std::size_t end = pos + best_len;
      for (std::size_t p = pos + 1; p + kMinMatch <= in.size() && p < end; p += 2)
        head[hash4(in.data() + p)] = static_cast<u32>(p);
      pos = end;
      literal_start = pos;
    } else {
      ++pos;
    }
  }
  emit_sequence(pos - literal_start, 0, 0);  // final literals
  return out;
}

std::vector<u8> lz_decode(const u8* data, std::size_t size) {
  if (size < 8) throw CompressionError("lz: truncated header");
  const u64 n = common::get_le<u64>(data);
  // Cap the up-front reservation: a corrupted header must not drive a giant
  // allocation (the decode loop's own bounds checks catch the corruption).
  std::vector<u8> out;
  out.reserve(std::min<u64>(n, size * 256));
  std::size_t pos = 8;
  while (out.size() < n) {
    if (pos >= size) throw CompressionError("lz: truncated token");
    u8 tok = data[pos++];
    std::size_t lit = tok >> 4;
    if (lit == 15) lit += get_varlen(data, size, pos);
    if (pos + lit > size) throw CompressionError("lz: truncated literals");
    out.insert(out.end(), data + pos, data + pos + lit);
    pos += lit;
    if (pos + 2 > size) throw CompressionError("lz: truncated distance");
    std::size_t dist = data[pos] | (static_cast<std::size_t>(data[pos + 1]) << 8);
    pos += 2;
    if (dist == 0) break;  // final sequence
    std::size_t mlen = (tok & 15);
    if (mlen == 15) mlen += get_varlen(data, size, pos);
    mlen += kMinMatch;
    if (dist > out.size()) throw CompressionError("lz: bad distance");
    std::size_t src = out.size() - dist;
    for (std::size_t i = 0; i < mlen; ++i) out.push_back(out[src + i]);
  }
  if (out.size() != n) throw CompressionError("lz: size mismatch");
  return out;
}

}  // namespace repro::lossless
