#include "lossless/huffman.hpp"

#include <algorithm>
#include <cstring>
#include <queue>

#include "common/bytes.hpp"
#include "lossless/bitio.hpp"

namespace repro::lossless {
namespace {

/// Compute Huffman code lengths from frequencies (two-queue method after
/// sorting); lengths are capped at kHuffMaxBits by halving frequencies and
/// rebuilding, which converges quickly and loses a negligible fraction of
/// optimality.
std::vector<u8> code_lengths(std::vector<u64> freq) {
  const std::size_t n = freq.size();
  std::vector<u8> len(n, 0);
  for (;;) {
    struct Node {
      u64 f;
      i32 left, right, sym;  // sym >= 0 for leaves
    };
    std::vector<Node> nodes;
    std::vector<i32> live;
    for (std::size_t s = 0; s < n; ++s)
      if (freq[s] > 0) {
        nodes.push_back({freq[s], -1, -1, static_cast<i32>(s)});
        live.push_back(static_cast<i32>(nodes.size() - 1));
      }
    std::fill(len.begin(), len.end(), u8{0});
    if (live.empty()) return len;
    if (live.size() == 1) {
      len[static_cast<std::size_t>(nodes[live[0]].sym)] = 1;
      return len;
    }
    auto cmp = [&](i32 a, i32 b) { return nodes[a].f > nodes[b].f; };
    std::priority_queue<i32, std::vector<i32>, decltype(cmp)> pq(cmp, live);
    while (pq.size() > 1) {
      i32 a = pq.top();
      pq.pop();
      i32 b = pq.top();
      pq.pop();
      nodes.push_back({nodes[a].f + nodes[b].f, a, b, -1});
      pq.push(static_cast<i32>(nodes.size() - 1));
    }
    // Depth-first depth assignment.
    struct Item {
      i32 node;
      u8 depth;
    };
    std::vector<Item> stack{{pq.top(), 0}};
    u8 max_len = 0;
    while (!stack.empty()) {
      Item it = stack.back();
      stack.pop_back();
      const Node& nd = nodes[static_cast<std::size_t>(it.node)];
      if (nd.sym >= 0) {
        len[static_cast<std::size_t>(nd.sym)] = it.depth;
        max_len = std::max(max_len, it.depth);
      } else {
        stack.push_back({nd.left, static_cast<u8>(it.depth + 1)});
        stack.push_back({nd.right, static_cast<u8>(it.depth + 1)});
      }
    }
    if (max_len <= kHuffMaxBits) return len;
    for (u64& f : freq)
      if (f > 1) f = (f + 1) / 2;
  }
}

struct CanonicalCode {
  std::vector<u32> code;  // per symbol
  std::vector<u8> len;    // per symbol
};

/// Assign canonical codes in (length, symbol) order.
CanonicalCode canonicalize(const std::vector<u8>& len) {
  CanonicalCode cc;
  cc.len = len;
  cc.code.assign(len.size(), 0);
  std::vector<u32> count(kHuffMaxBits + 1, 0);
  for (u8 l : len)
    if (l) ++count[l];
  std::vector<u32> next(kHuffMaxBits + 2, 0);
  u32 code = 0;
  for (unsigned l = 1; l <= kHuffMaxBits; ++l) {
    code = (code + count[l - 1]) << 1;
    next[l] = code;
  }
  for (std::size_t s = 0; s < len.size(); ++s)
    if (len[s]) cc.code[s] = next[len[s]]++;
  return cc;
}

}  // namespace

Bytes huffman_encode(std::span<const u16> syms) {
  u32 max_sym = 0;
  for (u16 s : syms) max_sym = std::max<u32>(max_sym, s);
  std::vector<u64> freq(syms.empty() ? 1 : max_sym + 1, 0);
  for (u16 s : syms) ++freq[s];
  std::vector<u8> len = code_lengths(freq);
  CanonicalCode cc = canonicalize(len);

  Bytes out;
  const u32 alphabet = static_cast<u32>(freq.size());
  common::append_le(out, u64{syms.size()});
  common::append_le(out, alphabet);
  // Table: (symbol u16, len u8) for present symbols.
  u32 present = 0;
  for (u8 l : len) present += l > 0;
  common::append_le(out, present);
  for (u32 s = 0; s < alphabet; ++s)
    if (len[s]) {
      common::append_le(out, static_cast<u16>(s));
      out.push_back(len[s]);
    }
  BitWriter bw(out);
  for (u16 s : syms) {
    // Canonical codes are emitted MSB-first so decode can walk lengths.
    u32 c = cc.code[s];
    for (int b = cc.len[s] - 1; b >= 0; --b) bw.put_bit((c >> b) & 1u);
  }
  bw.flush();
  return out;
}

std::vector<u16> huffman_decode(const u8* data, std::size_t size, std::size_t* consumed) {
  common::ByteReader r(data, size, "huffman");
  r.need(16, "truncated header");
  const u64 count = r.take<u64>();
  const u32 alphabet = r.take<u32>(), present = r.take<u32>();
  if (alphabet > 0x10000) r.fail("corrupt table");  // symbols are u16
  const u8* table = r.take_bytes(r.size_for(present, 3, "truncated table"));
  std::vector<u8> len(alphabet, 0);
  for (u32 i = 0; i < present; ++i, table += 3) {
    const u16 sym = common::get_le<u16>(table);
    if (sym >= alphabet || table[2] > kHuffMaxBits) r.fail("corrupt table");
    len[sym] = table[2];
  }
  const std::size_t pos = r.offset();
  CanonicalCode cc = canonicalize(len);
  // Build (first_code, first_index) per length plus a (length,symbol)-sorted
  // symbol list for canonical decoding.
  std::vector<u32> first_code(kHuffMaxBits + 2, 0), first_idx(kHuffMaxBits + 2, 0);
  std::vector<u16> sorted;
  for (unsigned l = 1; l <= kHuffMaxBits; ++l)
    for (u32 s = 0; s < alphabet; ++s)
      if (len[s] == l) sorted.push_back(static_cast<u16>(s));
  {
    u32 code = 0, idx = 0;
    std::vector<u32> cnt(kHuffMaxBits + 1, 0);
    for (u8 l : len)
      if (l) ++cnt[l];
    for (unsigned l = 1; l <= kHuffMaxBits; ++l) {
      code = (code + (l > 1 ? cnt[l - 1] : 0)) << 1;
      first_code[l] = code;
      first_idx[l] = idx;
      idx += cnt[l];
    }
  }
  // Every symbol costs at least one bit; a larger count is corruption and
  // must not drive the allocation below.
  if (count > (size - pos) * 8 + 7) throw CompressionError("huffman: implausible count");
  BitReader br(data + pos, size - pos);
  std::vector<u16> out;
  out.reserve(count);
  std::vector<u32> cnt(kHuffMaxBits + 1, 0);
  for (u8 l : len)
    if (l) ++cnt[l];
  for (u64 i = 0; i < count; ++i) {
    u32 code = 0;
    unsigned l = 0;
    for (;;) {
      code = (code << 1) | static_cast<u32>(br.get_bit());
      ++l;
      if (l > kHuffMaxBits) throw CompressionError("huffman: invalid code");
      if (cnt[l] && code - first_code[l] < cnt[l]) {
        out.push_back(sorted[first_idx[l] + (code - first_code[l])]);
        break;
      }
    }
    if (br.truncated()) throw CompressionError("huffman: truncated stream");
  }
  if (consumed) *consumed = pos + br.bytes_consumed();
  return out;
}

}  // namespace repro::lossless
