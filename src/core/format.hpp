// PFPL container format.
//
// Layout (little-endian):
//   Header (40 bytes)
//   chunk size table: chunk_count x u32 (bit 31 set = chunk stored raw)
//   concatenated chunk payloads
//
// The header records the reconstruction parameter actually used by the
// decoder (`recon_param`): 2*eps factors for ABS, the range-derived absolute
// bound for NOA, and log1p(eps) for REL. Storing it — instead of recomputing
// it at decode time — is part of the bit-for-bit compatibility story: every
// decoder, on any device, reconstructs with the identical constant.
#pragma once

#include <cstring>

#include "common/types.hpp"

namespace repro::pfpl {

inline constexpr u32 kMagic = 0x4C504650u;  // "PFPL"
inline constexpr u16 kVersion = 1;
inline constexpr u32 kRawChunkFlag = 0x80000000u;

struct Header {
  u32 magic = kMagic;
  u16 version = kVersion;
  DType dtype = DType::F32;
  EbType eb_type = EbType::ABS;
  double eps = 0.0;          ///< user-requested bound
  double recon_param = 0.0;  ///< ABS: eps; NOA: eps*(max-min); REL: log1p(eps)
  u64 value_count = 0;
  u32 chunk_count = 0;
  u32 reserved = 0;
};

static_assert(sizeof(Header) == 40);

inline void write_header(const Header& h, Bytes& out) {
  std::size_t off = out.size();
  out.resize(off + sizeof(Header));
  std::memcpy(out.data() + off, &h, sizeof(Header));
}

inline Header read_header(const Bytes& in) {
  if (in.size() < sizeof(Header)) throw CompressionError("PFPL stream: truncated header");
  Header h;
  std::memcpy(&h, in.data(), sizeof(Header));
  if (h.magic != kMagic) throw CompressionError("PFPL stream: bad magic");
  if (h.version != kVersion) throw CompressionError("PFPL stream: unsupported version");
  return h;
}

/// A chunk's size-table entry must equal the bytes its decoder consumed. The
/// encoder writes no slack, so any difference means a damaged table or chunk.
inline void check_chunk_consumed(std::size_t used, std::size_t table_size) {
  if (used != table_size)
    throw CompressionError("PFPL stream: chunk size table disagrees with chunk payload");
}

}  // namespace repro::pfpl
