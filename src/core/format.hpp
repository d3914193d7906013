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

#include "common/bytes.hpp"
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

// Wire layout of the header (docs/FORMAT.md §PFPL), the struct's own order:
//   0 u32 magic   4 u16 version   6 u8 dtype   7 u8 eb_type   8 f64 eps
//  16 f64 recon_param   24 u64 value_count   32 u32 chunk_count   36 u32 reserved
inline void write_header(const Header& h, Bytes& out) {
  common::append_le(out, h.magic);
  common::append_le(out, h.version);
  common::append_le(out, static_cast<u8>(h.dtype));
  common::append_le(out, static_cast<u8>(h.eb_type));
  common::append_le(out, h.eps);
  common::append_le(out, h.recon_param);
  common::append_le(out, h.value_count);
  common::append_le(out, h.chunk_count);
  common::append_le(out, h.reserved);
}

/// Reads the header at the front of `r`; the chunk table follows it.
inline Header read_header(common::ByteReader& r) {
  r.need(sizeof(Header), "truncated header");
  Header h;
  h.magic = r.take<u32>();
  if (h.magic != kMagic) r.fail("bad magic");
  h.version = r.take<u16>();
  if (h.version != kVersion) r.fail("unsupported version");
  // Unchecked here: read_chunk_table() rejects an unknown dtype or bound.
  h.dtype = static_cast<DType>(r.take<u8>());
  h.eb_type = static_cast<EbType>(r.take<u8>());
  h.eps = r.take<double>();
  h.recon_param = r.take<double>();
  h.value_count = r.take<u64>();
  h.chunk_count = r.take<u32>();
  h.reserved = r.take<u32>();
  return h;
}

/// A chunk's size-table entry must equal the bytes its decoder consumed. The
/// encoder writes no slack, so any difference means a damaged table or chunk.
inline void check_chunk_consumed(std::size_t used, std::size_t table_size) {
  if (used != table_size)
    throw CompressionError("PFPL stream: chunk size table disagrees with chunk payload");
}

}  // namespace repro::pfpl
