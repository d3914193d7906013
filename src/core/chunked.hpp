// Chunk-level compression primitives.
//
// PFPL's chunks are fully independent (paper Section III-E): once the header
// is planned — which fixes the quantizer constants, including the NOA range
// reduction — every chunk can be encoded by any thread in any order and the
// assembled stream is byte-identical to the one-shot pfpl::compress(). These
// three functions are that decomposition, so other schedulers (the ingest
// pipeline, the streaming codec) drive the same code instead of
// re-implementing it:
//
//   Header h = plan_header(field, params);          // sequential, cheap
//   for each chunk c (any order, any thread):
//     sizes[c] = encode_chunk(field, h, c, exec, payloads[c]);
//   Bytes out = assemble_stream(h, sizes, payloads, exec);
//
// Decoding splits the same way: read_chunk_table() validates the header and
// chunk table once, then decode_chunk() decodes any chunk on any thread.
// pfpl::compress()/decompress(), the ingest pipeline and the streaming codec
// (core/stream.hpp) are all implemented on top of these.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "core/format.hpp"
#include "core/pfpl.hpp"
#include "fpmath/bound.hpp"

namespace repro::pfpl {

/// Scalars covered by one chunk of this dtype (4096 for f32, 2048 for f64).
std::size_t chunk_values(DType dtype);

/// Validate a bound and derive recon_param (ABS: eps; NOA:
/// fpmath::noa_bound over the data's finite range; REL: log1p(eps)). The
/// counts stay 0. Throws CompressionError on an invalid bound or range.
Header plan_bound(DType dtype, EbType eb, double eps, fpmath::FiniteRange noa_range);

/// Plan a compression job: plan_bound() with, for NOA, the sequential
/// finite-range reduction over the whole field, then fill
/// value_count/chunk_count.
Header plan_header(const Field& in, const Params& p);

/// Encode chunk `c` (c * chunk_values < in.count()) of `in` under plan `h`:
/// quantize the chunk's slice and run the lossless pipeline, appending the
/// payload to `out`. Returns the chunk-table size word (kRawChunkFlag set
/// when the chunk is stored raw). Thread-safe for distinct `out` buffers.
u32 encode_chunk(const Field& in, const Header& h, std::size_t c, Executor exec,
                 std::vector<u8>& out);

/// Concatenate header, chunk table, and payloads into the final stream —
/// byte-identical to one-shot compress() for the same plan and chunk order.
Bytes assemble_stream(const Header& h, const std::vector<u32>& sizes,
                      const std::vector<Bytes>& payloads, Executor exec);

/// The same stream from payloads already concatenated in chunk order (how the
/// streaming encoder keeps them).
Bytes assemble_stream(const Header& h, const std::vector<u32>& sizes, const Bytes& payload);

/// A stream's header and chunk table after every reader check has passed.
struct ChunkTable {
  Header header;
  std::vector<u32> sizes;    ///< size words as stored (kRawChunkFlag included)
  std::vector<u64> offsets;  ///< stream offset of each chunk's payload
};

/// Parse and check a stream's header and chunk table: a known bound type and
/// a valid bound, value and chunk counts that agree, a table that fits, and
/// every chunk inside the stream. Throws CompressionError otherwise; what it
/// allocates is proportional to the table bytes actually present.
ChunkTable read_chunk_table(const Bytes& stream);

/// Decode chunk `c` of `stream` into `values` (chunk_values(dtype) scalars,
/// fewer for the last chunk). Throws CompressionError when the chunk's decoder
/// does not consume exactly its table entry. Thread-safe.
void decode_chunk(const Bytes& stream, const ChunkTable& t, std::size_t c, Executor exec,
                  void* values);

}  // namespace repro::pfpl
