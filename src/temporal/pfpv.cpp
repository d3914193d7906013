#include "temporal/pfpv.hpp"

#include <algorithm>
#include <bit>

#include "common/bytes.hpp"
#include "common/checksum.hpp"
#include "io/raw_file.hpp"

namespace repro::temporal {

using common::append_le;
using common::get_le;
using common::put_le;

// Session header wire layout (40 bytes, docs/FORMAT.md §PFPV):
//   0 u32 magic  4 u16 version  6 u8 dtype  7 u8 eb_type  8 f64 eps
//  16 u32 dim_z 20 u32 dim_y   24 u32 dim_x
//  28 u32 keyframe_interval    32 u32 reserved  36 u32 crc32 of [0,36)
Bytes encode_stream_header(const SessionConfig& cfg) {
  Bytes out(kPfpvHeaderSize);
  u8* p = out.data();
  put_le(p + 0, kPfpvMagic);
  put_le(p + 4, kPfpvVersion);
  p[6] = static_cast<u8>(cfg.dtype);
  p[7] = static_cast<u8>(cfg.eb);
  put_le(p + 8, cfg.eps);
  put_le(p + 16, cfg.dims[0]);
  put_le(p + 20, cfg.dims[1]);
  put_le(p + 24, cfg.dims[2]);
  put_le(p + 28, cfg.keyframe_interval);
  put_le(p + 32, u32{0});
  put_le(p + 36, common::crc32(p, 36));
  return out;
}

SessionConfig decode_stream_header(const u8* p, std::size_t n) {
  common::ByteReader r(p, n, "PFPV");
  r.need(kPfpvHeaderSize, "truncated session header");
  if (r.take<u32>() != kPfpvMagic) r.fail("bad magic");
  const u16 version = r.take<u16>();
  if (version != kPfpvVersion) r.fail("unsupported version " + std::to_string(version));
  if (get_le<u32>(p + 36) != common::crc32(p, 36)) r.fail("session header CRC mismatch");
  const u8 dtype = r.take<u8>(), eb = r.take<u8>();
  if (dtype > 1) r.fail("bad dtype");
  if (eb > 2) r.fail("bad eb_type");
  SessionConfig cfg;
  cfg.dtype = static_cast<DType>(dtype);
  cfg.eb = static_cast<EbType>(eb);
  cfg.eps = r.take<double>();
  for (u32& d : cfg.dims) d = r.take<u32>();
  cfg.keyframe_interval = r.take<u32>();
  if (cfg.frame_values() == 0) r.fail("zero-value frame shape");
  return cfg;
}

// Frame record wire layout (40-byte header + bitmap + PFPL payload):
//   0 u32 magic       4 u32 header_crc of [8,40)   8 u64 frame_index
//  16 u8 frame_type  17 u8[3] reserved            20 f64 abs_bound
//  28 u32 bitmap_len 32 u32 payload_len           36 u32 body_crc of
//                                                        bitmap||payload
Bytes encode_frame_record(const EncodedFrame& f) {
  Bytes out(kPfpvRecordHeaderSize + f.chunk_modes.size() + f.payload.size());
  u8* p = out.data();
  // std::copy, not memcpy: an all-intra frame has no bitmap, and memcpy from
  // an empty vector's null data() is undefined even for zero bytes.
  u8* body =
      std::copy(f.chunk_modes.begin(), f.chunk_modes.end(), p + kPfpvRecordHeaderSize);
  std::copy(f.payload.begin(), f.payload.end(), body);
  put_le(p + 0, kPfpvRecordMagic);
  put_le(p + 8, f.frame_index);
  p[16] = static_cast<u8>(f.type);
  p[17] = p[18] = p[19] = 0;
  put_le(p + 20, f.abs_bound);
  put_le(p + 28, static_cast<u32>(f.chunk_modes.size()));
  put_le(p + 32, static_cast<u32>(f.payload.size()));
  put_le(p + 36, common::crc32(p + kPfpvRecordHeaderSize, out.size() - kPfpvRecordHeaderSize));
  put_le(p + 4, common::crc32(p + 8, kPfpvRecordHeaderSize - 8));
  return out;
}

std::size_t decode_frame_record(const u8* p, std::size_t n, EncodedFrame& out) {
  common::ByteReader r(p, n, "PFPV record");
  if (r.remaining() < kPfpvRecordHeaderSize) return 0;
  if (r.take<u32>() != kPfpvRecordMagic) return 0;
  if (r.take<u32>() != common::crc32(p + 8, kPfpvRecordHeaderSize - 8)) return 0;
  const u64 frame_index = r.take<u64>();
  const u8 type = r.take<u8>();
  if (type > 1) return 0;
  r.take_bytes(3);  // reserved
  const double abs_bound = r.take<double>();
  const std::size_t bitmap_len = r.take<u32>();
  const std::size_t payload_len = r.take<u32>();
  const u32 body_crc = r.take<u32>();
  if (r.remaining() < bitmap_len + payload_len) return 0;
  const u8* body = r.take_bytes(bitmap_len + payload_len);
  if (body_crc != common::crc32(body, bitmap_len + payload_len)) return 0;
  out.frame_index = frame_index;
  out.type = static_cast<FrameType>(type);
  out.abs_bound = abs_bound;
  out.chunk_modes.assign(body, body + bitmap_len);
  out.payload.assign(body + bitmap_len, body + bitmap_len + payload_len);
  // Rebuild the chunk-mode tallies from the bitmap + the payload's own PFPL
  // header, so readers (stats, `pfpl stream info`) see the same numbers the
  // encoder reported.
  out.predicted_chunks = out.intra_chunks = 0;
  for (u8 b : out.chunk_modes)
    out.predicted_chunks += static_cast<std::size_t>(std::popcount(b));
  try {
    const std::size_t chunks = pfpl::peek_header(out.payload).chunk_count;
    out.intra_chunks = chunks > out.predicted_chunks ? chunks - out.predicted_chunks : 0;
  } catch (const CompressionError&) {
    // Valid record framing around an unparsable payload: leave the tallies
    // best-effort and let the decoder produce the real error.
  }
  return kPfpvRecordHeaderSize + bitmap_len + payload_len;
}

StreamWriter::StreamWriter(const std::string& path, const SessionConfig& cfg,
                           io::FileOps& ops)
    : file_(ops.create(path)) {
  const Bytes header = encode_stream_header(cfg);
  write_bytes(header.data(), header.size());
}

void StreamWriter::write_bytes(const u8* p, std::size_t n) {
  if (!file_) throw CompressionError("PFPV: writer already finished");
  // One append per record: a killed process loses at most the torn tail.
  file_->append(p, n);
  offset_ += n;
}

void StreamWriter::append(const EncodedFrame& f) {
  const Bytes record = encode_frame_record(f);
  if (f.type == FrameType::Intra) keyframes_.push_back({f.frame_index, offset_});
  write_bytes(record.data(), record.size());
  ++frames_;
}

// Trailer: an index section at index_offset —
//   u32 magic  u32 entry_count  {u64 frame_index, u64 file_offset} per entry
// — followed by a fixed 24-byte footer parsed from EOF:
//   u64 index_offset  u64 frame_count  u32 index_crc  u32 magic
void StreamWriter::finish() {
  if (!file_) return;
  const u64 index_offset = offset_;
  Bytes tail;  // index + footer, one append
  append_le(tail, kPfpvIndexMagic);
  append_le(tail, static_cast<u32>(keyframes_.size()));
  for (const KeyframeEntry& k : keyframes_) {
    append_le(tail, k.frame_index);
    append_le(tail, k.file_offset);
  }
  const u32 index_crc = common::crc32(tail.data(), tail.size());
  append_le(tail, index_offset);
  append_le(tail, frames_);
  append_le(tail, index_crc);
  append_le(tail, kPfpvIndexMagic);
  write_bytes(tail.data(), tail.size());
  file_.reset();
}

StreamReader::StreamReader(const std::string& path) { open(io::read_file(path)); }

StreamReader::StreamReader(Bytes bytes) { open(std::move(bytes)); }

void StreamReader::open(Bytes bytes) {
  data_ = std::move(bytes);
  cfg_ = decode_stream_header(data_.data(), data_.size());

  // Find the record region's end: trust a valid trailer, else assume the
  // whole tail is records (truncated stream).
  std::size_t records_end = data_.size();
  bool trailer_ok = false;
  u64 trailer_frames = 0;
  std::vector<KeyframeEntry> trailer_keyframes;
  if (data_.size() >= kPfpvHeaderSize + 8 + kPfpvFooterSize) {
    const std::size_t index_end = data_.size() - kPfpvFooterSize;
    common::ByteReader fr(data_.data() + index_end, kPfpvFooterSize, "PFPV", index_end);
    const u64 index_offset = fr.take<u64>();
    const u64 frames = fr.take<u64>();
    const u32 index_crc = fr.take<u32>();
    if (fr.take<u32>() == kPfpvIndexMagic && index_offset >= kPfpvHeaderSize &&
        index_offset <= index_end - 8) {
      const std::size_t at = static_cast<std::size_t>(index_offset);
      common::ByteReader ir(data_.data() + at, index_end - at, "PFPV", at);
      const u32 magic = ir.take<u32>();
      const u32 entries = ir.take<u32>();
      if (magic == kPfpvIndexMagic && ir.remaining() == u64{entries} * 16 &&
          index_crc == common::crc32(data_.data() + at, index_end - at)) {
        trailer_ok = true;
        trailer_frames = frames;
        records_end = at;
        trailer_keyframes.reserve(entries);
        for (u32 i = 0; i < entries; ++i)
          trailer_keyframes.push_back({ir.take<u64>(), ir.take<u64>()});
      }
    }
  }

  // Walk the records; stop at the first invalid/incomplete one.
  std::size_t pos = kPfpvHeaderSize;
  EncodedFrame f;
  while (pos < records_end) {
    const std::size_t sz = decode_frame_record(data_.data() + pos, records_end - pos, f);
    if (sz == 0) break;
    offsets_.push_back(pos);
    if (f.type == FrameType::Intra) keyframes_.push_back({f.frame_index, pos});
    pos += sz;
  }

  if (trailer_ok && pos == records_end && offsets_.size() == trailer_frames) {
    keyframes_ = std::move(trailer_keyframes);
  } else {
    // Missing/invalid trailer, or records that do not match it: keep the
    // valid prefix and report the discarded tail.
    truncated_ = true;
    truncated_bytes_ = data_.size() - pos;
  }
}

EncodedFrame StreamReader::frame(std::size_t i) const {
  if (i >= offsets_.size())
    throw CompressionError("PFPV: frame index out of range");
  EncodedFrame f;
  const std::size_t pos = offsets_[i];
  if (decode_frame_record(data_.data() + pos, data_.size() - pos, f) == 0)
    throw CompressionError("PFPV: frame record unreadable");  // unreachable
  return f;
}

}  // namespace repro::temporal
