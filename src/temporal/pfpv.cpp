#include "temporal/pfpv.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/checksum.hpp"

namespace repro::temporal {
namespace {

template <typename T>
void put_le(u8* p, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) p[i] = static_cast<u8>(v >> (8 * i));
}

template <typename T>
T get_le(const u8* p) {
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) v |= static_cast<T>(p[i]) << (8 * i);
  return v;
}

void put_f64(u8* p, double v) {
  u64 bits;
  std::memcpy(&bits, &v, 8);
  put_le<u64>(p, bits);
}

double get_f64(const u8* p) {
  const u64 bits = get_le<u64>(p);
  double v;
  std::memcpy(&v, &bits, 8);
  return v;
}

/// CRC of a bitmap and a payload as one logical body, without concatenating.
u32 body_crc(const Bytes& bitmap, const Bytes& payload) {
  const u32 crc = common::crc32(bitmap.data(), bitmap.size());
  return common::crc32(payload.data(), payload.size(), crc);
}

}  // namespace

// Session header wire layout (40 bytes, docs/FORMAT.md §PFPV):
//   0 u32 magic  4 u16 version  6 u8 dtype  7 u8 eb_type  8 f64 eps
//  16 u32 dim_z 20 u32 dim_y   24 u32 dim_x
//  28 u32 keyframe_interval    32 u32 reserved  36 u32 crc32 of [0,36)
Bytes encode_stream_header(const SessionConfig& cfg) {
  Bytes out(kPfpvHeaderSize);
  u8* p = out.data();
  put_le<u32>(p + 0, kPfpvMagic);
  put_le<u16>(p + 4, kPfpvVersion);
  p[6] = static_cast<u8>(cfg.dtype);
  p[7] = static_cast<u8>(cfg.eb);
  put_f64(p + 8, cfg.eps);
  put_le<u32>(p + 16, cfg.dims[0]);
  put_le<u32>(p + 20, cfg.dims[1]);
  put_le<u32>(p + 24, cfg.dims[2]);
  put_le<u32>(p + 28, cfg.keyframe_interval);
  put_le<u32>(p + 32, 0);
  put_le<u32>(p + 36, common::crc32(p, 36));
  return out;
}

SessionConfig decode_stream_header(const u8* p, std::size_t n) {
  if (n < kPfpvHeaderSize) throw CompressionError("PFPV: truncated session header");
  if (get_le<u32>(p) != kPfpvMagic) throw CompressionError("PFPV: bad magic");
  const u16 version = get_le<u16>(p + 4);
  if (version != kPfpvVersion)
    throw CompressionError("PFPV: unsupported version " + std::to_string(version));
  if (get_le<u32>(p + 36) != common::crc32(p, 36))
    throw CompressionError("PFPV: session header CRC mismatch");
  SessionConfig cfg;
  if (p[6] > 1) throw CompressionError("PFPV: bad dtype");
  if (p[7] > 2) throw CompressionError("PFPV: bad eb_type");
  cfg.dtype = static_cast<DType>(p[6]);
  cfg.eb = static_cast<EbType>(p[7]);
  cfg.eps = get_f64(p + 8);
  cfg.dims = {get_le<u32>(p + 16), get_le<u32>(p + 20), get_le<u32>(p + 24)};
  cfg.keyframe_interval = get_le<u32>(p + 28);
  if (cfg.frame_values() == 0) throw CompressionError("PFPV: zero-value frame shape");
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
  put_le<u32>(p + 0, kPfpvRecordMagic);
  put_le<u64>(p + 8, f.frame_index);
  p[16] = static_cast<u8>(f.type);
  p[17] = p[18] = p[19] = 0;
  put_f64(p + 20, f.abs_bound);
  put_le<u32>(p + 28, static_cast<u32>(f.chunk_modes.size()));
  put_le<u32>(p + 32, static_cast<u32>(f.payload.size()));
  put_le<u32>(p + 36, body_crc(f.chunk_modes, f.payload));
  put_le<u32>(p + 4, common::crc32(p + 8, kPfpvRecordHeaderSize - 8));
  // std::copy, not memcpy: an all-intra frame has no bitmap, and memcpy from
  // an empty vector's null data() is undefined even for zero bytes.
  u8* body =
      std::copy(f.chunk_modes.begin(), f.chunk_modes.end(), p + kPfpvRecordHeaderSize);
  std::copy(f.payload.begin(), f.payload.end(), body);
  return out;
}

std::size_t decode_frame_record(const u8* p, std::size_t n, EncodedFrame& out) {
  if (n < kPfpvRecordHeaderSize) return 0;
  if (get_le<u32>(p) != kPfpvRecordMagic) return 0;
  if (get_le<u32>(p + 4) != common::crc32(p + 8, kPfpvRecordHeaderSize - 8)) return 0;
  if (p[16] > 1) return 0;
  const std::size_t bitmap_len = get_le<u32>(p + 28);
  const std::size_t payload_len = get_le<u32>(p + 32);
  const std::size_t total = kPfpvRecordHeaderSize + bitmap_len + payload_len;
  if (n < total) return 0;
  Bytes bitmap(p + kPfpvRecordHeaderSize, p + kPfpvRecordHeaderSize + bitmap_len);
  Bytes payload(p + kPfpvRecordHeaderSize + bitmap_len, p + total);
  if (get_le<u32>(p + 36) != body_crc(bitmap, payload)) return 0;
  out.frame_index = get_le<u64>(p + 8);
  out.type = static_cast<FrameType>(p[16]);
  out.abs_bound = get_f64(p + 20);
  out.chunk_modes = std::move(bitmap);
  out.payload = std::move(payload);
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
  return total;
}

StreamWriter::StreamWriter(const std::string& path, const SessionConfig& cfg)
    : path_(path) {
  f_ = std::fopen(path.c_str(), "wb");
  if (!f_) throw CompressionError("PFPV: cannot create " + path);
  const Bytes header = encode_stream_header(cfg);
  write_bytes(header.data(), header.size());
}

StreamWriter::~StreamWriter() {
  if (f_) std::fclose(f_);  // unfinished: leaves a valid truncated stream
}

void StreamWriter::write_bytes(const void* p, std::size_t n) {
  if (!f_) throw CompressionError("PFPV: writer already finished");
  if (std::fwrite(p, 1, n, f_) != n)
    throw CompressionError("PFPV: short write to " + path_);
  // Flush per record: a killed process loses at most the torn tail.
  std::fflush(f_);
  offset_ += n;
}

void StreamWriter::append(const EncodedFrame& f) { append_encoded(encode_frame_record(f)); }

void StreamWriter::append_encoded(const Bytes& record) {
  EncodedFrame f;
  if (decode_frame_record(record.data(), record.size(), f) != record.size())
    throw CompressionError("PFPV: refusing to append a malformed frame record");
  if (f.type == FrameType::Intra) keyframes_.push_back({f.frame_index, offset_});
  write_bytes(record.data(), record.size());
  ++frames_;
}

// Trailer: an index section at index_offset —
//   u32 magic  u32 entry_count  {u64 frame_index, u64 file_offset} per entry
// — followed by a fixed 24-byte footer parsed from EOF:
//   u64 index_offset  u64 frame_count  u32 index_crc  u32 magic
void StreamWriter::finish() {
  if (finished_) return;
  const u64 index_offset = offset_;
  Bytes index(8 + keyframes_.size() * 16);
  put_le<u32>(index.data(), kPfpvIndexMagic);
  put_le<u32>(index.data() + 4, static_cast<u32>(keyframes_.size()));
  for (std::size_t i = 0; i < keyframes_.size(); ++i) {
    put_le<u64>(index.data() + 8 + i * 16, keyframes_[i].frame_index);
    put_le<u64>(index.data() + 16 + i * 16, keyframes_[i].file_offset);
  }
  Bytes footer(kPfpvFooterSize);
  put_le<u64>(footer.data(), index_offset);
  put_le<u64>(footer.data() + 8, frames_);
  put_le<u32>(footer.data() + 16, common::crc32(index.data(), index.size()));
  put_le<u32>(footer.data() + 20, kPfpvIndexMagic);
  write_bytes(index.data(), index.size());
  write_bytes(footer.data(), footer.size());
  std::fclose(f_);
  f_ = nullptr;
  finished_ = true;
}

StreamReader::StreamReader(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) throw CompressionError("PFPV: cannot open " + path);
  Bytes bytes;
  u8 buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) bytes.insert(bytes.end(), buf, buf + n);
  std::fclose(f);
  open(std::move(bytes));
}

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
    const u8* foot = data_.data() + data_.size() - kPfpvFooterSize;
    if (get_le<u32>(foot + 20) == kPfpvIndexMagic) {
      const u64 index_offset = get_le<u64>(foot);
      const u64 index_end = data_.size() - kPfpvFooterSize;
      if (index_offset >= kPfpvHeaderSize && index_offset + 8 <= index_end) {
        const u8* idx = data_.data() + index_offset;
        const std::size_t index_size = static_cast<std::size_t>(index_end - index_offset);
        const u32 entries = get_le<u32>(idx + 4);
        if (get_le<u32>(idx) == kPfpvIndexMagic &&
            index_size == 8 + static_cast<std::size_t>(entries) * 16 &&
            get_le<u32>(foot + 16) == common::crc32(idx, index_size)) {
          trailer_ok = true;
          trailer_frames = get_le<u64>(foot + 8);
          records_end = static_cast<std::size_t>(index_offset);
          trailer_keyframes.reserve(entries);
          for (u32 i = 0; i < entries; ++i)
            trailer_keyframes.push_back({get_le<u64>(idx + 8 + i * 16),
                                         get_le<u64>(idx + 16 + i * 16)});
        }
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
