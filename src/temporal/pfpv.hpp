// PFPV/1 — frame-stream container for temporal compression (docs/FORMAT.md
// §PFPV).
//
//   +--------------------+ offset 0
//   | session header 40B |  dtype / eb / eps / frame shape / keyframe interval
//   +--------------------+ 40
//   | frame record 0     |  40 B CRC-framed record header + chunk-mode bitmap
//   | frame record 1     |  + a complete PFPL stream
//   | ...                |
//   +--------------------+ index_offset
//   | keyframe index     |  {frame_index, file_offset} per I frame
//   +--------------------+
//   | footer (24 B)      |  index extent + CRC + end magic (parsed from EOF)
//   +--------------------+
//
// The writer streams records out append-only, each record one FileOps append
// (one write(2), no user-space buffer), so a process killed mid-stream leaves
// a prefix of complete records plus at most one torn tail and no trailer.
// The reader recovers: when the footer is missing or invalid it scans records
// from the top, keeps every record whose two CRCs validate, rebuilds the
// keyframe index, and reports `truncated() == true` with the byte count of
// the discarded tail.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "io/file_ops.hpp"
#include "temporal/temporal.hpp"

namespace repro::temporal {

inline constexpr u32 kPfpvMagic = 0x56504650;        // "PFPV"
inline constexpr u32 kPfpvRecordMagic = 0x52564650;  // "PFVR"
inline constexpr u32 kPfpvIndexMagic = 0x58564650;   // "PFVX"
inline constexpr u16 kPfpvVersion = 1;
inline constexpr std::size_t kPfpvHeaderSize = 40;
inline constexpr std::size_t kPfpvRecordHeaderSize = 40;
inline constexpr std::size_t kPfpvFooterSize = 24;

/// Serialize / parse the 40-byte session header. decode throws
/// CompressionError on bad magic/version/CRC or inconsistent shape.
Bytes encode_stream_header(const SessionConfig& cfg);
SessionConfig decode_stream_header(const u8* p, std::size_t n);

/// Serialize one frame record (header + bitmap + payload).
Bytes encode_frame_record(const EncodedFrame& f);

/// Parse the record at `p` (up to `n` bytes available). Returns the total
/// record size consumed, or 0 if the bytes do not form a complete valid
/// record (truncation or corruption — the caller treats it as end of data).
std::size_t decode_frame_record(const u8* p, std::size_t n, EncodedFrame& out);

struct KeyframeEntry {
  u64 frame_index = 0;
  u64 file_offset = 0;  ///< record start, from file start
};

/// Append-only PFPV file writer. Each record is one FileOps append; finish()
/// appends the keyframe index + footer. A failed write throws
/// CompressionError from the call that made it. Destroying an unfinished
/// writer leaves a valid truncated stream.
class StreamWriter {
 public:
  /// Creates/truncates `path` through `ops` and writes the session header.
  /// Throws CompressionError on I/O failure.
  StreamWriter(const std::string& path, const SessionConfig& cfg,
               io::FileOps& ops = io::posix_file_ops());
  StreamWriter(const StreamWriter&) = delete;
  StreamWriter& operator=(const StreamWriter&) = delete;

  /// Append one frame record (encodes it first).
  void append(const EncodedFrame& f);

  /// Write the keyframe index + footer and close the file.
  void finish();

  u64 frames() const { return frames_; }
  u64 bytes_written() const { return offset_; }

 private:
  void write_bytes(const u8* p, std::size_t n);

  std::unique_ptr<io::FileOps::File> file_;  ///< null once finished
  u64 offset_ = 0;
  u64 frames_ = 0;
  std::vector<KeyframeEntry> keyframes_;
};

/// Whole-file PFPV reader. Loads the file, validates the session header,
/// then either trusts a valid trailer or scans for the recoverable prefix.
class StreamReader {
 public:
  explicit StreamReader(const std::string& path);
  explicit StreamReader(Bytes bytes);

  const SessionConfig& config() const { return cfg_; }
  /// True when the trailer was missing/invalid (torn tail): frames() holds
  /// only the recoverable prefix and truncated_bytes() the discarded tail.
  bool truncated() const { return truncated_; }
  std::size_t truncated_bytes() const { return truncated_bytes_; }

  std::size_t frame_count() const { return offsets_.size(); }
  const std::vector<KeyframeEntry>& keyframes() const { return keyframes_; }

  /// Decode the envelope of frame `i` (header + bitmap + payload views are
  /// copied out of the file buffer).
  EncodedFrame frame(std::size_t i) const;

 private:
  void open(Bytes bytes);

  Bytes data_;
  SessionConfig cfg_;
  std::vector<std::size_t> offsets_;  ///< record start offsets, in order
  std::vector<KeyframeEntry> keyframes_;
  bool truncated_ = false;
  std::size_t truncated_bytes_ = 0;
};

}  // namespace repro::temporal
