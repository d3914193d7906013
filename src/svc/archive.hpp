// PFPA — the PFPL Archive container (multi-field datasets).
//
// One archive holds many independently compressed PFPL streams ("entries"),
// e.g. every field of a simulation checkpoint. Entries are concatenated and
// located through an index written at the END of the file (zip-style), so
//   * the writer streams entries out as they are produced, no seeking;
//   * any entry is randomly accessible — the reader loads footer + index
//     (a few KB) and then reads exactly [offset, offset+size) of the one
//     entry it wants, never touching the rest;
//   * every entry and the index itself carry a CRC-32, so truncation and
//     corruption are detected before any payload is interpreted.
//
// Layout (little-endian; full spec in docs/FORMAT.md):
//   file header   8 B   magic "PFPA", version, reserved
//   entries       ...   complete PFPL streams, concatenated
//   index         ...   one variable-length record per entry
//   footer       28 B   index_offset, index_size, entry_count, index_crc32,
//                       magic (again, as an end-of-file sentinel)
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "core/format.hpp"
#include "io/file_ops.hpp"

namespace repro::svc {

inline constexpr u32 kArchiveMagic = 0x41504650u;  // "PFPA"
inline constexpr u16 kArchiveVersion = 1;
inline constexpr std::size_t kArchiveHeaderSize = 8;
inline constexpr std::size_t kArchiveFooterSize = 28;

/// One index record (parsed form).
struct ArchiveEntry {
  std::string name;
  DType dtype = DType::F32;
  EbType eb_type = EbType::ABS;
  double eps = 0.0;
  u64 offset = 0;       ///< entry's PFPL stream, from file start
  u64 size = 0;         ///< stream bytes
  u64 value_count = 0;  ///< scalars in the original field
  u64 raw_size = 0;     ///< original field bytes
  u32 crc32 = 0;        ///< CRC-32 of the stream bytes
};

/// Streaming archive writer. Entries are appended in add() order; finish()
/// writes the index and footer. Every write is one FileOps append, and a
/// failed one throws CompressionError from the call that made it. The file
/// has no footer, so readers reject it, until finish() returns.
class ArchiveWriter {
 public:
  /// Creates/truncates `path` through `ops` and writes the file header.
  /// Throws CompressionError (with errno text) on failure.
  explicit ArchiveWriter(const std::string& path, io::FileOps& ops = io::posix_file_ops());

  ArchiveWriter(const ArchiveWriter&) = delete;
  ArchiveWriter& operator=(const ArchiveWriter&) = delete;

  /// Append one compressed stream under `name`. `header` supplies the
  /// entry's dtype/eb/eps/value_count; `raw_size` the original field bytes.
  /// Names must be unique, non-empty, and free of path separators.
  void add(const std::string& name, const pfpl::Header& header, const Bytes& stream,
           u64 raw_size);

  /// Write index + footer and close. Must be called exactly once.
  void finish();

  std::size_t entry_count() const { return entries_.size(); }

 private:
  void write_raw(const u8* data, std::size_t n);

  std::unique_ptr<io::FileOps::File> file_;  ///< null once finished
  u64 offset_ = 0;
  std::vector<ArchiveEntry> entries_;
};

/// Random-access archive reader. The constructor loads ONLY the footer and
/// index; entry payloads are read on demand.
class ArchiveReader {
 public:
  /// Throws CompressionError on a missing file, bad magic, truncated or
  /// corrupted index (index CRC mismatch, out-of-bounds records, or unsafe
  /// entry names — empty, '.', '..', or containing a path separator — so
  /// untrusted archives cannot direct unpack outside its output directory).
  explicit ArchiveReader(const std::string& path);

  const std::vector<ArchiveEntry>& entries() const { return entries_; }

  /// Entry lookup by name; throws CompressionError when absent.
  const ArchiveEntry& find(const std::string& name) const;

  /// Read one entry's PFPL stream (exactly [offset, offset+size) of the
  /// file) and verify its CRC-32. Throws CompressionError on mismatch.
  Bytes read_entry(const ArchiveEntry& e) const;
  Bytes read_entry(const std::string& name) const { return read_entry(find(name)); }

 private:
  std::string path_;
  std::vector<ArchiveEntry> entries_;
};

}  // namespace repro::svc
