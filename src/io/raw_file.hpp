// Raw binary file I/O for scalar fields (the SDRBench on-disk format: a bare
// array of little-endian f32/f64 values, dims supplied out of band).
//
// Every read goes through one core, RawFile: open, fstat (regular files
// only), then pread straight into the caller's memory, with no stdio buffer.
// Every write goes through FileOps (file_ops.hpp). All functions throw
// CompressionError on failure; messages include the path and the
// strerror(errno) text of the failing call.
#pragma once

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace repro::io {

/// A regular file open for reading; closed on destruction.
class RawFile {
 public:
  explicit RawFile(const std::string& path);
  ~RawFile();
  RawFile(const RawFile&) = delete;
  RawFile& operator=(const RawFile&) = delete;
  u64 size() const { return size_; }  ///< at open
  /// Read exactly `n` bytes at `offset`; throws if that passes end of file.
  void read_at(u64 offset, void* dst, std::size_t n) const;

 private:
  std::string path_;
  int fd_ = -1;
  u64 size_ = 0;
};

/// A whole file in memory that was not zero-filled before the read.
struct FileBuffer {
  std::unique_ptr<u8[]> data;
  std::size_t size = 0;
};

/// Read a whole file into a byte buffer. Throws CompressionError on failure.
std::vector<u8> read_file(const std::string& path);

/// read_file into memory that is not zero-filled, so each byte is written
/// once, by the read (the ingest pipeline's inputs, the store's segments).
FileBuffer read_file_uninit(const std::string& path);

/// Size of a file in bytes.
u64 file_size(const std::string& path);

/// Read exactly `size` bytes starting at `offset` (random access — the PFPA
/// archive reader extracts single entries with this, never touching the rest
/// of the file). Throws if the range extends past end of file.
std::vector<u8> read_file_range(const std::string& path, u64 offset, std::size_t size);

/// Write a byte buffer to a file (truncating): one posix_file_ops() create
/// plus one append. Throws on failure, e.g. ENOSPC on /dev/full.
void write_file(const std::string& path, const void* data, std::size_t size);

template <typename T>
std::vector<T> read_values(const std::string& path) {
  std::vector<u8> raw = read_file(path);
  if (raw.size() % sizeof(T) != 0)
    throw CompressionError(path + ": size is not a multiple of the scalar size");
  std::vector<T> out(raw.size() / sizeof(T));
  std::memcpy(out.data(), raw.data(), raw.size());
  return out;
}

}  // namespace repro::io
