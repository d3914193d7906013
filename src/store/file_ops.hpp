// FileOps — the one seam through which SegmentStore changes its directory:
// segment create and open-for-append, append, fsync, close, truncate, rename,
// remove and directory fsync. Reads go straight to io::RawFile. The
// production posix_file_ops() writes through raw fds with no user-space
// buffer; on Linux its appends also start writeback of every 1 MiB appended
// (only start it: durability still comes from fsync alone). Tests wrap it
// to record every operation, rebuild the directory a crash at any one would
// leave, and fail any one. Every failure throws CompressionError naming the
// path and the errno text.
#pragma once

#include <memory>
#include <string>

#include "common/types.hpp"

namespace repro::store {

class FileOps {
 public:
  /// An open, write-only file positioned at its end; closed on destruction.
  class File {
   public:
    File() = default;
    File(const File&) = delete;
    File& operator=(const File&) = delete;
    virtual ~File() = default;
    virtual void append(const u8* data, std::size_t n) = 0;
    virtual void fsync() = 0;
  };

  virtual ~FileOps() = default;
  /// Create `path`, or truncate it to 0 bytes when it exists.
  virtual std::unique_ptr<File> create(const std::string& path) = 0;
  virtual std::unique_ptr<File> open_append(const std::string& path) = 0;
  virtual void truncate(const std::string& path, u64 size) = 0;
  virtual void rename(const std::string& from, const std::string& to) = 0;
  virtual void remove(const std::string& path) = 0;
  virtual void fsync_dir(const std::string& dir) = 0;
};

/// The raw-fd implementation every store uses unless a test passes its own.
FileOps& posix_file_ops();

}  // namespace repro::store
