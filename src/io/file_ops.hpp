// FileOps — the write half of io, beside RawFile: the one seam through which
// the library creates, appends to, fsyncs, truncates, renames and removes
// files. io::write_file, the PFPA and PFPV writers and the chunk store's
// SegmentStore all write through it; reads go straight to RawFile. The
// production posix_file_ops() writes through raw fds with no user-space
// buffer, so a returned append is in the kernel and survives a process kill;
// on Linux its appends also start writeback of every 1 MiB appended (only
// start it: durability still comes from fsync alone). Tests wrap it to record
// every operation, rebuild the directory a crash at any one would leave, and
// fail any one. Every failure throws CompressionError naming the path and
// the errno text.
#pragma once

#include <memory>
#include <string>

#include "common/types.hpp"

namespace repro::io {

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
  /// Create `path` (mode 0666 less the umask), or truncate it to 0 bytes
  /// when it exists.
  virtual std::unique_ptr<File> create(const std::string& path) = 0;
  virtual std::unique_ptr<File> open_append(const std::string& path) = 0;
  virtual void truncate(const std::string& path, u64 size) = 0;
  virtual void rename(const std::string& from, const std::string& to) = 0;
  virtual void remove(const std::string& path) = 0;
  virtual void fsync_dir(const std::string& dir) = 0;
};

/// The raw-fd implementation every writer uses unless a test passes its own.
FileOps& posix_file_ops();

}  // namespace repro::io
