#include "io/file_ops.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace repro::io {
namespace {

/// PosixFile::append starts writeback once this much has accumulated.
constexpr std::size_t kWritebackBytes = std::size_t{1} << 20;

[[noreturn]] void throw_errno(const std::string& what) {
  throw CompressionError(what + ": " + std::strerror(errno));
}

class PosixFile final : public FileOps::File {
 public:
  PosixFile(const std::string& path, int flags) : path_(path) {
    fd_ = ::open(path.c_str(), flags | O_WRONLY | O_APPEND | O_CLOEXEC, 0666);
    if (fd_ < 0) throw_errno(path + ": open");
  }
  ~PosixFile() override { ::close(fd_); }

  void append(const u8* data, std::size_t n) override {
    while (n > 0) {
      const ssize_t w = ::write(fd_, data, n);
      if (w < 0) {
        if (errno == EINTR) continue;
        throw_errno(path_ + ": append");
      }
      data += w;
      n -= static_cast<std::size_t>(w);
      unsent_ += static_cast<std::size_t>(w);
    }
#ifdef __linux__
    // Start writeback of the file's dirty pages, which are what was appended
    // since the last call, so the next fsync waits for less. Best-effort: it
    // makes nothing durable, and an I/O error surfaces at that fsync.
    if (unsent_ >= kWritebackBytes) {
      unsent_ = 0;
      ::sync_file_range(fd_, 0, 0, SYNC_FILE_RANGE_WRITE);
    }
#endif
  }
  void fsync() override {
    if (::fsync(fd_) != 0) throw_errno(path_ + ": fsync");
  }

 private:
  std::string path_;
  int fd_ = -1;
  std::size_t unsent_ = 0;  ///< appended since writeback last started
};

class PosixFileOps final : public FileOps {
 public:
  std::unique_ptr<File> create(const std::string& path) override {
    return std::make_unique<PosixFile>(path, O_CREAT | O_TRUNC);
  }
  std::unique_ptr<File> open_append(const std::string& path) override {
    return std::make_unique<PosixFile>(path, 0);
  }
  void truncate(const std::string& path, u64 size) override {
    if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0)
      throw_errno(path + ": truncate");
  }
  void rename(const std::string& from, const std::string& to) override {
    if (std::rename(from.c_str(), to.c_str()) != 0) throw_errno(to + ": rename");
  }
  void remove(const std::string& path) override {
    if (::unlink(path.c_str()) != 0) throw_errno(path + ": remove");
  }
  void fsync_dir(const std::string& dir) override {
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0) throw_errno(dir + ": open for fsync");
    const int rc = ::fsync(fd);
    ::close(fd);
    if (rc != 0) throw_errno(dir + ": fsync");
  }
};

}  // namespace

FileOps& posix_file_ops() {
  static PosixFileOps ops;
  return ops;
}

}  // namespace repro::io
