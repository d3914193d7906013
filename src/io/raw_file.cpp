#include "io/raw_file.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>

#include "io/file_ops.hpp"

namespace repro::io {
namespace {

std::string errno_text() {
  return errno ? std::strerror(errno) : "unexpected end of file";
}

void check_range(const std::string& path, u64 total, u64 offset, std::size_t n) {
  if (offset > total || n > total - offset)
    throw CompressionError(path + ": read range past end of file");
}

std::size_t whole_size(const RawFile& f, const std::string& path) {
  if (f.size() > std::numeric_limits<std::size_t>::max())
    throw CompressionError(path + ": file too large for this address space");
  return static_cast<std::size_t>(f.size());
}

}  // namespace

RawFile::RawFile(const std::string& path) : path_(path) {
  errno = 0;
  fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd_ < 0) throw CompressionError("cannot open " + path + ": " + errno_text());
  struct stat st;
  const char* verb = ::fstat(fd_, &st) != 0 ? "stat" : nullptr;
  if (!verb && !S_ISREG(st.st_mode)) {
    // open succeeds on a directory: trust the size of a regular file only.
    errno = S_ISDIR(st.st_mode) ? EISDIR : EINVAL;
    verb = "read";
  }
  if (verb) {
    const std::string why = errno_text();
    ::close(fd_);
    throw CompressionError("cannot " + std::string(verb) + " " + path + ": " + why);
  }
  size_ = static_cast<u64>(st.st_size);
}

RawFile::~RawFile() { ::close(fd_); }

void RawFile::read_at(u64 offset, void* dst, std::size_t n) const {
  check_range(path_, size_, offset, n);
  // pread in bounded pieces: one call may short-count (or hit a size limit).
  constexpr std::size_t kBlock = std::size_t{64} << 20;
  u8* out = static_cast<u8*>(dst);
  for (std::size_t done = 0; done < n;) {
    errno = 0;
    const ssize_t got = ::pread(fd_, out + done, std::min(kBlock, n - done),
                                static_cast<off_t>(offset + done));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) throw CompressionError("short read on " + path_ + ": " + errno_text());
    done += static_cast<std::size_t>(got);
  }
}

std::vector<u8> read_file(const std::string& path) {
  const RawFile f(path);
  std::vector<u8> buf(whole_size(f, path));
  f.read_at(0, buf.data(), buf.size());
  return buf;
}

FileBuffer read_file_uninit(const std::string& path) {
  const RawFile f(path);
  FileBuffer buf;
  buf.size = whole_size(f, path);
  buf.data = std::make_unique_for_overwrite<u8[]>(buf.size);
  f.read_at(0, buf.data.get(), buf.size);
  return buf;
}

u64 file_size(const std::string& path) { return RawFile(path).size(); }

std::vector<u8> read_file_range(const std::string& path, u64 offset, std::size_t size) {
  const RawFile f(path);
  check_range(path, f.size(), offset, size);  // before allocating `size` bytes
  std::vector<u8> buf(size);
  f.read_at(offset, buf.data(), size);
  return buf;
}

void write_file(const std::string& path, const void* data, std::size_t size) {
  posix_file_ops().create(path)->append(static_cast<const u8*>(data), size);
}

}  // namespace repro::io
