#include "io/raw_file.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>

namespace repro::io {
namespace {

using FilePtr = std::unique_ptr<std::FILE, int (*)(std::FILE*)>;

std::string errno_text() {
  return errno ? std::strerror(errno) : "unexpected end of file";
}

FilePtr open_or_throw(const std::string& path, const char* mode, const char* verb) {
  errno = 0;
  FilePtr f(std::fopen(path.c_str(), mode), &std::fclose);
  if (!f) throw CompressionError("cannot " + std::string(verb) + " " + path + ": " + errno_text());
  return f;
}

/// 64-bit-clean size query: fseek/ftell use `long`, which is 32-bit on some
/// ABIs, so every return value is checked and the size is validated before
/// it is trusted (a >2 GiB file on a 32-bit `long` makes ftell fail or go
/// negative rather than silently truncate the read).
u64 stream_size(std::FILE* f, const std::string& path) {
  // fopen succeeds on a directory, whose "size" from ftell is huge: refuse
  // anything but a regular file before that size is trusted.
  struct stat st;
  errno = 0;
  if (::fstat(::fileno(f), &st) != 0)
    throw CompressionError("cannot stat " + path + ": " + errno_text());
  if (!S_ISREG(st.st_mode)) {
    errno = S_ISDIR(st.st_mode) ? EISDIR : EINVAL;
    throw CompressionError("cannot read " + path + ": " + errno_text());
  }
  if (std::fseek(f, 0, SEEK_END) != 0)
    throw CompressionError("cannot seek " + path + ": " + errno_text());
  long size = std::ftell(f);
  if (size < 0) throw CompressionError("cannot stat " + path + ": " + errno_text());
  if (std::fseek(f, 0, SEEK_SET) != 0)
    throw CompressionError("cannot seek " + path + ": " + errno_text());
  return static_cast<u64>(size);
}

/// fread the full range in bounded pieces; a single fread of the whole buffer
/// is allowed to short-count, and looping also keeps each request well under
/// any platform size_t quirks on huge files.
void read_exact(std::FILE* f, u8* dst, std::size_t n, const std::string& path) {
  constexpr std::size_t kBlock = std::size_t{64} << 20;  // 64 MiB per fread
  std::size_t done = 0;
  while (done < n) {
    errno = 0;
    std::size_t want = std::min(kBlock, n - done);
    std::size_t got = std::fread(dst + done, 1, want, f);
    if (got == 0)
      throw CompressionError("short read on " + path + ": " + errno_text());
    done += got;
  }
}

}  // namespace

std::vector<u8> read_file(const std::string& path) {
  FilePtr f = open_or_throw(path, "rb", "open");
  u64 size = stream_size(f.get(), path);
  if (size > std::numeric_limits<std::size_t>::max())
    throw CompressionError(path + ": file too large for this address space");
  std::vector<u8> buf(static_cast<std::size_t>(size));
  if (size > 0) read_exact(f.get(), buf.data(), buf.size(), path);
  return buf;
}

u64 file_size(const std::string& path) {
  FilePtr f = open_or_throw(path, "rb", "open");
  return stream_size(f.get(), path);
}

std::vector<u8> read_file_range(const std::string& path, u64 offset, std::size_t size) {
  FilePtr f = open_or_throw(path, "rb", "open");
  u64 total = stream_size(f.get(), path);
  if (offset > total || size > total - offset)
    throw CompressionError(path + ": read range past end of file");
  if (offset > static_cast<u64>(std::numeric_limits<long>::max()))
    throw CompressionError(path + ": offset exceeds seek range");
  errno = 0;
  if (std::fseek(f.get(), static_cast<long>(offset), SEEK_SET) != 0)
    throw CompressionError("cannot seek " + path + ": " + errno_text());
  std::vector<u8> buf(size);
  if (size > 0) read_exact(f.get(), buf.data(), buf.size(), path);
  return buf;
}

void write_file(const std::string& path, const void* data, std::size_t size) {
  FilePtr f = open_or_throw(path, "wb", "create");
  errno = 0;
  if (size > 0 && std::fwrite(data, 1, size, f.get()) != size)
    throw CompressionError("short write on " + path + ": " + errno_text());
}

}  // namespace repro::io
