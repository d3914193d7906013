// RecordingOps — an io::FileOps for tests of every writer that goes through
// the seam (the chunk store, PFPA, PFPV). It forwards to the POSIX one, logs
// every operation that took effect, with each append's bytes, so a test can
// rebuild what a crash at any operation would leave, and fails any one
// operation as a Fault says.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "io/file_ops.hpp"

namespace repro::recording {

constexpr std::size_t kNever = SIZE_MAX;

enum class OpKind { Create, OpenAppend, Append, Fsync, Truncate, Rename, Remove, FsyncDir };

/// One change the store made to its directory. Names are relative to it.
struct Op {
  OpKind kind{};
  std::string name{};    ///< file (rename: source)
  std::string to{};      ///< rename target
  std::size_t file = 0;  ///< Append/Fsync: index of the op that opened the file
  Bytes data{};          ///< Append
  u64 size = 0;          ///< Truncate
};

/// ShortThenCutFails: a short write, and the operation after it (the
/// store's truncate of the partial frame) fails with EIO too.
enum class Fault { Eio, Enospc, Short, ShortThenCutFails };

inline const char* fault_name(Fault f) {
  switch (f) {
    case Fault::Eio: return "EIO";
    case Fault::Enospc: return "ENOSPC";
    case Fault::Short: return "short write";
    case Fault::ShortThenCutFails: return "short write, then a failed truncate";
  }
  return "";
}

/// Forwards to the POSIX FileOps, logs every operation that took effect, and
/// fails the operation with index `fail_at` (counted from 0 over every
/// attempted operation; closing a file is not an operation) as `fault` says.
class RecordingOps final : public io::FileOps {
 public:
  std::vector<Op> log;
  std::size_t attempted = 0;
  std::size_t fail_at = kNever;
  Fault fault = Fault::Eio;

  std::unique_ptr<File> create(const std::string& path) override {
    return open(OpKind::Create, path, [&] { return inner().create(path); });
  }
  std::unique_ptr<File> open_append(const std::string& path) override {
    return open(OpKind::OpenAppend, path, [&] { return inner().open_append(path); });
  }
  void truncate(const std::string& path, u64 size) override {
    gate(path);
    inner().truncate(path, size);
    log.push_back(Op{OpKind::Truncate, name_of(path), "", 0, {}, size});
  }
  void rename(const std::string& from, const std::string& to) override {
    gate(to);
    inner().rename(from, to);
    log.push_back(Op{OpKind::Rename, name_of(from), name_of(to)});
  }
  void remove(const std::string& path) override {
    gate(path);
    inner().remove(path);
    log.push_back(Op{OpKind::Remove, name_of(path)});
  }
  void fsync_dir(const std::string& dir) override {
    gate(dir);
    inner().fsync_dir(dir);
    log.push_back(Op{OpKind::FsyncDir});
  }

 private:
  class RecordingFile final : public File {
   public:
    RecordingFile(RecordingOps& ops, std::unique_ptr<File> inner, std::size_t id,
                  std::string path)
        : ops_(ops), inner_(std::move(inner)), id_(id), path_(std::move(path)) {}
    void append(const u8* data, std::size_t n) override {
      if (ops_.attempted == ops_.fail_at && ops_.fault >= Fault::Short && n > 1) {
        inner_->append(data, n / 2);
        ops_.log.push_back(Op{OpKind::Append, "", "", id_, Bytes(data, data + n / 2)});
      }
      ops_.gate(path_);
      inner_->append(data, n);
      ops_.log.push_back(Op{OpKind::Append, "", "", id_, Bytes(data, data + n)});
    }
    void fsync() override {
      ops_.gate(path_);
      inner_->fsync();
      ops_.log.push_back(Op{OpKind::Fsync, "", "", id_});
    }

   private:
    RecordingOps& ops_;
    std::unique_ptr<File> inner_;
    std::size_t id_;
    std::string path_;
  };

  static FileOps& inner() { return io::posix_file_ops(); }
  static std::string name_of(const std::string& path) {
    return std::filesystem::path(path).filename().string();
  }

  /// Counts one attempted operation and throws when it is the one to fail.
  void gate(const std::string& path) {
    const std::size_t index = attempted++;
    if (index != fail_at && !(fault == Fault::ShortThenCutFails && index == fail_at + 1))
      return;
    errno = index == fail_at && fault != Fault::Eio ? ENOSPC : EIO;
    throw CompressionError(path + ": injected: " + std::strerror(errno));
  }

  template <class OpenFn>
  std::unique_ptr<File> open(OpKind kind, const std::string& path, OpenFn fn) {
    gate(path);
    std::unique_ptr<File> f = fn();
    log.push_back(Op{kind, name_of(path)});
    return std::make_unique<RecordingFile>(*this, std::move(f), log.size() - 1, path);
  }
};

}  // namespace repro::recording
