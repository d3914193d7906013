// GatedStore — a persistent ChunkStore whose segment appends a test can hold
// or crash, for driving a real pfpld request into a known state.
//
// The server's COMPRESS and DECOMPRESS workers put their answer into the
// attached chunk store after computing it, so a store whose append blocks
// keeps that request in flight on its pool worker (in-flight bytes charged,
// watchdog slot busy, response not yet queued), and one whose append raises
// SIGSEGV kills the serving process inside that worker. Both go through the
// store's own write seam (io::FileOps); the server has no test hook.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "io/file_ops.hpp"
#include "store/store.hpp"

namespace repro::gated {

/// Forwards every operation to the POSIX FileOps. Appends pass until the test
/// arms hold() or crash(): the SegmentStore writes its first segment header
/// while it is being constructed, so arm only after the store exists.
class GatedOps final : public io::FileOps {
 public:
  /// Every later append waits until open() (or a 30 s safety deadline, so a
  /// failed test cannot hang its server's drain).
  void hold() { mode_ = Mode::Hold; }
  /// Every later append raises SIGSEGV on the thread that makes it.
  void crash() { mode_ = Mode::Crash; }
  /// Let every held append through, and every later one.
  void open() {
    {
      std::lock_guard<std::mutex> lk(m_);
      open_ = true;
    }
    cv_.notify_all();
  }
  /// Appends waiting on the gate right now.
  std::size_t held() const { return held_.load(); }
  /// Poll until `n` appends wait on the gate; false at the 10 s deadline.
  bool wait_held(std::size_t n = 1) const {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (held() < n) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  }

  std::unique_ptr<File> create(const std::string& path) override {
    return std::make_unique<GatedFile>(*this, inner().create(path));
  }
  std::unique_ptr<File> open_append(const std::string& path) override {
    return std::make_unique<GatedFile>(*this, inner().open_append(path));
  }
  void truncate(const std::string& path, u64 size) override { inner().truncate(path, size); }
  void rename(const std::string& from, const std::string& to) override {
    inner().rename(from, to);
  }
  void remove(const std::string& path) override { inner().remove(path); }
  void fsync_dir(const std::string& dir) override { inner().fsync_dir(dir); }

 private:
  enum class Mode { Pass, Hold, Crash };

  class GatedFile final : public File {
   public:
    GatedFile(GatedOps& ops, std::unique_ptr<File> inner)
        : ops_(ops), inner_(std::move(inner)) {}
    void append(const u8* data, std::size_t n) override {
      ops_.gate();
      inner_->append(data, n);
    }
    void fsync() override { inner_->fsync(); }

   private:
    GatedOps& ops_;
    std::unique_ptr<File> inner_;
  };

  static io::FileOps& inner() { return io::posix_file_ops(); }

  void gate() {
    if (mode_ == Mode::Crash) ::raise(SIGSEGV);
    if (mode_ != Mode::Hold) return;
    std::unique_lock<std::mutex> lk(m_);
    ++held_;
    cv_.wait_for(lk, std::chrono::seconds(30), [this] { return open_; });
    --held_;
  }

  std::atomic<Mode> mode_{Mode::Pass};
  std::atomic<std::size_t> held_{0};
  std::mutex m_;
  std::condition_variable cv_;
  bool open_ = false;
};

/// A persistent ChunkStore in the fresh directory `dir`, writing through
/// `ops`. Opens the gate before the store goes, and removes the directory.
struct GatedStore {
  explicit GatedStore(std::filesystem::path d) : dir(std::move(d)) {
    std::filesystem::remove_all(dir);
    store::ChunkStore::Options o;
    o.dir = dir.string();
    store = std::make_shared<store::ChunkStore>(o, ops);
  }
  ~GatedStore() {
    ops.open();
    store.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
  GatedStore(const GatedStore&) = delete;
  GatedStore& operator=(const GatedStore&) = delete;

  GatedOps ops;
  std::filesystem::path dir;
  std::shared_ptr<store::ChunkStore> store;
};

}  // namespace repro::gated
