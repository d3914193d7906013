// BoundedQueue — the in-flight item FIFO between the ingest producer and the
// committing caller.
//
// push() blocks while the queue holds `max_items` items, which is the
// pipeline's backpressure: the producer can never read and submit more than
// `max_items` items ahead of the caller. Each push also carries the item's
// byte size, so the queue can report its high-water marks.
//
// close() ends the stream from either side: later pushes are rejected
// (blocked pushers wake with false), and pops drain what is queued, then
// return false.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>

namespace repro::ingest {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t max_items)
      : max_items_(std::max<std::size_t>(1, max_items)) {}

  /// Blocks until there is room. Returns false — dropping `item` — when the
  /// queue was closed.
  bool push(T item, std::size_t bytes) {
    std::unique_lock<std::mutex> lk(m_);
    cv_.wait(lk, [&] { return closed_ || q_.size() < max_items_; });
    if (closed_) return false;
    q_.emplace_back(std::move(item), bytes);
    bytes_ += bytes;
    peak_bytes_ = std::max(peak_bytes_, bytes_);
    peak_items_ = std::max(peak_items_, q_.size());
    lk.unlock();
    cv_.notify_all();
    return true;
  }

  /// Blocks until an item is available. Returns false when the queue is
  /// closed and fully drained.
  bool pop(T& out) {
    std::unique_lock<std::mutex> lk(m_);
    cv_.wait(lk, [&] { return closed_ || !q_.empty(); });
    if (q_.empty()) return false;
    out = std::move(q_.front().first);
    bytes_ -= q_.front().second;
    q_.pop_front();
    lk.unlock();
    cv_.notify_all();
    return true;
  }

  void close() {
    {
      std::lock_guard<std::mutex> lk(m_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  /// High-water marks over the queue's lifetime.
  std::size_t peak_bytes() const {
    std::lock_guard<std::mutex> lk(m_);
    return peak_bytes_;
  }
  std::size_t peak_items() const {
    std::lock_guard<std::mutex> lk(m_);
    return peak_items_;
  }

 private:
  const std::size_t max_items_;
  mutable std::mutex m_;
  std::condition_variable cv_;
  std::deque<std::pair<T, std::size_t>> q_;
  std::size_t bytes_ = 0;
  std::size_t peak_bytes_ = 0;
  std::size_t peak_items_ = 0;
  bool closed_ = false;
};

}  // namespace repro::ingest
