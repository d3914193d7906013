#include "svc/thread_pool.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"

namespace repro::svc {
namespace {

/// Pool metric handles, resolved once (see obs/metrics.hpp on the pattern).
struct PoolMetrics {
  obs::Gauge& queue_depth;
  obs::Histogram& task_wait_us;  ///< enqueue -> dequeue
  obs::Histogram& task_run_us;   ///< dequeue -> completion
  static PoolMetrics& get() {
    auto& r = obs::MetricsRegistry::global();
    static PoolMetrics m{r.gauge("svc.pool.queue_depth"),
                         r.histogram("svc.pool.task_wait_us"),
                         r.histogram("svc.pool.task_run_us")};
    return m;
  }
};

}  // namespace

ThreadPool::ThreadPool(unsigned threads, std::size_t queue_capacity)
    : capacity_(std::max<std::size_t>(1, queue_capacity)) {
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  threads_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i)
    threads_.emplace_back(&ThreadPool::worker_loop, this, i);
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::submit(std::function<void()> f) {
  // The request id is a thread-local read and rides along even with obs off:
  // the watchdog reports it as a stall's detail.
  Task t{std::move(f), obs::enabled() ? obs::TraceRecorder::global().now_ns() : 0,
         obs::TraceContext::current()};
  std::unique_lock<std::mutex> lk(state_m_);
  space_cv_.wait(lk, [&] { return stopping_ || draining_ || queue_.size() < capacity_; });
  if (stopping_) throw CompressionError("svc::ThreadPool: submit after shutdown");
  if (draining_) throw CompressionError("svc::ThreadPool: submit during drain");
  queue_.push_back(std::move(t));
  ++counters_.submitted;
  counters_.peak_pending = std::max<u64>(counters_.peak_pending, queue_.size());
  PoolMetrics::get().queue_depth.set(static_cast<long long>(queue_.size()));
  lk.unlock();
  work_cv_.notify_one();
}

void ThreadPool::worker_loop(unsigned self) {
  // Watchdog slot for stall detection: one per worker, marked busy around
  // each task. Slots are process-global and never recycled; once the table
  // fills (many short-lived pools in one test process) later workers get -1
  // and StallScope goes inert, which only costs them stall coverage.
  const int wd_slot =
      obs::Watchdog::global().register_slot("svc.worker." + std::to_string(self));
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lk(state_m_);
      work_cv_.wait(lk, [&] { return !queue_.empty() || stopping_; });
      if (queue_.empty()) return;  // stopping, and every queued task has run
      task = std::move(queue_.front());
      queue_.pop_front();
      ++running_;
      PoolMetrics::get().queue_depth.set(static_cast<long long>(queue_.size()));
    }
    space_cv_.notify_one();  // queue slot freed on dequeue, not completion
    u64 run_t0 = 0;
    if (obs::enabled()) {
      obs::TraceRecorder& rec = obs::TraceRecorder::global();
      run_t0 = rec.now_ns();
      // enqueue_ns can postdate run_t0 if TraceRecorder::clear() reset the
      // epoch between enqueue and dequeue; skip the sample rather than wrap.
      if (task.enqueue_ns && run_t0 >= task.enqueue_ns)
        PoolMetrics::get().task_wait_us.record((run_t0 - task.enqueue_ns) / 1000);
    }
    {
      // The stall scope brackets exactly one task: a worker flagged by the
      // watchdog has been inside this block — i.e. inside task.fn() — past
      // the threshold. `detail` carries the originating request id.
      obs::StallScope stall(wd_slot, task.trace_ctx);
      if (run_t0) {
        // Re-install the submitter's trace context for the task's duration so
        // every span it opens (and the task span itself) is tagged with the
        // originating request id.
        obs::TraceContext::Scope ctx(task.trace_ctx);
        obs::ScopedSpan span("svc.pool.task");
        task.fn();
      } else {
        task.fn();
      }
    }
    if (run_t0)
      PoolMetrics::get().task_run_us.record(
          (obs::TraceRecorder::global().now_ns() - run_t0) / 1000);
    {
      std::lock_guard<std::mutex> lk(state_m_);
      --running_;
      ++counters_.executed;
      if (queue_.empty() && running_ == 0) idle_cv_.notify_all();
    }
  }
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lk(state_m_);
  idle_cv_.wait(lk, [&] { return queue_.empty() && running_ == 0; });
}

void ThreadPool::drain() {
  std::unique_lock<std::mutex> lk(state_m_);
  // Concurrent drains simply queue up on the same predicate: each waits for
  // idle, and the flag stays set until the last one re-enables submissions.
  draining_ = true;
  lk.unlock();
  // Wake submitters blocked on the capacity bound so they see the drain and
  // throw instead of waiting out a queue slot that may never matter again.
  space_cv_.notify_all();
  lk.lock();
  idle_cv_.wait(lk, [&] { return queue_.empty() && running_ == 0; });
  draining_ = false;
  lk.unlock();
  space_cv_.notify_all();
}

bool ThreadPool::draining() const {
  std::lock_guard<std::mutex> lk(state_m_);
  return draining_;
}

void ThreadPool::shutdown() {
  {
    std::lock_guard<std::mutex> lk(state_m_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  space_cv_.notify_all();
  for (std::thread& t : threads_)
    if (t.joinable()) t.join();
}

std::size_t ThreadPool::pending() const {
  std::lock_guard<std::mutex> lk(state_m_);
  return queue_.size();
}

ThreadPool::Counters ThreadPool::counters() const {
  std::lock_guard<std::mutex> lk(state_m_);
  return counters_;
}

}  // namespace repro::svc
