// Thread pool for chunk-parallel work: the ingest pipeline's per-file and
// per-chunk tasks and pfpld's request dispatch (DESIGN.md §svc).
//
// Design:
//   * one FIFO task queue shared by every worker. Any idle worker takes the
//     oldest pending task — the paper's dynamic chunk assignment for load
//     balance (chunks differ in compressibility) with nothing to tune, and
//     tasks start in submission order.
//   * submit() BLOCKS while `queue_capacity` tasks are already pending — the
//     bounded queue is the service's backpressure primitive, so a fast
//     submitter cannot buffer unbounded work in memory.
//   * graceful shutdown: the destructor (or shutdown()) lets every already-
//     queued task run to completion, then joins the workers. Tasks submitted
//     after shutdown began are rejected with CompressionError.
//
// The pool is deliberately scheduler-only: a task returns nothing and must
// not throw (an escaping exception terminates the process), so each task
// writes its result into a slot its submitter owns and reports its own
// errors. Determinism of the compressed output is the responsibility of the
// caller's slot layout (see ingest/pipeline.cpp), not of the scheduler.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/types.hpp"

namespace repro::svc {

class ThreadPool {
 public:
  /// Scheduler counters (monotonic over the pool's lifetime).
  struct Counters {
    u64 submitted = 0;      ///< tasks accepted by submit()
    u64 executed = 0;       ///< tasks run to completion
    u64 peak_pending = 0;   ///< high-water mark of the queue depth
  };

  /// `threads` == 0 selects std::thread::hardware_concurrency() (min 1).
  explicit ThreadPool(unsigned threads = 0, std::size_t queue_capacity = 4096);
  ~ThreadPool();  // graceful: drains queued tasks, then joins

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Schedule `f`, which must not throw. Blocks while the pending-task count
  /// is at capacity; throws CompressionError after shutdown() has begun or
  /// while a drain() is in progress.
  void submit(std::function<void()> f);

  /// Block until every queued and running task has finished.
  void wait_idle();

  /// Graceful drain WITHOUT destroying the pool: submissions made while a
  /// drain is in progress are rejected with CompressionError, every already-
  /// queued and running task finishes, then the pool accepts work again.
  /// This is the quiescence primitive the network server's graceful shutdown
  /// uses (finish in-flight requests, reject new ones, keep the workers),
  /// and what the ingest pipeline uses to leave the pool idle after a run.
  void drain();

  /// True while a drain() is in progress (submissions are being rejected).
  bool draining() const;

  /// Begin graceful shutdown (idempotent): queued tasks still run; new
  /// submissions are rejected. Returns after all workers have joined.
  void shutdown();

  unsigned worker_count() const { return static_cast<unsigned>(threads_.size()); }
  std::size_t pending() const;
  Counters counters() const;

 private:
  /// A queued closure plus its enqueue timestamp (ns on the obs trace clock;
  /// 0 when observability is disabled). The timestamp is what turns into the
  /// svc.pool.task_wait_us histogram — time spent queued before a worker
  /// picked the task up, the service's scheduling-delay signal. `trace_ctx`
  /// carries the submitter's obs::TraceContext id across the queue (obs on
  /// or off) so spans recorded while the task runs are tagged with the
  /// originating request and a stalled task names it.
  struct Task {
    std::function<void()> fn;
    u64 enqueue_ns = 0;
    u64 trace_ctx = 0;
  };

  void worker_loop(unsigned self);

  std::size_t capacity_;

  // Scheduler state: the queue, running count, shutdown flag, counters.
  mutable std::mutex state_m_;
  std::condition_variable work_cv_;   ///< workers sleep here
  std::condition_variable space_cv_;  ///< submitters blocked on the bound
  std::condition_variable idle_cv_;   ///< wait_idle()/drain() sleep here
  std::deque<Task> queue_;            ///< queued, not yet started (FIFO)
  std::size_t running_ = 0;           ///< currently executing
  bool stopping_ = false;
  bool draining_ = false;             ///< drain() in progress: reject submits
  Counters counters_;

  std::vector<std::thread> threads_;  ///< last: workers use every member above
};

}  // namespace repro::svc
