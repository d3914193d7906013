// TraceRecorder — scoped spans serialized as Chrome trace_event JSON.
//
// Usage:
//   void encode() {
//     OBS_SPAN("encode_chunk");     // records [ctor, dtor) when obs is on
//     ...
//   }
//
// Spans are buffered per thread (registered lazily, so a process that never
// enables observability never allocates a buffer) and merged on read. The
// serialized form is the Chrome trace_event "X" (complete) event —
// chrome://tracing and Perfetto load the file directly — plus a compact
// indented text tree for terminals.
//
// Nesting is tracked with a per-thread depth counter: each event stores the
// depth at which it started, which is what the text tree indents by. Events
// land in the buffer at span *end* (when the duration is known), so a child
// appears before its parent in the raw buffer; both renderers sort by start
// timestamp first.
#pragma once

#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "obs/control.hpp"
#include "obs/kernels.hpp"

namespace repro::obs {

struct SpanEvent {
  std::string name;
  u64 start_ns = 0;  ///< since the recorder's epoch
  u64 dur_ns = 0;
  u32 tid = 0;   ///< recorder-assigned small id, stable per thread
  u32 depth = 0; ///< nesting depth at span start (0 = top level)
  u64 request_id = 0;  ///< TraceContext id active at span start (0 = none)
};

/// Request-scoped trace context: a per-thread id (the PFPN request_id on the
/// server path) that every span started while a Scope is live is tagged with,
/// so one request's spans can be pulled out of a merged multi-thread trace.
/// The id is an ordinary thread-local — installing a Scope is a store and a
/// restore, with no allocation or recording, so it is safe to install even
/// when observability is disabled.
class TraceContext {
 public:
  /// The calling thread's current request id (0 when outside any Scope).
  static u64 current() { return tl_id(); }

  /// RAII installer: sets the thread's id for the lifetime of the Scope and
  /// restores the previous value on destruction (scopes nest).
  class Scope {
   public:
    explicit Scope(u64 request_id) : prev_(tl_id()) { tl_id() = request_id; }
    ~Scope() { tl_id() = prev_; }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    u64 prev_;
  };

 private:
  static u64& tl_id() {
    static thread_local u64 id = 0;
    return id;
  }
};

class TraceRecorder {
 public:
  static TraceRecorder& global();

  /// Drop all recorded events and restart the epoch. Buffers stay
  /// registered (their threads may still be alive).
  void clear();

  /// Merged snapshot of every thread's events (unordered across threads).
  std::vector<SpanEvent> events() const;
  std::size_t event_count() const;
  /// Number of threads that have recorded at least one span.
  std::size_t thread_count() const;

  /// Chrome trace_event JSON ({"traceEvents":[...]}; ts/dur in microseconds).
  std::string chrome_json() const;
  /// Write chrome_json() to `path`. Throws CompressionError on I/O failure.
  void write_chrome_json(const std::string& path) const;

  // Internal API used by ScopedSpan ---------------------------------------
  struct ThreadBuf {
    std::mutex m;  ///< guards events against a concurrent merge
    std::vector<SpanEvent> events;
    u32 tid = 0;
    u32 depth = 0;  ///< owner-thread-only nesting counter
  };
  /// The calling thread's buffer, registering it on first use.
  ThreadBuf& thread_buf();
  u64 now_ns() const {
    return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                std::chrono::steady_clock::now() - epoch_)
                                .count());
  }

 private:
  TraceRecorder() : epoch_(std::chrono::steady_clock::now()) {}

  mutable std::mutex m_;  ///< guards bufs_ registration and epoch resets
  std::vector<std::unique_ptr<ThreadBuf>> bufs_;
  std::chrono::steady_clock::time_point epoch_;
};

/// RAII span. Captures the start time when observability is enabled at
/// construction; the destructor records the completed event. When disabled,
/// construction and destruction are a relaxed load + branch each.
///
/// A pipeline stage's span also names its Kernel: end() then records the
/// span's own duration into that stage's nanosecond histogram
/// (obs/kernels.hpp), so the stage has one instrument and one clock pair.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) {
    if (!obs::enabled()) return;
    begin(name);
  }
  ScopedSpan(const char* name, Kernel k) : kernel_(k), timed_(true) {
    if (!obs::enabled()) return;
    begin(name);
  }
  explicit ScopedSpan(std::string name) {
    if (!obs::enabled()) return;
    dyn_name_ = std::move(name);
    begin(dyn_name_.c_str());
  }
  ~ScopedSpan() { if (buf_) end(); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  void begin(const char* name);
  void end();

  const char* name_ = nullptr;
  std::string dyn_name_;
  TraceRecorder::ThreadBuf* buf_ = nullptr;
  u64 start_ns_ = 0;
  u32 depth_ = 0;
  u64 request_id_ = 0;
  Kernel kernel_ = Kernel::Quantize;
  bool timed_ = false;  ///< kernel_ names this span's stage
};

#define OBS_SPAN_CONCAT2(a, b) a##b
#define OBS_SPAN_CONCAT(a, b) OBS_SPAN_CONCAT2(a, b)
/// Open a span covering the rest of the enclosing scope: OBS_SPAN(name), or
/// OBS_SPAN(name, kernel) for a pipeline stage.
#define OBS_SPAN(...) ::repro::obs::ScopedSpan OBS_SPAN_CONCAT(obs_span_, __LINE__)(__VA_ARGS__)

}  // namespace repro::obs
