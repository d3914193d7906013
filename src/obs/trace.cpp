#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/json.hpp"

namespace repro::obs {

TraceRecorder& TraceRecorder::global() {
  static TraceRecorder* r = new TraceRecorder();  // leaked: outlives all users
  return *r;
}

TraceRecorder::ThreadBuf& TraceRecorder::thread_buf() {
  static thread_local ThreadBuf* mine = nullptr;
  if (!mine) {
    auto buf = std::make_unique<ThreadBuf>();
    std::lock_guard<std::mutex> lk(m_);
    buf->tid = static_cast<u32>(bufs_.size());
    mine = buf.get();
    bufs_.push_back(std::move(buf));
  }
  return *mine;
}

void TraceRecorder::clear() {
  std::lock_guard<std::mutex> lk(m_);
  for (auto& b : bufs_) {
    std::lock_guard<std::mutex> blk(b->m);
    b->events.clear();
  }
  epoch_ = std::chrono::steady_clock::now();
}

std::vector<SpanEvent> TraceRecorder::events() const {
  std::lock_guard<std::mutex> lk(m_);
  std::vector<SpanEvent> out;
  for (const auto& b : bufs_) {
    std::lock_guard<std::mutex> blk(b->m);
    out.insert(out.end(), b->events.begin(), b->events.end());
  }
  return out;
}

std::size_t TraceRecorder::event_count() const {
  std::lock_guard<std::mutex> lk(m_);
  std::size_t n = 0;
  for (const auto& b : bufs_) {
    std::lock_guard<std::mutex> blk(b->m);
    n += b->events.size();
  }
  return n;
}

std::size_t TraceRecorder::thread_count() const {
  std::lock_guard<std::mutex> lk(m_);
  std::size_t n = 0;
  for (const auto& b : bufs_) {
    std::lock_guard<std::mutex> blk(b->m);
    if (!b->events.empty()) ++n;
  }
  return n;
}

std::string TraceRecorder::chrome_json() const {
  std::vector<SpanEvent> evs = events();
  std::sort(evs.begin(), evs.end(), [](const SpanEvent& a, const SpanEvent& b) {
    return a.tid != b.tid ? a.tid < b.tid : a.start_ns < b.start_ns;
  });
  JsonWriter w;
  w.begin_object();
  w.kv("displayTimeUnit", "ms");
  w.key("traceEvents").begin_array();
  for (const SpanEvent& e : evs) {
    w.begin_object();
    w.kv("name", e.name);
    w.kv("ph", "X");
    w.kv("ts", static_cast<double>(e.start_ns) / 1e3);   // trace_event: microseconds
    w.kv("dur", static_cast<double>(e.dur_ns) / 1e3);
    w.kv("pid", 1);
    w.kv("tid", static_cast<unsigned long long>(e.tid));
    if (e.request_id != 0) {
      w.key("args").begin_object();
      w.kv("request_id", static_cast<unsigned long long>(e.request_id));
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

void TraceRecorder::write_chrome_json(const std::string& path) const {
  std::string doc = chrome_json();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) throw CompressionError("obs: cannot open trace file '" + path + "'");
  std::size_t wrote = std::fwrite(doc.data(), 1, doc.size(), f);
  int rc = std::fclose(f);
  if (wrote != doc.size() || rc != 0)
    throw CompressionError("obs: short write to trace file '" + path + "'");
}

void ScopedSpan::begin(const char* name) {
  TraceRecorder& r = TraceRecorder::global();
  buf_ = &r.thread_buf();
  name_ = name;
  depth_ = buf_->depth++;
  request_id_ = TraceContext::current();
  start_ns_ = r.now_ns();
}

void ScopedSpan::end() {
  const u64 dur = TraceRecorder::global().now_ns() - start_ns_;
  if (timed_) record_stage_ns(kernel_, dur);
  --buf_->depth;
  std::lock_guard<std::mutex> lk(buf_->m);
  buf_->events.push_back(
      SpanEvent{name_, start_ns_, dur, buf_->tid, depth_, request_id_});
}

}  // namespace repro::obs
