#include "obs/crash.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <vector>

#include "common/types.hpp"
#include "obs/exposition.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace repro::obs {
namespace {

// Everything the handler touches lives in static storage and is published
// with release stores; the handler itself allocates nothing.
char g_path[512] = {0};

// Double-buffered pre-rendered bodies. The strings are never destroyed and
// never shrink while active; ptr/len are published after the string is
// fully written, and flips only move forward, so the handler's
// (acquire-load index, load ptr/len, write) sequence always reads a body
// that was complete at some point.
std::string g_bodies[2];
std::atomic<const char*> g_ptr[2] = {nullptr, nullptr};
std::atomic<std::size_t> g_len[2] = {0, 0};
std::atomic<int> g_active{-1};
std::mutex g_render_m;  ///< serializes set_crash_body callers

// The handled signals and the closing text the handler appends for each,
// `,"signal":"SIGSEGV","signo":11}}` and a newline, rendered at install
// time so the handler formats nothing.
constexpr int kSignals[] = {SIGSEGV, SIGABRT, SIGBUS};
constexpr const char* kSignalNames[] = {"SIGSEGV", "SIGABRT", "SIGBUS"};
char g_tails[3][48];

void write_all(int fd, const char* p, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w <= 0) return;  // nothing recoverable inside a signal handler
    p += w;
    n -= static_cast<std::size_t>(w);
  }
}

extern "C" void crash_signal_handler(int sig) {
  // open/write/close and signal/raise are all async-signal-safe.
  const int fd = ::open(g_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd >= 0) {
    // install_crash_handler() sets a body before sigaction(), so there is
    // always an active one.
    const int a = g_active.load(std::memory_order_acquire);
    write_all(fd, g_ptr[a].load(std::memory_order_relaxed),
              g_len[a].load(std::memory_order_relaxed));
    for (int i = 0; i < 3; ++i)
      if (kSignals[i] == sig) write_all(fd, g_tails[i], std::strlen(g_tails[i]));
    ::close(fd);
  }
  // Restore the default disposition and re-raise so the process dies with
  // the original signal (CI and supervisors see the true wait status).
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

}  // namespace

std::string crash_body(const std::string& stats) {
  // The trace tail: the last 32 spans by start time, rendered small.
  std::vector<SpanEvent> events = TraceRecorder::global().events();
  std::sort(events.begin(), events.end(),
            [](const SpanEvent& a, const SpanEvent& b) { return a.start_ns < b.start_ns; });
  if (events.size() > 32) events.erase(events.begin(), events.end() - 32);
  JsonWriter w;
  w.begin_object();
  w.kv("pid", static_cast<unsigned long long>(::getpid()));
  w.key("build").begin_object();
  w.kv("compiler", __VERSION__);
  w.kv("cpp", static_cast<unsigned long long>(__cplusplus));
  w.end_object();
  w.key("trace_tail").begin_array();
  for (const SpanEvent& e : events) {
    w.begin_object();
    w.kv("name", e.name);
    w.kv("tid", static_cast<unsigned long long>(e.tid));
    w.kv("start_us", static_cast<unsigned long long>(e.start_ns / 1000));
    w.kv("dur_us", static_cast<unsigned long long>(e.dur_ns / 1000));
    if (e.request_id) w.kv("request_id", static_cast<unsigned long long>(e.request_id));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::string crash = w.take();
  crash.pop_back();  // the handler closes the crash member...
  std::string body = metrics_json_doc(stats);
  body.pop_back();  // ...and the document
  return body + ",\"crash\":" + crash;
}

void set_crash_body(const std::string& body) {
  std::lock_guard<std::mutex> lock(g_render_m);
  const int cur = g_active.load(std::memory_order_relaxed);
  const int next = cur == 0 ? 1 : 0;
  g_bodies[next].assign(body);
  g_ptr[next].store(g_bodies[next].data(), std::memory_order_relaxed);
  g_len[next].store(g_bodies[next].size(), std::memory_order_relaxed);
  g_active.store(next, std::memory_order_release);
}

void install_crash_handler(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec)
    throw CompressionError("crash-dir '" + dir + "': " + ec.message());
  std::snprintf(g_path, sizeof g_path, "%s/crash-%lld.json", dir.c_str(),
                static_cast<long long>(::getpid()));
  if (g_active.load(std::memory_order_acquire) < 0) set_crash_body(crash_body());

  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_handler = crash_signal_handler;
  sigemptyset(&sa.sa_mask);
  for (int i = 0; i < 3; ++i) {
    std::snprintf(g_tails[i], sizeof g_tails[i], ",\"signal\":\"%s\",\"signo\":%d}}\n",
                  kSignalNames[i], kSignals[i]);
    sigaction(kSignals[i], &sa, nullptr);
  }
}

}  // namespace repro::obs
