// Crash reports — an async-signal-safe "black box" dump on fatal signals.
//
// install_crash_handler(dir) registers SIGSEGV/SIGABRT/SIGBUS handlers that
// write `<dir>/crash-<pid>.json` and then re-raise with the default
// disposition, so the process still dies with the original signal (wait
// status is unchanged — supervisors and CI observe the real crash).
//
// Signal handlers may only call async-signal-safe functions, so nothing can
// be *formatted* inside the handler. Instead the Sampler (obs/watchdog.hpp)
// keeps a fully pre-rendered report body registered via set_crash_body():
// the `pfpl-metrics/1` document opened with its `crash` member and cut
// before that member's closing brace. The handler just write(2)s the active
// body and the closing text rendered at install time,
// `,"signal":"SIGSEGV","signo":11}}`. Bodies double-buffer behind an atomic index — the
// renderer fills the inactive slot and flips, the handler only ever reads
// the active slot, and retired bodies are kept alive so a handler racing a
// flip still reads valid memory.
//
// install_crash_handler() registers a body (without server stats) before it
// installs the handlers, so the handler always has a body to write.
#pragma once

#include <string>

namespace repro::obs {

/// Install the fatal-signal handlers writing reports into `dir` (created if
/// missing). Safe to call again to change the directory. Throws
/// CompressionError when the directory cannot be created.
void install_crash_handler(const std::string& dir);

/// Register the pre-rendered report body, cut where crash_body() cuts it
/// (the handler appends the signal fields and both closing braces).
/// Thread-safe against the handler; call from one renderer thread at a time.
void set_crash_body(const std::string& body);

/// metrics_json_doc(stats) opened with `"crash":{"pid":…,"build":{…},
/// "trace_tail":[…]` (the last 32 spans), without the closing text.
std::string crash_body(const std::string& stats = "");

}  // namespace repro::obs
