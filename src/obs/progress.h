// Live progress heartbeat for long runs (`opim_cli ... --progress`).
//
// A ProgressHeartbeat owns one background thread that wakes about once a
// second and writes a single status line to stderr: elapsed wall clock,
// doubling iterations and RR sets so far (counter deltas against the
// registry state captured at construction), peak RR-pool footprint, — when
// the bound RunControl has a deadline — the remaining slack, and the
// process's peak resident set plus major/minor page-fault counters
// (support/resource_usage.h), which surface the disk traffic of cold
// .opimg loads. Once a guardrail trips, the line is suffixed with the
// stop reason so an operator watching a ^C'd run sees the engine
// draining to its pause point.
//
// Output goes through snprintf into a stack buffer followed by one
// write(2) — the async-signal-safe output primitive — so heartbeat lines
// cannot corrupt the stream state of stdio even when a SignalGuard-bridged
// SIGINT/SIGTERM arrives mid-line; each line is a single short write.
//
// The heartbeat is observe-only: it reads counters, gauges, and the
// RunControl; it never writes anything the algorithms read. It works in
// telemetry-OFF builds too, degraded to wall-clock/guardrail information
// (the counters it reads simply stay zero).

#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

#include "support/macros.h"

namespace opim {

class RunControl;

/// RAII heartbeat: starts its thread on construction, joins it on
/// destruction (or an explicit Stop()).
class ProgressHeartbeat {
 public:
  struct Options {
    /// Seconds between status lines.
    double interval_seconds = 1.0;
    /// Destination file descriptor (stderr by default).
    int fd = 2;
  };

  /// `control` may be nullptr (no guardrail columns) and must outlive the
  /// heartbeat otherwise. (Two overloads because a nested class's default
  /// member initializers cannot seed a default argument in the enclosing
  /// class.)
  explicit ProgressHeartbeat(const RunControl* control = nullptr);
  ProgressHeartbeat(const RunControl* control, const Options& options);
  ~ProgressHeartbeat();

  OPIM_DISALLOW_COPY(ProgressHeartbeat);

  /// Joins the heartbeat thread after emitting one final status line, so
  /// the last line reflects the finished run. Idempotent.
  void Stop();

  /// Lines written so far (test support).
  uint64_t lines_written() const;

  /// Renders one status line into `buf` (no trailing newline added by the
  /// caller — the line includes it). Exposed for tests; returns the line
  /// length, truncated to the buffer.
  size_t FormatLine(char* buf, size_t buf_size) const;

 private:
  void Loop();

  const RunControl* const control_;
  const Options options_;
  const std::chrono::steady_clock::time_point start_;
  // Counter baselines captured at construction; the line shows deltas so
  // back-to-back runs in one process don't inherit earlier totals.
  uint64_t base_iterations_ = 0;
  uint64_t base_rr_sets_ = 0;

  mutable std::mutex mu_;
  std::condition_variable wake_;
  bool stopping_ = false;
  uint64_t lines_written_ = 0;
  std::thread thread_;
};

}  // namespace opim
