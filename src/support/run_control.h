// Run guardrails: wall-clock deadlines, RR-pool memory budgets, and
// cooperative cancellation for the OPIM engines.
//
// OPIM's defining property (paper §4) is that the algorithm can be paused
// at *any* moment and still emit a seed set with an instance-specific
// guarantee α. RunControl is the object that lets operators exercise that
// contract: it carries an optional deadline, an optional memory budget for
// the RR-set pools, and a cancellation flag that a signal bridge
// (signal_guard.h) or another thread can trip. Engine loops call Poll() at
// safe points (per-shard chunk granularity inside RR generation, iteration
// boundaries in OPIM-C); once any guardrail trips, every subsequent Poll()
// and Stopped() reports true and the engine exits at its next safe point,
// finishes the judge-pool bound evaluation on whatever RR sets exist, and
// returns a normal result tagged with the StopReason — graceful
// degradation with a correctness certificate instead of an OOM, a missed
// SLA, or a SIGINT mid-doubling.
//
// Thread-safety: one RunControl is shared by every worker of a run. All
// state is atomic; the fast path (already tripped, or no guardrail
// configured) is a single relaxed load. The first trip wins — the reason
// and trip time are recorded exactly once.
//
// The deadline check reads the steady clock, so callers amortize Poll()
// over a chunk of work (e.g. every 32 RR samples); the chunk size bounds
// the cancellation latency, which the engines report (see
// docs/robustness.md for the latency argument).

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

#include "support/macros.h"

namespace opim {

/// Why a guarded run returned. kConverged covers every natural exit (the
/// stopping rule fired or the iteration budget ran out); the other values
/// name the guardrail that tripped first.
enum class StopReason : int {
  kConverged = 0,
  kDeadline = 1,
  kMemoryBudget = 2,
  kCancelled = 3,
  kWorkerFailure = 4,
  // 5 is retired (a removed reason, exit code 7); never reused.
};

/// Stable lowercase names: "converged", "deadline", "memory_budget",
/// "cancelled", "worker_failure". Used in run reports and CLI output.
const char* StopReasonName(StopReason reason);

/// Documented CLI exit codes: converged -> 0, deadline -> 3,
/// memory_budget -> 4, cancelled -> 5, worker_failure -> 6. Exit 7 is
/// retired and never reused. (1 = error, 2 = usage, so
/// degraded-but-certified exits are distinguishable from failures in
/// scripts.)
int ExitCodeForStopReason(StopReason reason);

/// Shared guardrail state for one engine run. Configure before the run
/// starts; workers only call Poll()/Stopped().
class RunControl {
 public:
  RunControl() = default;
  OPIM_DISALLOW_COPY(RunControl);

  using Clock = std::chrono::steady_clock;

  // --- Configuration (before the run) -----------------------------------

  /// Arms the deadline guardrail: Poll() trips kDeadline once the steady
  /// clock reaches `deadline`.
  void SetDeadline(Clock::time_point deadline);

  /// Deadline `ms` milliseconds from now. ms <= 0 arms an already-expired
  /// deadline (the run degrades at its first safe point).
  void SetDeadlineAfterMillis(int64_t ms);

  /// Arms the memory guardrail: Poll(bytes) trips kMemoryBudget once the
  /// reported footprint reaches `bytes` (budget exhausted when reached).
  /// 0 disarms.
  void SetMemoryBudgetBytes(uint64_t bytes);

  /// Binds an external cancellation flag (e.g. SignalGuard::flag());
  /// Poll() trips kCancelled once it reads true. The flag must outlive
  /// the run. The store may come from a signal handler: only the
  /// async-signal-safe atomic load is performed here.
  void BindCancelFlag(const std::atomic<bool>* flag);

  // --- Tripping ----------------------------------------------------------

  /// Programmatic cancellation: trips kCancelled immediately (engines
  /// still exit at their next safe point).
  void RequestCancel() { Trip(StopReason::kCancelled); }

  /// Records a worker exception (called by the engine that caught it).
  void TripWorkerFailure() { Trip(StopReason::kWorkerFailure); }

  // --- Polling (worker safe points) --------------------------------------

  /// True once any guardrail tripped. One relaxed atomic load.
  bool Stopped() const {
    return reason_.load(std::memory_order_relaxed) != kRunning;
  }

  /// The first reason that tripped, or kConverged while running.
  StopReason reason() const {
    const int r = reason_.load(std::memory_order_acquire);
    return r == kRunning ? StopReason::kConverged
                         : static_cast<StopReason>(r);
  }

  /// The safe-point check: records `current_bytes` into the peak, then
  /// tests (in order) the bound cancel flag, the memory budget, and the
  /// deadline. Returns Stopped(). `current_bytes` = 0 means "no new
  /// footprint information" (pure cancellation/deadline check).
  bool Poll(uint64_t current_bytes = 0);

  // --- Telemetry ---------------------------------------------------------

  bool has_deadline() const { return has_deadline_; }
  uint64_t memory_budget_bytes() const { return budget_bytes_; }

  /// Largest footprint any Poll() reported.
  uint64_t peak_bytes() const {
    return peak_bytes_.load(std::memory_order_relaxed);
  }

  /// Folds `bytes` into the peak without running the guardrail checks.
  /// Used when resuming from a snapshot: the restored run's reported
  /// peak must cover the pre-crash iterations, but replaying the old
  /// footprint through Poll() could spuriously trip a tighter budget
  /// configured for the continuation.
  void RecordPeakBytes(uint64_t bytes) {
    uint64_t prev = peak_bytes_.load(std::memory_order_relaxed);
    while (prev < bytes && !peak_bytes_.compare_exchange_weak(
                               prev, bytes, std::memory_order_relaxed)) {
    }
  }

  /// Seconds until the deadline (negative once past). Only meaningful
  /// when has_deadline(). Unaffected by injected clock skew, so reports
  /// carry real slack.
  double deadline_slack_seconds() const;

  /// Seconds since the first trip — the engine reads this just before
  /// returning, which makes it the observed cancellation latency. 0.0
  /// while running.
  double seconds_since_trip() const;

 private:
  static constexpr int kRunning = -1;

  void Trip(StopReason r);

  /// The clock the deadline check sees; fault site "runctl.clock_skew"
  /// (OPIM_FAULT_INJECT builds) pushes it far into the future.
  Clock::time_point ObservedNow() const;

  std::atomic<int> reason_{kRunning};
  std::atomic<int64_t> trip_ns_{0};  // Clock nanos at first trip

  bool has_deadline_ = false;
  Clock::time_point deadline_{};
  uint64_t budget_bytes_ = 0;
  const std::atomic<bool>* cancel_flag_ = nullptr;

  std::atomic<uint64_t> peak_bytes_{0};
  // Sticky fault-injection effects (no-ops unless OPIM_FAULT_INJECT).
  mutable std::atomic<bool> clock_skewed_{false};
  std::atomic<bool> mem_spiked_{false};
};

}  // namespace opim
