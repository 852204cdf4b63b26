#include "support/run_control.h"

#include <limits>

#include "support/fault_inject.h"

namespace opim {

const char* StopReasonName(StopReason reason) {
  switch (reason) {
    case StopReason::kConverged:
      return "converged";
    case StopReason::kDeadline:
      return "deadline";
    case StopReason::kMemoryBudget:
      return "memory_budget";
    case StopReason::kCancelled:
      return "cancelled";
    case StopReason::kWorkerFailure:
      return "worker_failure";
  }
  return "unknown";
}

int ExitCodeForStopReason(StopReason reason) {
  switch (reason) {
    case StopReason::kConverged:
      return 0;
    case StopReason::kDeadline:
      return 3;
    case StopReason::kMemoryBudget:
      return 4;
    case StopReason::kCancelled:
      return 5;
    case StopReason::kWorkerFailure:
      return 6;
  }
  return 1;
}

void RunControl::SetDeadline(Clock::time_point deadline) {
  deadline_ = deadline;
  has_deadline_ = true;
}

void RunControl::SetDeadlineAfterMillis(int64_t ms) {
  SetDeadline(Clock::now() + std::chrono::milliseconds(ms));
}

void RunControl::SetMemoryBudgetBytes(uint64_t bytes) {
  budget_bytes_ = bytes;
}

void RunControl::BindCancelFlag(const std::atomic<bool>* flag) {
  cancel_flag_ = flag;
}

void RunControl::Trip(StopReason r) {
  int expected = kRunning;
  if (reason_.compare_exchange_strong(expected, static_cast<int>(r),
                                      std::memory_order_acq_rel)) {
    trip_ns_.store(std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock::now().time_since_epoch())
                       .count(),
                   std::memory_order_release);
  }
}

RunControl::Clock::time_point RunControl::ObservedNow() const {
  if (OPIM_FAULT_POINT("runctl.clock_skew")) {
    clock_skewed_.store(true, std::memory_order_relaxed);
  }
  Clock::time_point now = Clock::now();
  if (clock_skewed_.load(std::memory_order_relaxed)) {
    now += std::chrono::hours(24 * 365);
  }
  return now;
}

bool RunControl::Poll(uint64_t current_bytes) {
  if (Stopped()) return true;

  if (OPIM_FAULT_POINT("runctl.mem_spike")) {
    mem_spiked_.store(true, std::memory_order_relaxed);
  }
  if (current_bytes > 0) {
    uint64_t peak = peak_bytes_.load(std::memory_order_relaxed);
    while (current_bytes > peak &&
           !peak_bytes_.compare_exchange_weak(peak, current_bytes,
                                              std::memory_order_relaxed)) {
    }
  }

  if (cancel_flag_ != nullptr &&
      cancel_flag_->load(std::memory_order_relaxed)) {
    Trip(StopReason::kCancelled);
    return true;
  }
  if (budget_bytes_ > 0) {
    const uint64_t effective =
        mem_spiked_.load(std::memory_order_relaxed)
            ? std::numeric_limits<uint64_t>::max() / 2
            : current_bytes;
    if (effective >= budget_bytes_) {
      Trip(StopReason::kMemoryBudget);
      return true;
    }
  }
  if (has_deadline_ && ObservedNow() >= deadline_) {
    Trip(StopReason::kDeadline);
    return true;
  }
  return false;
}

double RunControl::deadline_slack_seconds() const {
  if (!has_deadline_) return 0.0;
  return std::chrono::duration<double>(deadline_ - Clock::now()).count();
}

double RunControl::seconds_since_trip() const {
  if (!Stopped()) return 0.0;
  const int64_t trip = trip_ns_.load(std::memory_order_acquire);
  const int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now().time_since_epoch())
                          .count();
  return static_cast<double>(now - trip) * 1e-9;
}

}  // namespace opim
