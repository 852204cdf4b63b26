// RunControl unit tests: trip-once semantics, guardrail ordering, peak
// tracking, and the StopReason/exit-code taxonomy.

#include "support/run_control.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace opim {
namespace {

TEST(RunControlTest, FreshControlNeverStops) {
  RunControl c;
  EXPECT_FALSE(c.Stopped());
  EXPECT_FALSE(c.Poll());
  EXPECT_FALSE(c.Poll(1ull << 40));  // no budget armed: bytes are ignored
  EXPECT_EQ(c.reason(), StopReason::kConverged);
  EXPECT_FALSE(c.has_deadline());
  EXPECT_EQ(c.memory_budget_bytes(), 0u);
  EXPECT_EQ(c.seconds_since_trip(), 0.0);
}

TEST(RunControlTest, ExpiredDeadlineTripsOnFirstPoll) {
  RunControl c;
  c.SetDeadlineAfterMillis(0);  // already expired
  EXPECT_TRUE(c.has_deadline());
  EXPECT_FALSE(c.Stopped());  // arming alone does not trip
  EXPECT_TRUE(c.Poll());
  EXPECT_TRUE(c.Stopped());
  EXPECT_EQ(c.reason(), StopReason::kDeadline);
  EXPECT_LE(c.deadline_slack_seconds(), 0.0);
}

TEST(RunControlTest, FutureDeadlineDoesNotTrip) {
  RunControl c;
  c.SetDeadlineAfterMillis(60'000);
  EXPECT_FALSE(c.Poll());
  EXPECT_GT(c.deadline_slack_seconds(), 0.0);
}

TEST(RunControlTest, MemoryBudgetTripsWhenReached) {
  RunControl c;
  c.SetMemoryBudgetBytes(1000);
  EXPECT_FALSE(c.Poll(999));
  // "Exhausted when reached": bytes == budget trips.
  EXPECT_TRUE(c.Poll(1000));
  EXPECT_EQ(c.reason(), StopReason::kMemoryBudget);
}

TEST(RunControlTest, PeakBytesTracksLargestPoll) {
  RunControl c;
  c.Poll(100);
  c.Poll(5000);
  c.Poll(300);
  EXPECT_EQ(c.peak_bytes(), 5000u);
}

TEST(RunControlTest, CancelFlagTripsOnPoll) {
  std::atomic<bool> flag{false};
  RunControl c;
  c.BindCancelFlag(&flag);
  EXPECT_FALSE(c.Poll());
  flag.store(true);
  EXPECT_TRUE(c.Poll());
  EXPECT_EQ(c.reason(), StopReason::kCancelled);
}

TEST(RunControlTest, RequestCancelTripsImmediately) {
  RunControl c;
  c.RequestCancel();
  EXPECT_TRUE(c.Stopped());
  EXPECT_EQ(c.reason(), StopReason::kCancelled);
  EXPECT_GE(c.seconds_since_trip(), 0.0);
}

TEST(RunControlTest, FirstReasonWins) {
  RunControl c;
  c.RequestCancel();
  c.TripWorkerFailure();  // later trip must not overwrite the reason
  c.SetMemoryBudgetBytes(1);
  c.Poll(1ull << 30);
  EXPECT_EQ(c.reason(), StopReason::kCancelled);
}

TEST(RunControlTest, CancelWinsOverMemoryAndDeadlineInOnePoll) {
  // All three guardrails fire on the same Poll: the documented check order
  // is cancel -> memory -> deadline.
  std::atomic<bool> flag{true};
  RunControl c;
  c.BindCancelFlag(&flag);
  c.SetMemoryBudgetBytes(1);
  c.SetDeadlineAfterMillis(0);
  EXPECT_TRUE(c.Poll(100));
  EXPECT_EQ(c.reason(), StopReason::kCancelled);
}

TEST(RunControlTest, ConcurrentPollersAgreeOnOneReason) {
  RunControl c;
  c.SetMemoryBudgetBytes(1);
  std::vector<std::thread> threads;
  std::atomic<int> stopped_count{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&c, &stopped_count] {
      for (int i = 0; i < 1000; ++i) {
        if (c.Poll(2)) {
          stopped_count.fetch_add(1);
          break;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(stopped_count.load(), 8);
  EXPECT_EQ(c.reason(), StopReason::kMemoryBudget);
}

TEST(StopReasonTest, NamesAreStable) {
  EXPECT_STREQ(StopReasonName(StopReason::kConverged), "converged");
  EXPECT_STREQ(StopReasonName(StopReason::kDeadline), "deadline");
  EXPECT_STREQ(StopReasonName(StopReason::kMemoryBudget), "memory_budget");
  EXPECT_STREQ(StopReasonName(StopReason::kCancelled), "cancelled");
  EXPECT_STREQ(StopReasonName(StopReason::kWorkerFailure), "worker_failure");
}

TEST(StopReasonTest, ExitCodesMatchTheDocumentedTaxonomy) {
  EXPECT_EQ(ExitCodeForStopReason(StopReason::kConverged), 0);
  EXPECT_EQ(ExitCodeForStopReason(StopReason::kDeadline), 3);
  EXPECT_EQ(ExitCodeForStopReason(StopReason::kMemoryBudget), 4);
  EXPECT_EQ(ExitCodeForStopReason(StopReason::kCancelled), 5);
  EXPECT_EQ(ExitCodeForStopReason(StopReason::kWorkerFailure), 6);
}

}  // namespace
}  // namespace opim
