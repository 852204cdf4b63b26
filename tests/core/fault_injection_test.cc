// Deterministic fault-injection coverage for the guardrail degradation
// paths (StopReason::kWorkerFailure plus the injected clock-skew and
// memory-spike trips). Meaningful only in OPIM_FAULT_INJECT=ON builds
// (scripts/run_all.sh's build-fi configuration); in normal builds the
// whole suite reduces to a compile-gate placeholder so the test target
// still builds and passes everywhere.

#include <gtest/gtest.h>

#include "support/fault_inject.h"

#if OPIM_FAULT_INJECT_ENABLED

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/opim_c.h"
#include "gen/generators.h"
#include "graph/graph_mmap.h"
#include "obs/metrics.h"
#include "rrset/parallel_generate.h"
#include "rrset/rr_collection.h"
#include "support/random.h"
#include "support/run_control.h"
#include "temp_path.h"

namespace opim {
namespace {

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::Reset(); }
  void TearDown() override { fault::Reset(); }

  static Graph TestGraph() { return GenerateBarabasiAlbert(500, 5); }
};

TEST_F(FaultInjectionTest, RegistryCountsAndFiresOnce) {
  fault::Arm("unit.site", 3);
  EXPECT_FALSE(fault::ShouldFire("unit.site"));  // hit 1
  EXPECT_FALSE(fault::ShouldFire("unit.site"));  // hit 2
  EXPECT_TRUE(fault::ShouldFire("unit.site"));   // hit 3: fires
  EXPECT_FALSE(fault::ShouldFire("unit.site"));  // once only
  EXPECT_EQ(fault::Hits("unit.site"), 4u);
  EXPECT_EQ(fault::Hits("never.seen"), 0u);
}

TEST_F(FaultInjectionTest, WorkerThrowWithoutControlPropagates) {
  Graph g = TestGraph();
  RRCollection rr(g.num_nodes());
  fault::Arm("rrset.worker_throw", 5);
  EXPECT_THROW(ParallelGenerate(g, DiffusionModel::kIndependentCascade, &rr,
                                100, /*seed=*/1, /*num_threads=*/2),
               std::runtime_error);
}

TEST_F(FaultInjectionTest, WorkerThrowWithControlTripsWorkerFailure) {
  Graph g = TestGraph();
  fault::Arm("rrset.worker_throw", 5);
  RunControl control;
  OpimCOptions o;
  o.seed = 7;
  o.num_threads = 2;
  o.control = &control;
  OpimCResult r = RunOpimC(g, DiffusionModel::kIndependentCascade, 5, 0.3,
                           0.01, o);
  EXPECT_EQ(r.guardrails.stop_reason, StopReason::kWorkerFailure);
  EXPECT_EQ(r.seeds.size(), 5u);
  EXPECT_TRUE(std::isfinite(r.alpha));
  EXPECT_GE(r.alpha, 0.0);
  EXPECT_GE(r.guardrails.stop_latency_seconds, 0.0);
}

TEST_F(FaultInjectionTest, SpeculationThrowWithControlTripsWorkerFailure) {
  // rrset.speculation_throw is evaluated only inside *speculative* staged
  // shards (the pipelined doubling loop's lookahead sampling). When the
  // iteration does not converge, the staged batches ARE the doubling, so
  // a speculative worker exception follows the eager generate contract:
  // trip kWorkerFailure and finalize with a valid certificate.
  Graph g = TestGraph();
  fault::Arm("rrset.speculation_throw", 1);
  RunControl control;
  OpimCOptions o;
  o.seed = 7;
  o.num_threads = 2;
  o.pipeline = true;
  o.control = &control;
  OpimCResult r = RunOpimC(g, DiffusionModel::kIndependentCascade, 5, 0.3,
                           0.01, o);
  EXPECT_EQ(r.guardrails.stop_reason, StopReason::kWorkerFailure);
  EXPECT_EQ(r.seeds.size(), 5u);
  EXPECT_TRUE(std::isfinite(r.alpha));
  EXPECT_GE(r.alpha, 0.0);
}

TEST_F(FaultInjectionTest, SpeculationThrowWithoutControlPropagates) {
  Graph g = TestGraph();
  fault::Arm("rrset.speculation_throw", 1);
  OpimCOptions o;
  o.seed = 7;
  o.num_threads = 2;
  o.pipeline = true;
  EXPECT_THROW(
      RunOpimC(g, DiffusionModel::kIndependentCascade, 5, 0.3, 0.01, o),
      std::runtime_error);
}

TEST_F(FaultInjectionTest, SpeculationThrowNeverFiresOnEagerSchedule) {
  // The site must be dead on every non-speculative path: a pipeline=false
  // run samples the same batches eagerly and must complete untouched even
  // with the site armed on its first evaluation.
  Graph g = TestGraph();
  fault::Arm("rrset.speculation_throw", 1);
  OpimCOptions o;
  o.seed = 7;
  o.num_threads = 2;
  o.pipeline = false;
  OpimCResult r = RunOpimC(g, DiffusionModel::kIndependentCascade, 5, 0.3,
                           0.01, o);
  EXPECT_EQ(r.seeds.size(), 5u);
  EXPECT_EQ(fault::Hits("rrset.speculation_throw"), 0u);
}

TEST_F(FaultInjectionTest, ClockSkewTripsDeadlineMidGeneration) {
  Graph g = TestGraph();
  // Fire on a later poll so the trip lands mid-generation rather than at
  // the very first safe point.
  fault::Arm("runctl.clock_skew", 3);
  RunControl control;
  control.SetDeadlineAfterMillis(3'600'000);  // one hour: never naturally hit
  OpimCOptions o;
  o.seed = 7;
  o.control = &control;
  OpimCResult r = RunOpimC(g, DiffusionModel::kIndependentCascade, 5, 0.3,
                           0.01, o);
  EXPECT_EQ(r.guardrails.stop_reason, StopReason::kDeadline);
  EXPECT_EQ(r.seeds.size(), 5u);
  EXPECT_TRUE(std::isfinite(r.alpha));
  // The reported slack uses the real clock, not the skewed one: a run that
  // "missed" an hour-long deadline via injection still shows real slack.
  EXPECT_GT(r.guardrails.deadline_slack_seconds, 0.0);
}

TEST_F(FaultInjectionTest, MemSpikeTripsMemoryBudget) {
  Graph g = TestGraph();
  fault::Arm("runctl.mem_spike", 3);
  RunControl control;
  control.SetMemoryBudgetBytes(1ull << 40);  // 1 TiB: unreachable naturally
  OpimCOptions o;
  o.seed = 7;
  o.control = &control;
  OpimCResult r = RunOpimC(g, DiffusionModel::kIndependentCascade, 5, 0.3,
                           0.01, o);
  EXPECT_EQ(r.guardrails.stop_reason, StopReason::kMemoryBudget);
  EXPECT_EQ(r.seeds.size(), 5u);
  EXPECT_TRUE(std::isfinite(r.alpha));
}

TEST_F(FaultInjectionTest, MmapFailFallsBackToHeapLoad) {
  // io.mmap_fail kills the page-table path; LoadOpimg must degrade to
  // the heap read and return a bit-identical, just unmapped, graph.
  Graph g = GenerateBarabasiAlbert(200, 3);
  const std::string path = TestTempPath("opim_fi_mmap.opimg");
  ASSERT_TRUE(SaveOpimg(g, path).ok());
  fault::Arm("io.mmap_fail", 1);
  auto r = LoadOpimg(path);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r.ValueOrDie().arena_backed());
  EXPECT_EQ(r.ValueOrDie().num_nodes(), g.num_nodes());
  EXPECT_EQ(r.ValueOrDie().num_edges(), g.num_edges());
  EXPECT_EQ(fault::Hits("io.mmap_fail"), 1u);
  std::remove(path.c_str());
}

TEST_F(FaultInjectionTest, StateRebuildThrowFallsBackToColdSelection) {
  // select.state_rebuild_throw fails the persistent SelectionState's
  // cold sync (the first selection's state rebuild). The run must fall
  // back to from-scratch initial gains, count a warm-start fallback, and
  // finish with output identical to the unfaulted run — the state is an
  // execution cache, never behavior.
  Graph g = TestGraph();
  OpimCOptions o;
  o.seed = 7;
  o.num_threads = 1;
  o.query_ks = {2, 5};
  const OpimCResult reference =
      RunOpimC(g, DiffusionModel::kIndependentCascade, 5, 0.3, 0.01, o);

  fault::Reset();
  fault::Arm("select.state_rebuild_throw", 1);
  const MetricsSnapshot before = MetricsRegistry::Default().Snapshot();
  const OpimCResult r =
      RunOpimC(g, DiffusionModel::kIndependentCascade, 5, 0.3, 0.01, o);
  const MetricsSnapshot after = MetricsRegistry::Default().Snapshot();
  EXPECT_GE(fault::Hits("select.state_rebuild_throw"), 1u);
  EXPECT_EQ(r.guardrails.stop_reason, StopReason::kConverged);
  EXPECT_EQ(r.seeds, reference.seeds);
  EXPECT_EQ(r.alpha, reference.alpha);
  EXPECT_EQ(r.num_rr_sets, reference.num_rr_sets);
  EXPECT_EQ(r.iterations, reference.iterations);
  ASSERT_EQ(r.queries.size(), reference.queries.size());
  for (size_t i = 0; i < r.queries.size(); ++i) {
    EXPECT_EQ(r.queries[i].seeds, reference.queries[i].seeds);
    EXPECT_EQ(r.queries[i].alpha, reference.queries[i].alpha);
  }
  auto counter = [](const MetricsSnapshot& s, const char* name) -> uint64_t {
    const CounterSample* c = s.FindCounter(name);
    return c != nullptr ? c->value : 0;
  };
  // Counter is absent only when telemetry is compiled out of this
  // configuration; when present, exactly the one injected failure fell
  // back.
  if (after.FindCounter("opim.select.warm_start_fallbacks") != nullptr) {
    EXPECT_EQ(counter(after, "opim.select.warm_start_fallbacks") -
                  counter(before, "opim.select.warm_start_fallbacks"),
              1u);
  }
}

TEST_F(FaultInjectionTest, StateRebuildSiteDeadOnFromScratchSelection) {
  // With incremental_selection off there is no state sync at all, so the
  // site must never be evaluated and the armed run completes untouched.
  Graph g = TestGraph();
  fault::Arm("select.state_rebuild_throw", 1);
  OpimCOptions o;
  o.seed = 7;
  o.num_threads = 1;
  o.incremental_selection = false;
  OpimCResult r = RunOpimC(g, DiffusionModel::kIndependentCascade, 5, 0.3,
                           0.01, o);
  EXPECT_EQ(r.seeds.size(), 5u);
  EXPECT_EQ(fault::Hits("select.state_rebuild_throw"), 0u);
}

TEST_F(FaultInjectionTest, ArmedSerialRunsAreDeterministic) {
  // With one worker the fault schedule, the early-exit points, and hence
  // the whole degraded result are a pure function of (seed, arming).
  Graph g = TestGraph();
  auto run = [&] {
    fault::Reset();
    fault::Arm("runctl.clock_skew", 2);
    RunControl control;
    control.SetDeadlineAfterMillis(3'600'000);
    OpimCOptions o;
    o.seed = 7;
    o.num_threads = 1;
    o.control = &control;
    return RunOpimC(g, DiffusionModel::kIndependentCascade, 5, 0.3, 0.01, o);
  };
  OpimCResult a = run();
  OpimCResult b = run();
  EXPECT_EQ(a.guardrails.stop_reason, StopReason::kDeadline);
  EXPECT_EQ(a.seeds, b.seeds);
  EXPECT_EQ(a.alpha, b.alpha);
  EXPECT_EQ(a.num_rr_sets, b.num_rr_sets);
  EXPECT_EQ(a.iterations, b.iterations);
}

}  // namespace
}  // namespace opim

#else  // !OPIM_FAULT_INJECT_ENABLED

TEST(FaultInjectionTest, CompiledOutInThisConfiguration) {
  // OPIM_FAULT_POINT must be the literal constant false here; the suite's
  // real assertions live in the OPIM_FAULT_INJECT=ON configuration.
  static_assert(!OPIM_FAULT_POINT("any.site"),
                "fault points must fold away when injection is disabled");
  SUCCEED();
}

#endif  // OPIM_FAULT_INJECT_ENABLED
