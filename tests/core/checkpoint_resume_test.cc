// Differential goldens for crash-safe checkpoint/resume (OpimCOptions::
// checkpoint_dir / resume): a run resumed from a boundary .opimss
// snapshot must reproduce the uninterrupted run bit-for-bit — the same
// seed set, the same α certificate, the same RR-set counts — for the
// eager (1-thread) and pipelined (4-thread) schedules, from the first
// checkpoint, the last checkpoint, and a deterministic memory-budget
// trip. Also pins the checkpoint cadence accounting, the serialized
// run-state contents, and the checkpoint-failure-is-best-effort
// contract.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "core/opim_c.h"
#include "harness/datasets.h"
#include "rrset/snapshot.h"
#include "support/run_control.h"
#include "temp_path.h"

namespace opim {
namespace {

constexpr uint32_t kK = 5;
constexpr double kEps = 0.1;
constexpr double kDelta = 0.01;

Graph TestGraph() { return MakeTinyTestGraph(512, 3); }

std::string FreshDir(const std::string& name) {
  const std::string dir = TestTempPath(name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string SnapshotPath(const std::string& dir) {
  return dir + "/opimc.opimss";
}

void ExpectSameRun(const OpimCResult& a, const OpimCResult& b) {
  EXPECT_EQ(a.seeds, b.seeds);
  EXPECT_EQ(a.alpha, b.alpha);  // bitwise, not approximate
  EXPECT_EQ(a.num_rr_sets, b.num_rr_sets);
  EXPECT_EQ(a.total_rr_size, b.total_rr_size);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.rr_compressed_bytes, b.rr_compressed_bytes);
}

OpimCResult RunWith(const Graph& g, OpimCOptions o,
                    DiffusionModel model = DiffusionModel::kIndependentCascade) {
  return RunOpimC(g, model, kK, kEps, kDelta, o);
}

/// Resumes from `snapshot_path` with options matching the original run.
OpimCResult ResumeWith(const Graph& g, OpimCOptions o,
                       const std::string& snapshot_path,
                       DiffusionModel model = DiffusionModel::kIndependentCascade) {
  auto snap = LoadSnapshot(snapshot_path);
  EXPECT_TRUE(snap.ok()) << snap.status().ToString();
  RRPoolSnapshot loaded = std::move(snap).ValueOrDie();
  o.resume = &loaded;
  return RunWith(g, o, model);
}

TEST(CheckpointResumeTest, ResumeFromFirstCheckpointReproducesRunEager) {
  Graph g = TestGraph();
  OpimCOptions base;
  base.seed = 7;
  base.num_threads = 1;

  const OpimCResult reference = RunWith(g, base);
  ASSERT_GT(reference.iterations, 1u);

  // A huge cadence means exactly one checkpoint: the top of iteration 1,
  // right after the θ0 fill. Resuming from it replays the entire loop.
  OpimCOptions ck = base;
  ck.checkpoint_dir = FreshDir("ck_first");
  ck.checkpoint_every_iters = 1000;
  const OpimCResult checkpointed = RunWith(g, ck);
  ExpectSameRun(reference, checkpointed);
  EXPECT_EQ(checkpointed.checkpoints_written, 1u);
  EXPECT_GT(checkpointed.checkpoint_bytes_written, 0u);

  const OpimCResult resumed =
      ResumeWith(g, base, SnapshotPath(ck.checkpoint_dir));
  ExpectSameRun(reference, resumed);
  EXPECT_EQ(resumed.resumed_from_iteration, 1u);
  EXPECT_EQ(reference.resumed_from_iteration, 0u);
}

TEST(CheckpointResumeTest, ResumeFromLastCheckpointReproducesRunEager) {
  Graph g = TestGraph();
  OpimCOptions base;
  base.seed = 3;
  base.num_threads = 1;

  const OpimCResult reference = RunWith(g, base);

  OpimCOptions ck = base;
  ck.checkpoint_dir = FreshDir("ck_last");
  const OpimCResult checkpointed = RunWith(g, ck);
  ExpectSameRun(reference, checkpointed);
  // checkpoint_every = 1: one snapshot per executed iteration, the file
  // holding the last (top-of-final-iteration) state.
  EXPECT_EQ(checkpointed.checkpoints_written, reference.iterations);

  const OpimCResult resumed =
      ResumeWith(g, base, SnapshotPath(ck.checkpoint_dir));
  ExpectSameRun(reference, resumed);
  EXPECT_EQ(resumed.resumed_from_iteration, reference.iterations);
}

TEST(CheckpointResumeTest, ResumeReproducesRunPipelined) {
  // 4 threads with the default pipeline=true: speculative sampling must
  // not leak into the checkpoint (only the consumed batch counter is
  // serialized), so resume is still bit-identical.
  Graph g = TestGraph();
  OpimCOptions base;
  base.seed = 11;
  base.num_threads = 4;

  const OpimCResult reference = RunWith(g, base);
  ASSERT_GT(reference.iterations, 1u);

  OpimCOptions ck = base;
  ck.checkpoint_dir = FreshDir("ck_mt");
  ck.checkpoint_every_iters = 2;
  const OpimCResult checkpointed = RunWith(g, ck);
  ExpectSameRun(reference, checkpointed);

  const OpimCResult resumed =
      ResumeWith(g, base, SnapshotPath(ck.checkpoint_dir));
  ExpectSameRun(reference, resumed);
  EXPECT_GT(resumed.resumed_from_iteration, 0u);
}

TEST(CheckpointResumeTest, ResumeAcrossModelsAndBounds) {
  Graph g = TestGraph();
  for (DiffusionModel model : {DiffusionModel::kIndependentCascade,
                               DiffusionModel::kLinearThreshold}) {
    for (BoundKind bound :
         {BoundKind::kBasic, BoundKind::kImproved, BoundKind::kLeskovec}) {
      OpimCOptions base;
      base.seed = 19;
      base.num_threads = 1;
      base.bound = bound;
      const OpimCResult reference = RunWith(g, base, model);

      OpimCOptions ck = base;
      ck.checkpoint_dir = FreshDir("ck_mb");
      RunWith(g, ck, model);
      const OpimCResult resumed =
          ResumeWith(g, base, SnapshotPath(ck.checkpoint_dir), model);
      ExpectSameRun(reference, resumed);
    }
  }
}

TEST(CheckpointResumeTest, MemoryBudgetTripCheckpointsAndResumes) {
  // Pick the budget from the reference trace so the trip lands exactly
  // on the second-to-last iteration's boundary poll (the exact-footprint
  // check; generation's running estimates exclude the sampling view, so
  // they stay under this budget). The on-trip checkpoint must let a
  // second, unbudgeted run finish the job with the uninterrupted run's
  // exact answer.
  Graph g = TestGraph();
  OpimCOptions base;
  base.seed = 5;
  base.num_threads = 1;
  const OpimCResult reference = RunWith(g, base);
  ASSERT_GE(reference.iterations, 3u);
  const uint32_t trip_iter = reference.iterations - 1;
  const uint64_t budget = reference.trace[trip_iter - 1].rr_bytes - 1;
  ASSERT_GT(reference.trace[trip_iter - 2].rr_bytes, 0u);
  ASSERT_LT(reference.trace[trip_iter - 2].rr_bytes, budget);

  OpimCOptions tripped = base;
  tripped.checkpoint_dir = FreshDir("ck_budget");
  // Cadence larger than i_max: only the iteration-1 periodic snapshot
  // and the on-trip snapshot are written, so the resume genuinely
  // exercises the guardrail path's file.
  tripped.checkpoint_every_iters = 1000;
  RunControl control;
  control.SetMemoryBudgetBytes(budget);
  tripped.control = &control;
  const OpimCResult degraded = RunWith(g, tripped);
  ASSERT_EQ(degraded.guardrails.stop_reason, StopReason::kMemoryBudget);
  ASSERT_EQ(degraded.iterations, trip_iter);
  ASSERT_EQ(degraded.checkpoints_written, 2u);

  auto snap = LoadSnapshot(SnapshotPath(tripped.checkpoint_dir));
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  // The boundary Poll tripped the control, so the snapshot state is a
  // clean iteration boundary.
  EXPECT_EQ(snap.ValueOrDie().run.clean_boundary, 1u);
  EXPECT_EQ(snap.ValueOrDie().run.next_iteration, trip_iter);

  const OpimCResult resumed =
      ResumeWith(g, base, SnapshotPath(tripped.checkpoint_dir));
  ExpectSameRun(reference, resumed);
}

TEST(CheckpointResumeTest, CancelTripCheckpointsAndResumes) {
  // A pre-armed cancellation — a fully deterministic stand-in for
  // SIGINT — trips inside the θ0 fill, so the on-trip snapshot holds a
  // partial fill and is flagged clean_boundary=0: resumable and
  // deterministic, but not the uninterrupted schedule's state. The
  // resumed run must converge normally, and resuming twice must be
  // bit-identical (determinism survives the dirty boundary).
  Graph g = TestGraph();
  OpimCOptions base;
  base.seed = 13;
  base.num_threads = 1;

  OpimCOptions tripped = base;
  tripped.checkpoint_dir = FreshDir("ck_cancel");
  RunControl control;
  control.RequestCancel();
  tripped.control = &control;
  const OpimCResult degraded = RunWith(g, tripped);
  ASSERT_EQ(degraded.guardrails.stop_reason, StopReason::kCancelled);
  ASSERT_EQ(degraded.iterations, 1u);
  // The periodic top-of-loop write is skipped once the control has
  // tripped; only the on-trip snapshot lands.
  ASSERT_EQ(degraded.checkpoints_written, 1u);

  auto snap = LoadSnapshot(SnapshotPath(tripped.checkpoint_dir));
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_EQ(snap.ValueOrDie().run.clean_boundary, 0u);

  const OpimCResult resumed_a =
      ResumeWith(g, base, SnapshotPath(tripped.checkpoint_dir));
  const OpimCResult resumed_b =
      ResumeWith(g, base, SnapshotPath(tripped.checkpoint_dir));
  EXPECT_EQ(resumed_a.guardrails.stop_reason, StopReason::kConverged);
  EXPECT_EQ(resumed_a.resumed_from_iteration, 1u);
  EXPECT_EQ(resumed_a.seeds.size(), kK);
  ExpectSameRun(resumed_a, resumed_b);
  // The resumed run picked up where the cancel left off: it kept the
  // degraded run's pools and grew them.
  EXPECT_GE(resumed_a.num_rr_sets, degraded.num_rr_sets);
}

TEST(CheckpointResumeTest, ResumeRebuildsSelectionStateBitIdentically) {
  // A resumed run's first selection is a cold SelectionState rebuild
  // from the restored pools (the warm counts died with the original
  // process); everything after warm-starts again. Both the resumed run
  // and a from-scratch-selection (incremental off) run must reproduce
  // the uninterrupted incremental run exactly — including the query
  // answers, which read the trace the rebuilt state's selections fed.
  Graph g = TestGraph();
  OpimCOptions base;
  base.seed = 29;
  base.num_threads = 1;
  base.query_ks = {1, kK};
  ASSERT_TRUE(base.incremental_selection);  // the default under test

  const OpimCResult reference = RunWith(g, base);
  ASSERT_GT(reference.iterations, 1u);
  ASSERT_EQ(reference.queries.size(), 2u);

  OpimCOptions scratch = base;
  scratch.incremental_selection = false;
  const OpimCResult oracle = RunWith(g, scratch);
  ExpectSameRun(reference, oracle);

  OpimCOptions ck = base;
  ck.checkpoint_dir = FreshDir("ck_selstate");
  const OpimCResult checkpointed = RunWith(g, ck);
  ExpectSameRun(reference, checkpointed);

  const OpimCResult resumed =
      ResumeWith(g, base, SnapshotPath(ck.checkpoint_dir));
  ExpectSameRun(reference, resumed);
  EXPECT_EQ(resumed.resumed_from_iteration, reference.iterations);
  ASSERT_EQ(resumed.queries.size(), reference.queries.size());
  for (size_t i = 0; i < reference.queries.size(); ++i) {
    EXPECT_EQ(reference.queries[i].seeds, resumed.queries[i].seeds);
    EXPECT_EQ(reference.queries[i].alpha, resumed.queries[i].alpha);
    EXPECT_EQ(reference.queries[i].sigma_lower,
              resumed.queries[i].sigma_lower);
    EXPECT_EQ(reference.queries[i].sigma_upper,
              resumed.queries[i].sigma_upper);
  }
}

TEST(CheckpointResumeTest, SnapshotRunStateRecordsTheRunIdentity) {
  Graph g = TestGraph();
  OpimCOptions ck;
  ck.seed = 23;
  ck.num_threads = 2;
  ck.bound = BoundKind::kLeskovec;
  ck.checkpoint_dir = FreshDir("ck_state");
  const OpimCResult r = RunWith(g, ck, DiffusionModel::kLinearThreshold);
  ASSERT_GT(r.checkpoints_written, 0u);

  auto snap = LoadSnapshot(SnapshotPath(ck.checkpoint_dir));
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  const SnapshotRunState& rs = snap.ValueOrDie().run;
  EXPECT_EQ(rs.run_seed, 23u);
  EXPECT_EQ(rs.num_threads, 2u);
  EXPECT_EQ(rs.k, kK);
  EXPECT_EQ(rs.eps, kEps);
  EXPECT_EQ(rs.delta, kDelta);
  EXPECT_EQ(rs.bound, static_cast<uint32_t>(BoundKind::kLeskovec));
  EXPECT_EQ(rs.model, static_cast<uint32_t>(DiffusionModel::kLinearThreshold));
  EXPECT_EQ(rs.graph_nodes, g.num_nodes());
  EXPECT_EQ(rs.graph_edges, g.num_edges());
  EXPECT_EQ(rs.weights_checksum, 0u);
  EXPECT_EQ(rs.clean_boundary, 1u);
  EXPECT_GE(rs.next_iteration, 1u);
  EXPECT_LE(rs.next_iteration, r.i_max);
}

TEST(CheckpointResumeTest, CheckpointCadenceAccounting) {
  Graph g = TestGraph();
  OpimCOptions ck;
  ck.seed = 7;
  ck.num_threads = 1;
  ck.checkpoint_dir = FreshDir("ck_cadence");
  ck.checkpoint_every_iters = 2;
  const OpimCResult r = RunWith(g, ck);
  // Iterations 1, 3, 5, ... checkpoint: ceil(T / 2) snapshots.
  EXPECT_EQ(r.checkpoints_written, (uint64_t{r.iterations} + 1) / 2);
  EXPECT_GT(r.checkpoint_bytes_written, 0u);
  EXPECT_GE(r.checkpoint_write_seconds, 0.0);
}

TEST(CheckpointResumeTest, CheckpointFailureNeverStopsARun) {
  // An unwritable checkpoint_dir means every snapshot write fails; the
  // run must still converge with the exact uncheckpointed answer.
  Graph g = TestGraph();
  OpimCOptions base;
  base.seed = 7;
  base.num_threads = 1;
  const OpimCResult reference = RunWith(g, base);

  OpimCOptions ck = base;
  ck.checkpoint_dir = "/nonexistent/opim_checkpoints";
  const OpimCResult r = RunWith(g, ck);
  ExpectSameRun(reference, r);
  EXPECT_EQ(r.checkpoints_written, 0u);
  EXPECT_EQ(r.guardrails.stop_reason, StopReason::kConverged);
}

}  // namespace
}  // namespace opim
