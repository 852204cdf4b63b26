#include "core/online_maximizer.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "obs/telemetry.h"
#include "obs/trace.h"
#include "rrset/parallel_generate.h"
#include "support/thread_pool.h"

namespace opim {

namespace {

/// Engine pools never answer SetCost (only aggregate γ via
/// total_edges_examined), so they drop the 8 bytes/set cost column on
/// top of the compressed member storage.
constexpr RRStoreOptions kEngineStore{.retain_set_costs = false};

}  // namespace

OnlineMaximizer::OnlineMaximizer(const Graph& g, DiffusionModel model,
                                 uint32_t k, double delta, uint64_t seed)
    : graph_(g),
      model_(model),
      k_(k),
      delta_(delta),
      scale_(g.num_nodes()),
      sampling_view_(g, SamplingViewPartsFor(model)),
      sampler_(MakeRRSampler(sampling_view_, model)),
      rng_(seed, 0x6f70696dULL),  // "opim"
      r1_(g.num_nodes(), kEngineStore),
      r2_(g.num_nodes(), kEngineStore) {
  OPIM_CHECK_GE(k, 1u);
  OPIM_CHECK_LE(k, g.num_nodes());
  OPIM_CHECK(delta > 0.0 && delta < 1.0);
}

OnlineMaximizer::OnlineMaximizer(const Graph& g, DiffusionModel model,
                                 uint32_t k, double delta,
                                 std::span<const double> node_weights,
                                 uint64_t seed)
    : graph_(g),
      model_(model),
      k_(k),
      delta_(delta),
      scale_(0.0),
      node_weights_(node_weights.begin(), node_weights.end()),
      sampling_view_(g, SamplingViewPartsFor(model)),
      root_sampler_(node_weights_),
      sampler_(MakeRRSampler(sampling_view_, model, &root_sampler_)),
      rng_(seed, 0x6f70696dULL),
      r1_(g.num_nodes(), kEngineStore),
      r2_(g.num_nodes(), kEngineStore) {
  OPIM_CHECK_GE(k, 1u);
  OPIM_CHECK_LE(k, g.num_nodes());
  OPIM_CHECK(delta > 0.0 && delta < 1.0);
  OPIM_CHECK_EQ(node_weights.size(), g.num_nodes());
  for (double w : node_weights) {
    OPIM_CHECK_GE(w, 0.0);
    scale_ += w;
  }
  OPIM_CHECK_MSG(scale_ > 0.0, "node weights must not all be zero");
}

void OnlineMaximizer::AdvanceParallel(uint64_t count,
                                      unsigned num_threads) {
  OPIM_TR_SPAN1("advance", "online", "count", count);
  OPIM_TM_SCOPED_TIMER("opim.online.advance_us");
  const uint64_t to_r1 = (count + next_to_r1_) / 2;
  const uint64_t to_r2 = count - to_r1;
  // Batch seeds derive from the shared RNG so successive calls stay
  // decorrelated and the whole sequence remains reproducible.
  const uint64_t seed1 = rng_.NextU64();
  const uint64_t seed2 = rng_.NextU64();
  num_threads = ThreadPool::ResolveThreadCount(num_threads);
  const unsigned shards1 = GenerateShardCount(to_r1, num_threads);
  const unsigned shards2 = GenerateShardCount(to_r2, num_threads);

  // Both batches are staged onto ONE pool instead of two back-to-back
  // ParallelGenerate calls: their shards interleave on the same workers
  // (a straggler shard of one batch no longer idles threads the other
  // could use).
  // The RR streams are unchanged from the sequential schedule — per-batch
  // seeds and shard counts are identical; only scheduling overlaps.
  std::unique_ptr<ThreadPool> pool;
  if (num_threads > 1 && shards1 + shards2 > 1) {
    pool = std::make_unique<ThreadPool>(num_threads);
  }
  const uint64_t base_bytes =
      control_ != nullptr ? r1_.MemoryUsage() + r2_.MemoryUsage() : 0;
  const AliasSampler* const root =
      root_sampler_.empty() ? nullptr : &root_sampler_;
  std::optional<StagedGeneration> stage1, stage2;
  if (to_r1 > 0) {
    stage1.emplace(sampling_view_, model_, to_r1, seed1, shards1, root,
                   control_, base_bytes, /*speculative=*/false);
  }
  if (to_r2 > 0) {
    stage2.emplace(sampling_view_, model_, to_r2, seed2, shards2, root,
                   control_, base_bytes, /*speculative=*/false);
  }
  // Worker-failure contract matches ParallelGenerate: degrade under a
  // control (keeping every completed staged shard), propagate without one.
  try {
    if (pool == nullptr) {
      if (stage1) stage1->RunShard(0);
      if (stage2) stage2->RunShard(0);
    } else {
      for (StagedGeneration* stage : {stage1 ? &*stage1 : nullptr,
                                      stage2 ? &*stage2 : nullptr}) {
        if (stage == nullptr) continue;
        for (unsigned s = 0; s < stage->shards(); ++s) {
          pool->Submit([stage, s] { stage->RunShard(s); });
        }
      }
      pool->Wait();
    }
  } catch (...) {
    if (control_ == nullptr) throw;
    control_->TripWorkerFailure();
  }
  if (stage1) IngestStaged(&*stage1, &r1_, pool.get());
  if (stage2) IngestStaged(&*stage2, &r2_, pool.get());
  OPIM_TM_STMT({
    if (pool != nullptr) {
      const ThreadPoolStats stats = pool->Stats();
      OPIM_TM_COUNTER_ADD("opim.pool.tasks_run", stats.tasks_run);
      OPIM_TM_COUNTER_ADD("opim.pool.queue_wait_us", stats.queue_wait_us);
      OPIM_TM_COUNTER_ADD("opim.pool.idle_wait_us", stats.idle_wait_us);
    }
  });
  if (count % 2 == 1) next_to_r1_ = !next_to_r1_;
  // Anytime floor: a trip before/during the first batch can leave a pool
  // empty, and Query needs one set per pool. Uncontrolled single-set
  // generates keep every pause point answerable; untripped runs never get
  // here with an empty pool (count >= 2 fills both).
  if (control_ != nullptr && control_->Stopped()) {
    if (r1_.num_sets() == 0 && to_r1 > 0) {
      ParallelGenerate(graph_, model_, &r1_, 1, seed1, num_threads,
                       node_weights_, /*pool=*/nullptr, &sampling_view_);
    }
    if (r2_.num_sets() == 0 && count - to_r1 > 0) {
      ParallelGenerate(graph_, model_, &r2_, 1, seed2, num_threads,
                       node_weights_, /*pool=*/nullptr, &sampling_view_);
    }
  }
}

void OnlineMaximizer::Advance(uint64_t count) {
  OPIM_TR_SPAN1("advance", "online", "count", count);
  OPIM_TM_SCOPED_TIMER("opim.online.advance_us");
  const uint64_t alias_before = sampler_->alias_draws();
  uint64_t generated = 0;
  uint64_t nodes_total = 0;
  uint64_t edges_total = 0;
  std::vector<NodeId> scratch;
  for (uint64_t i = 0; i < count; ++i) {
    // Poll once per stride with the exact footprint (capacities only, so
    // the check is O(1)); stop early when tripped, but never before both
    // pools can answer a Query (the anytime floor).
    if (control_ != nullptr && i % kControlPollStride == 0 &&
        control_->Poll(r1_.MemoryUsage() + r2_.MemoryUsage() +
                       sampling_view_.MemoryFootprintBytes()) &&
        r1_.num_sets() > 0 && r2_.num_sets() > 0) {
      break;
    }
    uint64_t cost = sampler_->SampleInto(rng_, &scratch);
    nodes_total += scratch.size();
    edges_total += cost;
    (next_to_r1_ ? r1_ : r2_).AddSet(scratch, cost);
    next_to_r1_ = !next_to_r1_;
    ++generated;
  }
  OPIM_TM_COUNTER_ADD("opim.rrset.sets_generated", generated);
  OPIM_TM_COUNTER_ADD("opim.rrset.nodes_total", nodes_total);
  OPIM_TM_COUNTER_ADD("opim.rrset.edges_examined", edges_total);
  OPIM_TM_COUNTER_ADD("opim.rrset.alias_draws",
                      sampler_->alias_draws() - alias_before);
}

OnlineSnapshot OnlineMaximizer::Query(BoundKind kind) const {
  // δ1 = δ2 = δ/2 (near-optimal by Lemma 4.4).
  return QueryWithDelta(kind, delta_ / 2.0);
}

OnlineSnapshot OnlineMaximizer::QuerySequential(BoundKind kind) {
  ++sequential_queries_;
  // The i-th query gets failure budget δ/2^i, split evenly between the
  // two bounds, so Σ_i δ/2^i <= δ covers the whole sequence.
  const double budget = delta_ / std::pow(2.0, sequential_queries_);
  return QueryWithDelta(kind, budget / 2.0);
}

OnlineSnapshot OnlineMaximizer::QueryWithDelta(BoundKind kind,
                                               double delta_each) const {
  OPIM_TR_SPAN1("query", "online", "theta1", r1_.num_sets());
  OPIM_TM_SCOPED_TIMER("opim.online.query_us");
  OPIM_TM_COUNTER_ADD("opim.online.queries", 1);
  OPIM_CHECK_MSG(r1_.num_sets() > 0 && r2_.num_sets() > 0,
                 "Query before any RR sets were generated; call Advance()");
  const double delta1 = delta_each;
  const double delta2 = delta_each;

  const bool needs_trace = kind != BoundKind::kBasic;
  // CELF with persistent selection state: across the Advance/Query cadence
  // only the new shards' postings are folded into the initial gains
  // (bit-identical to SelectGreedy — the differential test pins it).
  CelfOptions celf_options;
  celf_options.state = &select_state_;
  GreedyResult greedy = SelectGreedyCelf(r1_, k_, needs_trace, celf_options);

  OnlineSnapshot snap;
  snap.theta1 = r1_.num_sets();
  snap.theta2 = r2_.num_sets();
  snap.lambda1 = greedy.coverage;
  snap.lambda2 = r2_.CoverageOf(greedy.seeds);
  snap.sigma_lower =
      SigmaLower(snap.lambda2, snap.theta2, scale_, delta2);
  snap.sigma_upper =
      SigmaUpper(kind, greedy, snap.theta1, scale_, delta1);
  snap.alpha = ApproxRatio(snap.sigma_lower, snap.sigma_upper);
  snap.seeds = std::move(greedy.seeds);
  return snap;
}

OnlineSnapshot OnlineMaximizer::RunUntilTarget(BoundKind kind,
                                               double target_alpha,
                                               uint64_t batch,
                                               uint64_t max_rr_sets) {
  OPIM_CHECK_GE(batch, 1u);
  for (;;) {
    uint64_t step = batch;
    if (max_rr_sets != 0) {
      OPIM_CHECK_GE(max_rr_sets, 2u);
      if (num_rr_sets() >= max_rr_sets) break;
      step = std::min<uint64_t>(step, max_rr_sets - num_rr_sets());
    }
    Advance(step);
    // A tripped guardrail ends the drive loop at this pause point; the
    // final Query below reports (S*, α) on the RR sets that exist.
    if (control_ != nullptr && control_->Stopped()) break;
    if (Query(kind).alpha >= target_alpha) break;
  }
  return Query(kind);
}

OnlineSnapshotAll OnlineMaximizer::QueryAll() const {
  OPIM_TR_SPAN1("query", "online", "theta1", r1_.num_sets());
  OPIM_TM_SCOPED_TIMER("opim.online.query_us");
  OPIM_TM_COUNTER_ADD("opim.online.queries", 1);
  OPIM_CHECK_MSG(r1_.num_sets() > 0 && r2_.num_sets() > 0,
                 "QueryAll before any RR sets were generated; call Advance()");
  const double delta1 = delta_ / 2.0;
  const double delta2 = delta_ / 2.0;
  const double n = scale_;

  CelfOptions celf_options;
  celf_options.state = &select_state_;
  GreedyResult greedy =
      SelectGreedyCelf(r1_, k_, /*with_trace=*/true, celf_options);

  OnlineSnapshotAll snap;
  snap.theta_total = num_rr_sets();
  uint64_t lambda2 = r2_.CoverageOf(greedy.seeds);
  snap.sigma_lower = SigmaLower(lambda2, r2_.num_sets(), n, delta2);
  snap.alpha_basic = ApproxRatio(
      snap.sigma_lower,
      SigmaUpper(BoundKind::kBasic, greedy, r1_.num_sets(), n, delta1));
  snap.alpha_improved = ApproxRatio(
      snap.sigma_lower,
      SigmaUpper(BoundKind::kImproved, greedy, r1_.num_sets(), n, delta1));
  snap.alpha_leskovec = ApproxRatio(
      snap.sigma_lower,
      SigmaUpper(BoundKind::kLeskovec, greedy, r1_.num_sets(), n, delta1));
  snap.seeds = std::move(greedy.seeds);
  return snap;
}

}  // namespace opim
