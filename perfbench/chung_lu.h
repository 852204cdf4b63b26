// Seeded directed Chung–Lu power-law graphs for the end-to-end benchmark.
//
// The benchmark owns its input generator so that no change to the
// library's own generators (src/gen) can move a workload. A graph is a
// pure function of its spec:
//
//   * rank weights w_r ∝ (r + 1)^(-1/(γ-1)) with γ = `exponent`, scaled to
//     mean `mean_degree` (uncapped: hub pairs that Chung–Lu would connect
//     more than once get one edge, and the source draws again);
//   * node ids are a random permutation of ranks (hubs are scattered, not
//     packed at low ids); a node's out-weight is its rank's weight and its
//     in-weight is the same with probability 1/2, else the weight of a
//     rank drawn by shuffling the other half among themselves — so in- and
//     out-weights are positively correlated with identical marginals;
//   * exactly m = n · mean_degree distinct edges and no self-loops: out-
//     degrees are a multinomial draw of m sources by out-weight, and each
//     source draws its targets by in-weight, rejecting repeats and itself;
//   * weighted-cascade probabilities p(u, v) = 1 / indeg(v), so every
//     node's incoming LT weight sums to one and IC and LT both apply.
//
// The stream is a private SplitMix64 sequence, so equal specs give
// byte-identical graphs on every platform and build.

#pragma once

#include <cstdint>

#include "graph/graph.h"

namespace perfbench {

struct ChungLuSpec {
  uint32_t nodes = 0;
  uint32_t mean_degree = 20;
  double exponent = 2.3;
  uint64_t seed = 1;
};

/// Builds the graph of `spec`. Requires nodes >= 2 and
/// mean_degree < nodes / 2 (so m distinct non-loop edges exist).
opim::Graph GenerateChungLu(const ChungLuSpec& spec);

}  // namespace perfbench
