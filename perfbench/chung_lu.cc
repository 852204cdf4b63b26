#include "chung_lu.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace perfbench {

namespace {

/// SplitMix64 as a sequential generator: tiny, fast, and fully specified,
/// so the byte stream does not depend on a standard library's engines.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound) by multiply-shift (bias < bound / 2^32).
  uint32_t Below(uint32_t bound) {
    return static_cast<uint32_t>(((Next() >> 32) * bound) >> 32);
  }
  /// Uniform double in [0, 1) with 53 random bits.
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Vose alias table over non-negative weights: O(1) draws.
class Alias {
 public:
  explicit Alias(const std::vector<double>& weights)
      : prob_(weights.size()), alias_(weights.size()) {
    const uint32_t n = static_cast<uint32_t>(weights.size());
    double total = 0.0;
    for (double w : weights) total += w;
    std::vector<double> scaled(n);
    std::vector<uint32_t> small, large;
    for (uint32_t i = 0; i < n; ++i) {
      scaled[i] = weights[i] * n / total;
      (scaled[i] < 1.0 ? small : large).push_back(i);
    }
    while (!small.empty() && !large.empty()) {
      const uint32_t s = small.back();
      small.pop_back();
      const uint32_t l = large.back();
      prob_[s] = scaled[s];
      alias_[s] = l;
      scaled[l] -= 1.0 - scaled[s];
      if (scaled[l] < 1.0) {
        large.pop_back();
        small.push_back(l);
      }
    }
    for (uint32_t i : large) prob_[i] = 1.0, alias_[i] = i;
    for (uint32_t i : small) prob_[i] = 1.0, alias_[i] = i;
  }
  uint32_t Draw(SplitMix& rng) const {
    const uint32_t column = rng.Below(static_cast<uint32_t>(prob_.size()));
    return rng.Unit() < prob_[column] ? column : alias_[column];
  }

 private:
  std::vector<double> prob_;
  std::vector<uint32_t> alias_;
};

/// Power-law rank weights w_r ∝ (r + 1)^(-1/(γ-1)) with mean `mean`.
std::vector<double> RankWeights(uint32_t n, double mean, double exponent) {
  std::vector<double> w(n);
  const double beta = 1.0 / (exponent - 1.0);
  double total = 0.0;
  for (uint32_t r = 0; r < n; ++r) total += w[r] = std::pow(r + 1.0, -beta);
  for (double& x : w) x *= mean * n / total;
  return w;
}

}  // namespace

opim::Graph GenerateChungLu(const ChungLuSpec& spec) {
  const uint32_t n = spec.nodes;
  if (n < 2 || spec.mean_degree == 0 ||
      uint64_t{spec.mean_degree} * 2 >= n || !(spec.exponent > 1.0)) {
    throw std::invalid_argument("chung-lu: need n >= 2, 0 < degree < n/2, "
                                "exponent > 1");
  }
  const uint64_t m = uint64_t{n} * spec.mean_degree;
  SplitMix rng(spec.seed ^ 0x636875'6e67'6c75ULL);  // "chunglu"

  // Node ids are a random permutation of weight ranks.
  std::vector<uint32_t> node_of_rank(n);
  for (uint32_t r = 0; r < n; ++r) node_of_rank[r] = r;
  for (uint32_t r = n - 1; r > 0; --r) {
    std::swap(node_of_rank[r], node_of_rank[rng.Below(r + 1)]);
  }
  // In-ranks: a random half of the ranks is shuffled among itself.
  std::vector<uint32_t> in_rank(n), moved;
  for (uint32_t r = 0; r < n; ++r) {
    in_rank[r] = r;
    if (rng.Next() >> 63) moved.push_back(r);
  }
  std::vector<uint32_t> shuffled = moved;
  for (size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1],
              shuffled[rng.Below(static_cast<uint32_t>(i))]);
  }
  for (size_t i = 0; i < moved.size(); ++i) in_rank[moved[i]] = shuffled[i];

  const std::vector<double> rank_w =
      RankWeights(n, spec.mean_degree, spec.exponent);
  std::vector<double> out_w(n), in_w(n);
  for (uint32_t r = 0; r < n; ++r) {
    out_w[node_of_rank[r]] = rank_w[r];
    in_w[node_of_rank[r]] = rank_w[in_rank[r]];
  }

  // Out-degrees: m sources drawn by out-weight; a degree above n - 1
  // (possible only on tiny graphs) spills over to the next nodes.
  std::vector<uint64_t> out_offsets(n + 1, 0);
  {
    const Alias sources(out_w);
    for (uint64_t e = 0; e < m; ++e) ++out_offsets[sources.Draw(rng) + 1];
  }
  uint64_t overflow = 0;
  for (uint32_t u = 0; u < n; ++u) {
    if (out_offsets[u + 1] > n - 1) {
      overflow += out_offsets[u + 1] - (n - 1);
      out_offsets[u + 1] = n - 1;
    }
  }
  for (uint32_t u = 0; overflow > 0; u = (u + 1) % n) {
    if (out_offsets[u + 1] < n - 1) ++out_offsets[u + 1], --overflow;
  }
  for (uint32_t u = 0; u < n; ++u) out_offsets[u + 1] += out_offsets[u];

  // Targets: per source, draw by in-weight until its degree is filled with
  // distinct non-self targets; the list is kept sorted (CSR order).
  std::vector<opim::NodeId> out_nbr(m);
  std::vector<uint64_t> in_offsets(n + 1, 0);
  {
    const Alias targets(in_w);
    std::vector<opim::NodeId> list;
    for (uint32_t u = 0; u < n; ++u) {
      const uint64_t degree = out_offsets[u + 1] - out_offsets[u];
      list.clear();
      while (list.size() < degree) {
        for (uint64_t need = degree - list.size(); need > 0; --need) {
          const opim::NodeId v = targets.Draw(rng);
          if (v != u) list.push_back(v);
        }
        std::sort(list.begin(), list.end());
        list.erase(std::unique(list.begin(), list.end()), list.end());
      }
      std::copy(list.begin(), list.end(), out_nbr.begin() + out_offsets[u]);
      for (opim::NodeId v : list) ++in_offsets[v + 1];
    }
  }
  for (uint32_t v = 0; v < n; ++v) in_offsets[v + 1] += in_offsets[v];

  // Reverse CSR by counting sort over sources in id order, so each
  // in-list is sorted too; weighted-cascade probabilities from in-degree.
  std::vector<opim::NodeId> in_nbr(m);
  std::vector<double> in_probs(m), out_probs(m), in_weight_sum(n, 0.0);
  std::vector<uint64_t> cursor(in_offsets.begin(), in_offsets.end() - 1);
  for (uint32_t u = 0; u < n; ++u) {
    for (uint64_t e = out_offsets[u]; e < out_offsets[u + 1]; ++e) {
      const opim::NodeId v = out_nbr[e];
      const double p =
          1.0 / static_cast<double>(in_offsets[v + 1] - in_offsets[v]);
      out_probs[e] = p;
      const uint64_t slot = cursor[v]++;
      in_nbr[slot] = u;
      in_probs[slot] = p;
    }
  }
  for (uint32_t v = 0; v < n; ++v) {
    double s = 0.0;
    for (uint64_t i = in_offsets[v]; i < in_offsets[v + 1]; ++i) {
      s += in_probs[i];
    }
    in_weight_sum[v] = s;
  }
  return opim::Graph::AdoptStorage(
      n, std::move(out_offsets), std::move(out_nbr), std::move(out_probs),
      std::move(in_offsets), std::move(in_nbr), std::move(in_probs),
      std::move(in_weight_sum));
}

}  // namespace perfbench
