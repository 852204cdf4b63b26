// Checks the benchmark's Chung–Lu generator: exact size, simple graph,
// weighted-cascade probabilities, consistent CSR directions, a heavy
// tail, and byte-identical `.opimg` output for equal seeds.
//
// Writes its scratch files to the working directory (the build tree when
// run through CTest or perfbench/run.py). Exit code 0 = pass.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "chung_lu.h"
#include "graph/graph_mmap.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++failures;
  }
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::string Saved(const opim::Graph& g, const std::string& path) {
  Expect(opim::SaveOpimg(g, path).ok(), "SaveOpimg " + path);
  std::string bytes = FileBytes(path);
  std::remove(path.c_str());
  return bytes;
}

void CheckStructure(const opim::Graph& g, uint32_t n, uint32_t degree) {
  Expect(g.num_nodes() == n, "exact n");
  Expect(g.num_edges() == uint64_t{n} * degree, "exact m = n * degree");
  uint64_t max_out = 0;
  uint64_t in_seen = 0;
  for (opim::NodeId u = 0; u < n; ++u) {
    const auto out = g.OutNeighbors(u);
    const auto probs = g.OutProbs(u);
    max_out = std::max<uint64_t>(max_out, out.size());
    for (size_t i = 0; i < out.size(); ++i) {
      Expect(out[i] != u, "no self-loop at " + std::to_string(u));
      Expect(i == 0 || out[i - 1] < out[i],
             "out-list sorted and duplicate-free at " + std::to_string(u));
      Expect(probs[i] == 1.0 / static_cast<double>(g.InDegree(out[i])),
             "out probability is 1/indeg(target)");
    }
  }
  for (opim::NodeId v = 0; v < n; ++v) {
    const auto in = g.InNeighbors(v);
    const auto probs = g.InProbs(v);
    in_seen += in.size();
    double sum = 0.0;
    for (size_t i = 0; i < in.size(); ++i) {
      Expect(i == 0 || in[i - 1] < in[i], "in-list sorted and distinct");
      Expect(probs[i] == 1.0 / static_cast<double>(in.size()),
             "in probability is 1/indeg(v)");
      const auto back = g.OutNeighbors(in[i]);
      Expect(std::binary_search(back.begin(), back.end(), v),
             "in-edge has its out-edge");
      sum += probs[i];
    }
    Expect(g.InWeightSum(v) == sum, "in-weight sum matches");
    Expect(in.empty() || std::abs(sum - 1.0) < 1e-9, "LT weights sum to 1");
  }
  Expect(in_seen == g.num_edges(), "in-CSR holds every edge");
  Expect(max_out >= 10u * degree, "power-law tail: a hub far above mean");
}

}  // namespace

int main() {
  const uint32_t n = 4096;
  const uint32_t degree = 20;
  const perfbench::ChungLuSpec spec{.nodes = n, .mean_degree = degree,
                                    .exponent = 2.3, .seed = 7};
  const opim::Graph g = perfbench::GenerateChungLu(spec);
  CheckStructure(g, n, degree);

  perfbench::ChungLuSpec other = spec;
  other.seed = 8;
  const std::string a = Saved(g, "chung_lu_test_a.opimg");
  const std::string b =
      Saved(perfbench::GenerateChungLu(spec), "chung_lu_test_b.opimg");
  const std::string c =
      Saved(perfbench::GenerateChungLu(other), "chung_lu_test_c.opimg");
  Expect(!a.empty() && a == b, "equal seeds give byte-identical .opimg");
  Expect(a != c, "different seeds give different graphs");

  if (failures == 0) std::printf("chung_lu_test: ok\n");
  return failures == 0 ? 0 : 1;
}
