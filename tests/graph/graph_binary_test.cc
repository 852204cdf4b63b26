#include "graph/graph_binary.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "gen/generators.h"
#include "temp_path.h"

namespace opim {
namespace {

std::string TempPath(const char* name) {
  return TestTempPath(name);
}

TEST(GraphBinaryTest, RoundTripPreservesEverything) {
  Graph g = GenerateBarabasiAlbert(200, 4);
  std::string path = TempPath("opim_bin_roundtrip.bin");
  ASSERT_TRUE(SaveBinaryGraph(g, path).ok());
  auto r = LoadBinaryGraph(path);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Graph& g2 = r.ValueOrDie();
  ASSERT_EQ(g2.num_nodes(), g.num_nodes());
  ASSERT_EQ(g2.num_edges(), g.num_edges());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    auto na = g.OutNeighbors(u), nb = g2.OutNeighbors(u);
    auto pa = g.OutProbs(u), pb = g2.OutProbs(u);
    ASSERT_EQ(na.size(), nb.size()) << "node " << u;
    for (size_t i = 0; i < na.size(); ++i) {
      EXPECT_EQ(na[i], nb[i]);
      EXPECT_DOUBLE_EQ(pa[i], pb[i]);
    }
  }
  std::remove(path.c_str());
}

TEST(GraphBinaryTest, EmptyGraphRoundTrips) {
  GraphBuilder b(5);
  Graph g = b.Build();
  std::string path = TempPath("opim_bin_empty.bin");
  ASSERT_TRUE(SaveBinaryGraph(g, path).ok());
  auto r = LoadBinaryGraph(path);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().num_nodes(), 5u);
  EXPECT_EQ(r.ValueOrDie().num_edges(), 0u);
  std::remove(path.c_str());
}

TEST(GraphBinaryTest, WrongMagicRejected) {
  std::string path = TempPath("opim_bin_magic.bin");
  {
    std::ofstream f(path, std::ios::binary);
    f << "NOTAGRPH and some bytes";
  }
  auto r = LoadBinaryGraph(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(GraphBinaryTest, TruncatedFileRejected) {
  Graph g = GenerateBarabasiAlbert(100, 3);
  std::string full = TempPath("opim_bin_full.bin");
  ASSERT_TRUE(SaveBinaryGraph(g, full).ok());
  // Copy only the first half of the bytes.
  std::ifstream in(full, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  std::string truncated_path = TempPath("opim_bin_trunc.bin");
  {
    std::ofstream out(truncated_path, std::ios::binary);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() / 2));
  }
  auto r = LoadBinaryGraph(truncated_path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
  std::remove(full.c_str());
  std::remove(truncated_path.c_str());
}

TEST(GraphBinaryTest, MissingFileIsIOError) {
  auto r = LoadBinaryGraph("/nonexistent/opim.bin");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace opim
