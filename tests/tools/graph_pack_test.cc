// End-to-end tests of the graph_pack converter binary: edge-list →
// .opimg round trips (with --verify), the bin input path, and the
// distinct exit codes for I/O failures vs. usage errors. Located via
// the OPIM_GRAPH_PACK_PATH compile definition.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <string>
#include <utility>

#include "gen/generators.h"
#include "graph/graph_binary.h"
#include "graph/graph_io.h"
#include "graph/graph_mmap.h"
#include "temp_path.h"

namespace opim {
namespace {

/// Runs a command, returning (exit code, captured stdout+stderr).
std::pair<int, std::string> RunCommand(const std::string& cmd) {
  std::array<char, 4096> buffer;
  std::string output;
  FILE* pipe = popen((cmd + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return {-1, ""};
  while (fgets(buffer.data(), buffer.size(), pipe) != nullptr) {
    output += buffer.data();
  }
  const int wait_status = pclose(pipe);
  const int rc =
      WIFEXITED(wait_status) ? WEXITSTATUS(wait_status) : -1;
  return {rc, output};
}

std::string Pack() { return OPIM_GRAPH_PACK_PATH; }

std::string TmpFile(const char* name) {
  return TestTempPath(name);
}

TEST(GraphPackTest, EdgeListToOpimgVerifiedRoundTrip) {
  const std::string txt = TmpFile("pack_in.txt");
  {
    FILE* f = fopen(txt.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("# tiny triangle plus a tail\n0 1\n1 2\n2 0\n2 3\n", f);
    fclose(f);
  }
  const std::string packed = TmpFile("pack_out.opimg");
  auto [rc, out] = RunCommand(Pack() + " --in=" + txt + " --out=" + packed +
                              " --verify");
  ASSERT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("verified"), std::string::npos) << out;

  // The written container must load to the same graph the library
  // parses from the same text.
  EdgeListOptions opts;
  auto direct = LoadEdgeList(txt, opts);
  ASSERT_TRUE(direct.ok());
  auto reload = LoadOpimg(packed);
  ASSERT_TRUE(reload.ok()) << reload.status().ToString();
  EXPECT_EQ(reload.ValueOrDie().num_nodes(), direct.ValueOrDie().num_nodes());
  EXPECT_EQ(reload.ValueOrDie().num_edges(), direct.ValueOrDie().num_edges());
  std::remove(txt.c_str());
  std::remove(packed.c_str());
}

TEST(GraphPackTest, BinInputPacksAndVerifies) {
  Graph g = GenerateBarabasiAlbert(200, 3);
  const std::string bin = TmpFile("pack_in.bin");
  ASSERT_TRUE(SaveBinaryGraph(g, bin).ok());
  const std::string packed = TmpFile("pack_from_bin.opimg");
  auto [rc, out] = RunCommand(Pack() + " --in=" + bin + " --in-format=bin" +
                              " --out=" + packed + " --verify");
  ASSERT_EQ(rc, 0) << out;

  auto reload = LoadOpimg(packed);
  ASSERT_TRUE(reload.ok()) << reload.status().ToString();
  EXPECT_EQ(reload.ValueOrDie().num_nodes(), g.num_nodes());
  EXPECT_EQ(reload.ValueOrDie().num_edges(), g.num_edges());
  std::remove(bin.c_str());
  std::remove(packed.c_str());
}

TEST(GraphPackTest, MissingInputIsExitOne) {
  auto [rc, out] = RunCommand(Pack() + " --in=/nonexistent/g.txt --out=" +
                              TmpFile("pack_never.opimg"));
  EXPECT_EQ(rc, 1) << out;
  EXPECT_NE(out.find("graph_pack:"), std::string::npos) << out;
}

TEST(GraphPackTest, UsageErrorsAreExitTwo) {
  auto [rc1, out1] = RunCommand(Pack());
  EXPECT_EQ(rc1, 2) << out1;
  EXPECT_NE(out1.find("usage:"), std::string::npos) << out1;

  auto [rc2, out2] = RunCommand(Pack() + " --in=a --out=b --in-format=zip");
  EXPECT_EQ(rc2, 2) << out2;

  auto [rc3, out3] = RunCommand(Pack() + " --in=a --out=b --scheme=bogus");
  EXPECT_EQ(rc3, 2) << out3;
}

}  // namespace
}  // namespace opim
