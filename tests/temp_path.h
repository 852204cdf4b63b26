// Temporary file names for tests that ctest runs in parallel.
//
// gtest_discover_tests registers every TEST as its own ctest entry, so a
// parallel ctest runs the tests of one binary as concurrent processes that
// share ::testing::TempDir(). A fixed file name there races between any
// two tests that use it (one test truncates the file another is reading).
// TestTempPath qualifies the name with the running test's suite and name
// and the process id, so no two test processes ever share a file.

#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <string>

namespace opim {

/// `name` under ::testing::TempDir(), prefixed with
/// "<suite>.<test>.<pid>." of the running test. Stable within one test,
/// so a test can re-derive a path it wrote earlier.
inline std::string TestTempPath(const std::string& name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string tag = info == nullptr ? std::string("no_test")
                                    : std::string(info->test_suite_name()) +
                                          "." + info->name();
  std::replace(tag.begin(), tag.end(), '/', '_');  // parameterized names
  return ::testing::TempDir() + "/" + tag + "." + std::to_string(::getpid()) +
         "." + name;
}

}  // namespace opim
