#pragma once
// Per-process, per-test scratch directory names for tests that write
// journals, stores and sockets to disk.
//
// The name carries the process id, so two processes of one test binary
// running at once (a ctest run beside a sanitizer build's binary, or a
// second copy started by hand) never share -- and never remove_all --
// each other's files.  gtest's random_seed() would not do: it is 0
// unless shuffling is on.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>

namespace mtcmos::test {

/// temp_directory_path() / "<fixture>.<pid>.<current test name>", with
/// the '/' of a parameterized test's name turned into '.' so the
/// directory is one level deep.  Not created; callers create (and
/// remove) it.
inline std::filesystem::path scratch_dir(const std::string& fixture) {
  std::string test = ::testing::UnitTest::GetInstance()->current_test_info()->name();
  std::replace(test.begin(), test.end(), '/', '.');
  return std::filesystem::temp_directory_path() /
         (fixture + "." + std::to_string(::getpid()) + "." + test);
}

}  // namespace mtcmos::test
