// Temp-file names for tests that write files. ctest runs every test as its
// own process, in parallel under -j, so a fixed name would race: the name
// carries the running test's name and the process id.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>

namespace tango::testing_support {

/// TempDir()/<stem>_<test name>_<pid><ext>, private to the running test.
inline std::string private_temp_path(const std::string& stem,
                                     const char* ext) {
  return ::testing::TempDir() + "/" + stem + "_" +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         "_" + std::to_string(getpid()) + ext;
}

}  // namespace tango::testing_support
