// Scratch paths private to one test process.
//
// ::testing::TempDir() names one directory for every test binary (GTest
// 1.11 returns "/tmp/" on Linux whatever TEST_TMPDIR says), so two build
// trees tested side by side, say a Release and a sanitizer build, would
// write each other's fixed-name files. Every test that writes a file or a
// directory names it here; the process id in the name keeps concurrent
// runs apart.
#pragma once

#include <unistd.h>

#include <string>

#include <gtest/gtest.h>

namespace reese {

inline std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "reese_" + std::to_string(::getpid()) + "_" +
         name;
}

}  // namespace reese
