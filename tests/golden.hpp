// Byte-for-byte golden-file check shared by the test suites.  Each suite
// passes its golden directory as GOLDEN_DIR; with FAIRSHARE_REGEN_GOLDEN
// set in the environment the check rewrites the file instead and skips,
// so an intentional change is regenerated deliberately and reviewed as a
// diff before committing.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#ifndef GOLDEN_DIR
#define GOLDEN_DIR "."
#endif

namespace fairshare::golden {

inline std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

inline void compare_golden(const std::string& actual, const std::string& file) {
  const std::string path = std::string(GOLDEN_DIR) + "/" + file;
  if (std::getenv("FAIRSHARE_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << actual;
    GTEST_SKIP() << "regenerated " << path;
  }
  const std::string expected = read_file(path);
  ASSERT_FALSE(expected.empty()) << "missing golden " << path;
  EXPECT_EQ(actual, expected) << "output drifted from " << path
                              << "; regenerate deliberately if intended";
}

}  // namespace fairshare::golden
