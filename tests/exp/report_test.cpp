#include "exp/report.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

namespace dhtlb::exp {
namespace {

TEST(Report, WriteFileCreatesDirectories) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "dhtlb_report_test").string();
  const std::string path = dir + "/nested/out.csv";
  std::filesystem::remove_all(dir);
  EXPECT_TRUE(write_file(path, "hello\n"));
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "hello\n");
  std::filesystem::remove_all(dir);
}

TEST(Report, WriteFileFailsCleanlyOnBadPath) {
  EXPECT_FALSE(write_file("/proc/definitely/not/writable/x.csv", "x"));
}

}  // namespace
}  // namespace dhtlb::exp
