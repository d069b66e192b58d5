#include "src/support/file_io.h"

#include <unistd.h>

#include <filesystem>
#include <string>

#include <gtest/gtest.h>

namespace coign {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("coign_file_io_" + std::to_string(getpid()) + "_" + name))
      .string();
}

TEST(FileIoTest, WriteThenReadRoundTripsAndTruncates) {
  const std::string path = TempPath("roundtrip.txt");
  ASSERT_TRUE(WriteFile(path, "first, longer text\n", "test file").ok());
  ASSERT_TRUE(WriteFile(path, std::string("a\0b\n", 4), "test file").ok());
  Result<std::string> read = ReadFile(path, "test file");
  std::filesystem::remove(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, std::string("a\0b\n", 4));
}

TEST(FileIoTest, MissingPathIsNotFoundAndNamesIt) {
  const std::string path = TempPath("missing.txt");
  Result<std::string> read = ReadFile(path, "test file");
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(read.status().message(), "cannot open test file: " + path);
}

TEST(FileIoTest, DirectoryOpensButDoesNotReadAndIsInternal) {
  const std::string path = TempPath("dir");
  std::filesystem::create_directory(path);
  Result<std::string> read = ReadFile(path, "test file");
  std::filesystem::remove(path);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kInternal);
  EXPECT_EQ(read.status().message(), "cannot read test file: " + path);
}

TEST(FileIoTest, UnwritablePathIsInternalAndNamesIt) {
  const std::string path = TempPath("no_such_dir") + "/x.txt";
  const Status wrote = WriteFile(path, "text", "test file");
  EXPECT_EQ(wrote.code(), StatusCode::kInternal);
  EXPECT_EQ(wrote.message(), "cannot open test file for writing: " + path);
}

}  // namespace
}  // namespace coign
