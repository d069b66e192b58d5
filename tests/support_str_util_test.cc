#include "src/support/str_util.h"

#include <gtest/gtest.h>

namespace coign {
namespace {

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("%d-%s-%.2f", 7, "x", 1.5), "7-x-1.50");
  EXPECT_EQ(StrFormat("plain"), "plain");
  EXPECT_EQ(StrFormat("%s", ""), "");
}

TEST(StrFormatTest, LongOutput) {
  const std::string long_arg(5000, 'a');
  const std::string out = StrFormat("[%s]", long_arg.c_str());
  EXPECT_EQ(out.size(), 5002u);
  EXPECT_EQ(out.front(), '[');
  EXPECT_EQ(out.back(), ']');
}

TEST(JoinStringsTest, Basics) {
  EXPECT_EQ(JoinStrings({}, ","), "");
  EXPECT_EQ(JoinStrings({"a"}, ","), "a");
  EXPECT_EQ(JoinStrings({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(SplitStringTest, KeepsEmptyFields) {
  EXPECT_EQ(SplitString("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(SplitString(",a,", ','), (std::vector<std::string>{"", "a", ""}));
  EXPECT_EQ(SplitString("", ','), (std::vector<std::string>{""}));
}

TEST(SplitJoinTest, RoundTrip) {
  const std::string text = "one|two||three";
  EXPECT_EQ(JoinStrings(SplitString(text, '|'), "|"), text);
}

TEST(StartsWithTest, Basics) {
  EXPECT_TRUE(StartsWith("o_bigone", "o_"));
  EXPECT_FALSE(StartsWith("p_bigone", "o_"));
  EXPECT_TRUE(StartsWith("abc", ""));
  EXPECT_FALSE(StartsWith("a", "ab"));
}

TEST(FormatBytesTest, UnitsScale) {
  EXPECT_EQ(FormatBytes(0), "0 B");
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(4096), "4.0 KB");
  EXPECT_EQ(FormatBytes(3u * 1024 * 1024 + 200 * 1024), "3.2 MB");
}

TEST(ParseLowerHexTest, ParsesExactWidthLowercase) {
  uint64_t value = 0;
  EXPECT_TRUE(ParseLowerHex("0123abcd", 8, &value));
  EXPECT_EQ(value, 0x0123abcdu);
  EXPECT_TRUE(ParseLowerHex("ffffffffffffffff", 16, &value));
  EXPECT_EQ(value, ~uint64_t{0});
  EXPECT_TRUE(ParseLowerHex("0", 1, &value));
  EXPECT_EQ(value, 0u);
}

TEST(ParseLowerHexTest, RejectsEverythingElseAndLeavesTheOutputAlone) {
  uint64_t value = 42;
  // Storage writes lowercase only: uppercase is damage, not an alias.
  EXPECT_FALSE(ParseLowerHex("0123ABCD", 8, &value));
  EXPECT_FALSE(ParseLowerHex("0123abc", 8, &value));    // Short.
  EXPECT_FALSE(ParseLowerHex("0123abcde", 8, &value));  // Long.
  EXPECT_FALSE(ParseLowerHex("0123abcg", 8, &value));
  EXPECT_FALSE(ParseLowerHex("-123abcd", 8, &value));
  EXPECT_FALSE(ParseLowerHex(" 123abcd", 8, &value));
  EXPECT_FALSE(ParseLowerHex(std::string("0123\0bcd", 8), 8, &value));
  EXPECT_FALSE(ParseLowerHex("", 0, &value));
  EXPECT_FALSE(ParseLowerHex("00000000000000000", 17, &value));  // Over 64 bits.
  EXPECT_EQ(value, 42u);
}

}  // namespace
}  // namespace coign
