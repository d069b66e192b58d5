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

TEST(ParseDecimalTest, ReadsOnlyWholeTokens) {
  uint32_t u = 7;
  EXPECT_TRUE(ParseDecimal("4294967295", &u));
  EXPECT_EQ(u, 4294967295u);
  EXPECT_TRUE(ParseDecimal("007", &u));
  EXPECT_EQ(u, 7u);
  for (const char* bad : {"", "-1", "+1", "1x", " 1", "1 ", "4294967296", "0x10", "1.0"}) {
    EXPECT_FALSE(ParseDecimal(bad, &u)) << bad;
    EXPECT_EQ(u, 7u) << "written on failure: " << bad;
  }
  int i = 0;
  EXPECT_TRUE(ParseDecimal("-1", &i));
  EXPECT_EQ(i, -1);
  EXPECT_FALSE(ParseDecimal("+1", &i));
  EXPECT_FALSE(ParseDecimal("--1", &i));
}

TEST(ParseDecimalTest, DoublesAndColonTriples) {
  double d = 0.0;
  EXPECT_TRUE(ParseDouble("1.250000000e-01", &d));
  EXPECT_EQ(d, 0.125);
  EXPECT_TRUE(ParseDouble("4.940656458e-324", &d));  // The smallest %.9e writes.
  EXPECT_GT(d, 0.0);
  for (const char* bad : {"", "+1", "1e", "1e999", "0x1p3", "1.5s"}) {
    EXPECT_FALSE(ParseDouble(bad, &d)) << bad;
  }
  int b = 0;
  uint64_t c = 0;
  uint64_t n = 0;
  EXPECT_TRUE(ParseColonTriple("9:1:1000", &b, &c, &n));
  EXPECT_EQ(b, 9);
  EXPECT_EQ(c, 1u);
  EXPECT_EQ(n, 1000u);
  for (const char* bad : {"9:1", "9:1:", ":1:2", "9::2", "9:1:2:3", "9:1:-2", "9;1;2"}) {
    EXPECT_FALSE(ParseColonTriple(bad, &b, &c, &n)) << bad;
  }
}

TEST(LineReaderTest, SplitsLikeGetline) {
  const auto lines = [](std::string_view text) {
    std::vector<std::string> out;
    LineReader reader(text);
    std::string_view line;
    while (reader.Next(&line)) {
      out.emplace_back(line);
    }
    return out;
  };
  EXPECT_EQ(lines(""), std::vector<std::string>{});
  EXPECT_EQ(lines("\n"), std::vector<std::string>{""});
  EXPECT_EQ(lines("a\nb"), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(lines("a\n\nb\n"), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(lines("a\r\n"), std::vector<std::string>{"a\r"});

  LineReader reader("head\npayload\nmore");
  std::string_view line;
  ASSERT_TRUE(reader.Next(&line));
  EXPECT_EQ(reader.rest(), "payload\nmore");
}

TEST(FieldReaderTest, SplitsOnTheStreamWhitespaceSet) {
  FieldReader fields(" alpha\t\v\f\r 42 -7 tail  with spaces");
  std::string_view word;
  uint32_t number = 0;
  int negative = 0;
  ASSERT_TRUE(fields.Read(&word));
  EXPECT_EQ(word, "alpha");
  ASSERT_TRUE(fields.Read(&number));
  EXPECT_EQ(number, 42u);
  ASSERT_TRUE(fields.Read(&negative));
  EXPECT_EQ(negative, -7);
  EXPECT_EQ(fields.rest(), " tail  with spaces");
  EXPECT_FALSE(fields.AtEnd());
  ASSERT_TRUE(fields.Read(&word));
  ASSERT_TRUE(fields.Read(&word));
  ASSERT_TRUE(fields.Read(&word));
  EXPECT_EQ(word, "spaces");
  EXPECT_TRUE(fields.AtEnd());
  EXPECT_FALSE(fields.Read(&word));

  FieldReader blank(" \t\r");
  EXPECT_TRUE(blank.AtEnd());
  EXPECT_FALSE(blank.Read(&word));
  // NUL is not whitespace.
  FieldReader nul(std::string_view("a\0b c", 5));
  ASSERT_TRUE(nul.Read(&word));
  EXPECT_EQ(word, std::string_view("a\0b", 3));
}

}  // namespace
}  // namespace coign
