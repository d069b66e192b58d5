#include "src/support/guid.h"

#include <cstdio>
#include <unordered_set>

#include <gtest/gtest.h>

#include "src/support/rng.h"
#include "src/support/str_util.h"

namespace coign {
namespace {

TEST(GuidTest, DefaultIsNull) {
  Guid g;
  EXPECT_TRUE(g.IsNull());
}

TEST(GuidTest, FromNameIsDeterministic) {
  EXPECT_EQ(Guid::FromName("iid:IFoo"), Guid::FromName("iid:IFoo"));
}

TEST(GuidTest, DistinctNamesDistinctGuids) {
  EXPECT_NE(Guid::FromName("iid:IFoo"), Guid::FromName("iid:IBar"));
  EXPECT_NE(Guid::FromName("a"), Guid::FromName("a "));
}

TEST(GuidTest, FromNameNeverNull) {
  EXPECT_FALSE(Guid::FromName("").IsNull());
  EXPECT_FALSE(Guid::FromName("x").IsNull());
}

TEST(GuidTest, RoundTripsThroughString) {
  const Guid g = Guid::FromName("clsid:Octarine.App");
  Result<Guid> parsed = Guid::Parse(g.ToString());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, g);
}

TEST(GuidTest, ToStringFormat) {
  Guid g{0x0123456789abcdefull, 0xfedcba9876543210ull};
  EXPECT_EQ(g.ToString(), "{0123456789abcdef-fedcba9876543210}");
}

// The formatter is hand-rolled; it must write exactly printf's
// "{%016llx-%016llx}", AppendTo must only append, and WriteTo must write
// kTextSize bytes and no more.
TEST(GuidTest, ToStringAndAppendToMatchPrintf) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const Guid g{rng.NextUint64() >> (i % 64), rng.NextUint64() >> (i / 16 % 64)};
    char expected[40];
    std::snprintf(expected, sizeof(expected), "{%016llx-%016llx}",
                  static_cast<unsigned long long>(g.hi), static_cast<unsigned long long>(g.lo));
    EXPECT_EQ(g.ToString(), expected);
    std::string appended = "x";
    g.AppendTo(&appended);
    EXPECT_EQ(appended, std::string("x") + expected);
    char written[Guid::kTextSize + 1];
    written[Guid::kTextSize] = '#';
    EXPECT_EQ(g.WriteTo(written), written + Guid::kTextSize);
    EXPECT_EQ(std::string_view(written, Guid::kTextSize), expected);
    EXPECT_EQ(written[Guid::kTextSize], '#');
  }
}

TEST(GuidTest, ParseRejectsMalformedInput) {
  EXPECT_FALSE(Guid::Parse("").ok());
  EXPECT_FALSE(Guid::Parse("{123}").ok());
  EXPECT_FALSE(Guid::Parse("0123456789abcdef-fedcba9876543210").ok());   // No braces.
  EXPECT_FALSE(Guid::Parse("{0123456789abcdef+fedcba9876543210}").ok());  // Bad separator.
  EXPECT_FALSE(Guid::Parse("{0123456789abcdeg-fedcba9876543210}").ok());  // Bad digit.
}

TEST(GuidTest, OrderingIsTotal) {
  const Guid a = Guid::FromName("a");
  const Guid b = Guid::FromName("b");
  EXPECT_TRUE((a < b) != (b < a));
  EXPECT_TRUE(a <= a);
}

TEST(GuidTest, HashSpreadsAcrossNames) {
  // Property: 10k generated names produce 10k distinct GUIDs and no more
  // than a trivial number of hash collisions in the low bits.
  std::unordered_set<Guid> guids;
  std::unordered_set<uint64_t> low_bits;
  for (int i = 0; i < 10000; ++i) {
    const Guid g = Guid::FromName(StrFormat("class-%d", i));
    guids.insert(g);
    low_bits.insert(GuidHash{}(g) & 0xffff);
  }
  EXPECT_EQ(guids.size(), 10000u);
  // With 65536 buckets and 10k keys, expect good coverage.
  EXPECT_GT(low_bits.size(), 8000u);
}

}  // namespace
}  // namespace coign
