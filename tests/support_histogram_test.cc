#include "src/support/histogram.h"

#include <gtest/gtest.h>

#include "src/support/rng.h"

namespace coign {
namespace {

TEST(HistogramTest, BucketBoundaries) {
  EXPECT_EQ(ExponentialHistogram::BucketFor(0), 0);
  EXPECT_EQ(ExponentialHistogram::BucketFor(1), 0);
  EXPECT_EQ(ExponentialHistogram::BucketFor(2), 1);
  EXPECT_EQ(ExponentialHistogram::BucketFor(3), 1);
  EXPECT_EQ(ExponentialHistogram::BucketFor(4), 2);
  EXPECT_EQ(ExponentialHistogram::BucketFor(1023), 9);
  EXPECT_EQ(ExponentialHistogram::BucketFor(1024), 10);
  EXPECT_EQ(ExponentialHistogram::BucketFor(~uint64_t{0}), ExponentialHistogram::kMaxBucket);
}

TEST(HistogramTest, LowerBoundInvertsBucketFor) {
  for (int b = 0; b <= 20; ++b) {
    const uint64_t lo = ExponentialHistogram::BucketLowerBound(b);
    EXPECT_EQ(ExponentialHistogram::BucketFor(lo == 0 ? 1 : lo), b == 0 ? 0 : b);
  }
}

TEST(HistogramTest, CanHoldIsTheBucketSizeRange) {
  using H = ExponentialHistogram;
  EXPECT_TRUE(H::CanHold(0, 2, 2));
  EXPECT_FALSE(H::CanHold(0, 2, 3));
  EXPECT_TRUE(H::CanHold(8, 2, 512));
  EXPECT_TRUE(H::CanHold(8, 2, 1022));
  EXPECT_FALSE(H::CanHold(8, 2, 511));
  EXPECT_FALSE(H::CanHold(8, 2, 1023));
  EXPECT_TRUE(H::CanHold(H::kMaxBucket, 1, uint64_t{1} << 40));
  EXPECT_TRUE(H::CanHold(H::kMaxBucket, 1, ~uint64_t{0}));
  EXPECT_FALSE(H::CanHold(H::kMaxBucket, 1, (uint64_t{1} << 40) - 1));
  // count * 2^b past 2^64 fits no byte total.
  EXPECT_FALSE(H::CanHold(H::kMaxBucket, uint64_t{1} << 24, ~uint64_t{0}));
  EXPECT_FALSE(H::CanHold(39, ~uint64_t{0}, ~uint64_t{0}));
  EXPECT_FALSE(H::CanHold(-1, 1, 1));
  EXPECT_FALSE(H::CanHold(H::kMaxBucket + 1, 1, 1));

  // Whatever Add records, CanHold accepts.
  Rng rng(11);
  ExponentialHistogram h;
  for (int i = 0; i < 4000; ++i) {
    h.Add(rng.NextUint64() >> rng.UniformInt(20, 63));
  }
  for (int b : h.NonEmptyBuckets()) {
    EXPECT_TRUE(H::CanHold(b, h.CountAt(b), h.BytesAt(b))) << b;
  }
}

TEST(HistogramTest, AddTracksCountsAndExactBytes) {
  ExponentialHistogram h;
  h.Add(100);
  h.Add(120);
  h.Add(5000);
  EXPECT_EQ(h.total_count(), 3u);
  EXPECT_EQ(h.total_bytes(), 5220u);
  EXPECT_EQ(h.CountAt(ExponentialHistogram::BucketFor(100)), 2u);
  EXPECT_EQ(h.BytesAt(ExponentialHistogram::BucketFor(100)), 220u);
  EXPECT_DOUBLE_EQ(h.MeanSizeAt(ExponentialHistogram::BucketFor(100)), 110.0);
  EXPECT_EQ(h.CountAt(ExponentialHistogram::BucketFor(5000)), 1u);
}

TEST(HistogramTest, EmptyBucketsReadAsZero) {
  ExponentialHistogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.CountAt(3), 0u);
  EXPECT_EQ(h.BytesAt(3), 0u);
  EXPECT_EQ(h.MeanSizeAt(3), 0.0);
  EXPECT_TRUE(h.NonEmptyBuckets().empty());
}

TEST(HistogramTest, MergePreservesTotals) {
  ExponentialHistogram a, b;
  a.Add(10);
  a.Add(100);
  b.Add(100);
  b.Add(100000);
  a.Merge(b);
  EXPECT_EQ(a.total_count(), 4u);
  EXPECT_EQ(a.total_bytes(), 10u + 100 + 100 + 100000);
  EXPECT_EQ(a.CountAt(ExponentialHistogram::BucketFor(100)), 2u);
}

TEST(HistogramTest, AddBucketInjectsRawData) {
  ExponentialHistogram h;
  h.AddBucket(5, 7, 250);
  EXPECT_EQ(h.total_count(), 7u);
  EXPECT_EQ(h.total_bytes(), 250u);
  EXPECT_EQ(h.CountAt(5), 7u);
}

TEST(HistogramTest, NonEmptyBucketsAscending) {
  ExponentialHistogram h;
  h.Add(100000);
  h.Add(2);
  h.Add(500);
  const std::vector<int> buckets = h.NonEmptyBuckets();
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_TRUE(buckets[0] < buckets[1] && buckets[1] < buckets[2]);
}

TEST(HistogramTest, EqualityAndToString) {
  ExponentialHistogram a, b;
  a.Add(7);
  b.Add(7);
  EXPECT_EQ(a, b);
  b.Add(9);
  EXPECT_FALSE(a == b);
  EXPECT_NE(a.ToString().find("n=1"), std::string::npos);
}

// Property: summarization never loses a byte or a message, whatever the
// size distribution (the invariant behind "summarization preserves network
// independence while significantly lowering storage requirements").
class HistogramPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HistogramPropertyTest, TotalsExactUnderRandomLoad) {
  Rng rng(GetParam());
  ExponentialHistogram h;
  uint64_t expected_count = 0, expected_bytes = 0;
  for (int i = 0; i < 5000; ++i) {
    // Spread across ~6 orders of magnitude.
    const uint64_t bytes = static_cast<uint64_t>(
        rng.Exponential(static_cast<double>(1 + rng.UniformInt(0, 100000))));
    h.Add(bytes);
    expected_count += 1;
    expected_bytes += bytes;
  }
  EXPECT_EQ(h.total_count(), expected_count);
  EXPECT_EQ(h.total_bytes(), expected_bytes);
  // Per-bucket sums must re-aggregate to the totals.
  uint64_t count = 0, bytes = 0;
  for (int bucket : h.NonEmptyBuckets()) {
    count += h.CountAt(bucket);
    bytes += h.BytesAt(bucket);
    // Mean size of each bucket lies within the bucket's bounds.
    const double mean = h.MeanSizeAt(bucket);
    if (bucket > 0) {
      EXPECT_GE(mean, static_cast<double>(ExponentialHistogram::BucketLowerBound(bucket)));
    }
    if (bucket < ExponentialHistogram::kMaxBucket) {
      EXPECT_LT(mean, static_cast<double>(ExponentialHistogram::BucketLowerBound(bucket + 1)));
    }
  }
  EXPECT_EQ(count, expected_count);
  EXPECT_EQ(bytes, expected_bytes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistogramPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

}  // namespace
}  // namespace coign
