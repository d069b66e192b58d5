#include "src/support/histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "src/support/rng.h"

namespace coign {
namespace {

struct BucketRow {
  int bucket = 0;
  uint64_t count = 0;
  uint64_t bytes = 0;
  friend bool operator==(const BucketRow&, const BucketRow&) = default;
};

// The histogram's non-empty buckets as ForEachBucket visits them.
std::vector<BucketRow> Buckets(const ExponentialHistogram& h) {
  std::vector<BucketRow> out;
  h.ForEachBucket([&out](int bucket, uint64_t count, uint64_t bytes) {
    out.push_back({bucket, count, bytes});
  });
  return out;
}

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
  for (const BucketRow& row : Buckets(h)) {
    EXPECT_TRUE(H::CanHold(row.bucket, row.count, row.bytes)) << row.bucket;
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
  EXPECT_TRUE(Buckets(h).empty());
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

TEST(HistogramTest, BucketsVisitedAscending) {
  ExponentialHistogram h;
  h.Add(100000);
  h.Add(2);
  h.Add(500);
  const std::vector<BucketRow> buckets = Buckets(h);
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_TRUE(buckets[0].bucket < buckets[1].bucket && buckets[1].bucket < buckets[2].bucket);
  EXPECT_EQ(buckets[0], (BucketRow{1, 1, 2}));
  EXPECT_EQ(buckets[2], (BucketRow{16, 1, 100000}));
}

// The lowest bucket lives inline and the rest on the heap; every operation
// must read the same across that boundary. Each histogram with n buckets
// gets them in a scrambled order, so a new lowest bucket displaces the
// inline one.
ExponentialHistogram WithBuckets(int n, uint64_t scale = 1) {
  ExponentialHistogram h;
  for (int i = 0; i < n; ++i) {
    const int bucket = (i * 17 + 30) % (ExponentialHistogram::kMaxBucket + 1);
    h.AddBucket(bucket, scale * static_cast<uint64_t>(i + 1),
                scale * ExponentialHistogram::BucketLowerBound(bucket) *
                    static_cast<uint64_t>(i + 1));
  }
  return h;
}

std::vector<BucketRow> Expected(int n, uint64_t scale = 1) {
  std::vector<BucketRow> out;
  for (int i = 0; i < n; ++i) {
    const int bucket = (i * 17 + 30) % (ExponentialHistogram::kMaxBucket + 1);
    out.push_back({bucket, scale * static_cast<uint64_t>(i + 1),
                   scale * ExponentialHistogram::BucketLowerBound(bucket) *
                       static_cast<uint64_t>(i + 1)});
  }
  std::sort(out.begin(), out.end(),
            [](const BucketRow& a, const BucketRow& b) { return a.bucket < b.bucket; });
  return out;
}

TEST(HistogramTest, InlineAndHeapBucketsReadAlike) {
  for (int n : {0, 1, 2, 3, ExponentialHistogram::kMaxBucket + 1}) {
    SCOPED_TRACE(n);
    const ExponentialHistogram h = WithBuckets(n);
    const std::vector<BucketRow> expected = Expected(n);
    EXPECT_EQ(Buckets(h), expected);
    uint64_t count = 0;
    uint64_t bytes = 0;
    for (const BucketRow& row : expected) {
      EXPECT_EQ(h.CountAt(row.bucket), row.count);
      EXPECT_EQ(h.BytesAt(row.bucket), row.bytes);
      count += row.count;
      bytes += row.bytes;
    }
    EXPECT_EQ(h.total_count(), count);
    EXPECT_EQ(h.total_bytes(), bytes);
    EXPECT_EQ(h.empty(), n == 0);

    // Copy and move keep every bucket; a moved-to histogram equals the
    // original.
    ExponentialHistogram copy = h;
    EXPECT_EQ(copy, h);
    EXPECT_EQ(Buckets(copy), expected);
    ExponentialHistogram moved = std::move(copy);
    EXPECT_EQ(moved, h);
    ExponentialHistogram assigned;
    assigned.Add(3);
    assigned = moved;
    EXPECT_EQ(assigned, h);
    ExponentialHistogram move_assigned;
    move_assigned.Add(3);
    move_assigned = std::move(assigned);
    EXPECT_EQ(move_assigned, h);

    // The same buckets added in another order are equal; one more message
    // anywhere is not.
    ExponentialHistogram reversed;
    for (auto it = expected.rbegin(); it != expected.rend(); ++it) {
      reversed.AddBucket(it->bucket, it->count, it->bytes);
    }
    EXPECT_EQ(reversed, h);
    for (int extra : {0, 7, ExponentialHistogram::kMaxBucket}) {
      ExponentialHistogram more = h;
      more.AddBucket(extra, 1, ExponentialHistogram::BucketLowerBound(extra));
      EXPECT_FALSE(more == h) << extra;
    }
  }
}

TEST(HistogramTest, MergeAcrossTheInlineBoundary) {
  for (int a : {0, 1, 2, 3, ExponentialHistogram::kMaxBucket + 1}) {
    for (int b : {0, 1, 2, 3, ExponentialHistogram::kMaxBucket + 1}) {
      SCOPED_TRACE(std::to_string(a) + " + " + std::to_string(b));
      ExponentialHistogram merged = WithBuckets(a);
      merged.Merge(WithBuckets(b, 1000));
      // Merging is adding each of the other's buckets.
      ExponentialHistogram added = WithBuckets(a);
      for (const BucketRow& row : Expected(b, 1000)) {
        added.AddBucket(row.bucket, row.count, row.bytes);
      }
      EXPECT_EQ(merged, added);
      EXPECT_EQ(merged.total_count(), WithBuckets(a).total_count() +
                                          WithBuckets(b, 1000).total_count());
      std::vector<BucketRow> rows = Buckets(merged);
      EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end(),
                                 [](const BucketRow& x, const BucketRow& y) {
                                   return x.bucket < y.bucket;
                                 }));
      EXPECT_EQ(rows.size(), static_cast<size_t>(std::max(a, b)));
    }
  }
  // A histogram merged into itself doubles.
  ExponentialHistogram twice = WithBuckets(3);
  twice.Merge(twice);
  EXPECT_EQ(twice, WithBuckets(3, 2));
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
  for (const BucketRow& row : Buckets(h)) {
    const int bucket = row.bucket;
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
