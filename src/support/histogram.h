// Exponential size-range histogram, the paper's profiling-logger data
// structure (Section 3.3): message sizes are summarized in ranges whose
// widths grow exponentially, so storage does not grow with execution time
// while the summary stays network-independent.

#ifndef COIGN_SRC_SUPPORT_HISTOGRAM_H_
#define COIGN_SRC_SUPPORT_HISTOGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

namespace coign {

// Bucket b holds sizes in [2^b, 2^(b+1)) bytes; bucket 0 also holds size 0.
class ExponentialHistogram {
 public:
  static constexpr int kMaxBucket = 40;  // Up to a terabyte per message.

  // Bucket index for a byte count.
  static int BucketFor(uint64_t bytes);
  // Inclusive lower bound of a bucket.
  static uint64_t BucketLowerBound(int bucket);
  // Whether `count` messages recorded into `bucket` can total `bytes`:
  // bucket 0 holds sizes 0 and 1, bucket b < kMaxBucket sizes
  // [2^b, 2^(b+1)), and kMaxBucket every size from 2^kMaxBucket up. False
  // for an index outside [0, kMaxBucket]. Checked without overflow.
  static bool CanHold(int bucket, uint64_t count, uint64_t bytes);

  void Add(uint64_t bytes);
  // Adds pre-summarized data directly into a bucket (profile log loading).
  void AddBucket(int bucket, uint64_t count, uint64_t bytes);
  void Merge(const ExponentialHistogram& other);

  uint64_t total_count() const { return total_count_; }
  uint64_t total_bytes() const { return total_bytes_; }

  // Count of messages recorded in the given bucket.
  uint64_t CountAt(int bucket) const;
  // Exact accumulated bytes of the messages in the bucket (we keep the sum,
  // not just the count, so summarization loses no total-byte accuracy).
  uint64_t BytesAt(int bucket) const;
  // Mean message size within the bucket; 0 if the bucket is empty.
  double MeanSizeAt(int bucket) const;

  // Indices of non-empty buckets, ascending.
  std::vector<int> NonEmptyBuckets() const;

  bool empty() const { return total_count_ == 0; }

  std::string ToString() const;

  friend bool operator==(const ExponentialHistogram& a,
                         const ExponentialHistogram& b) = default;

 private:
  struct Bucket {
    uint64_t count = 0;
    uint64_t bytes = 0;
    friend bool operator==(const Bucket&, const Bucket&) = default;
  };

  // Sparse storage: most (pair, method) histograms touch a handful of
  // buckets. Sorted by index.
  std::vector<std::pair<int, Bucket>> buckets_;
  uint64_t total_count_ = 0;
  uint64_t total_bytes_ = 0;

  Bucket& FindOrInsert(int bucket);
  const Bucket* Find(int bucket) const;
};

}  // namespace coign

#endif  // COIGN_SRC_SUPPORT_HISTOGRAM_H_
