// Exponential size-range histogram, the paper's profiling-logger data
// structure (Section 3.3): message sizes are summarized in ranges whose
// widths grow exponentially, so storage does not grow with execution time
// while the summary stays network-independent.
//
// A profiled call key's sizes almost always fall in one range (every
// histogram of the Octarine analysis log holds one bucket, and none of
// any scenario log holds more than three), so the lowest bucket lives
// inline and only the rest go to the heap: a one-bucket histogram
// allocates nothing, and ForEachBucket reads any histogram without
// allocating.

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

  // Sums over the buckets, which keep no separate totals: a profile holds
  // thousands of histograms, nearly all of one bucket.
  uint64_t total_count() const {
    uint64_t count = first_.count;
    for (const Bucket& b : more_) {
      count += b.count;
    }
    return count;
  }
  uint64_t total_bytes() const {
    uint64_t bytes = first_.bytes;
    for (const Bucket& b : more_) {
      bytes += b.bytes;
    }
    return bytes;
  }

  // Count of messages recorded in the given bucket.
  uint64_t CountAt(int bucket) const;
  // Exact accumulated bytes of the messages in the bucket (we keep the sum,
  // not just the count, so summarization loses no total-byte accuracy).
  uint64_t BytesAt(int bucket) const;
  // Mean message size within the bucket; 0 if the bucket is empty.
  double MeanSizeAt(int bucket) const;

  // Calls visit(bucket, count, bytes) for each non-empty bucket, ascending.
  template <typename Visit>
  void ForEachBucket(Visit&& visit) const {
    if (first_.count > 0) {
      visit(first_.index, first_.count, first_.bytes);
    }
    for (const Bucket& b : more_) {
      if (b.count > 0) {
        visit(b.index, b.count, b.bytes);
      }
    }
  }

  bool empty() const { return total_count() == 0; }
  // Buckets held, empty ones included: at least as many as ForEachBucket
  // visits.
  size_t bucket_count() const { return (first_.index >= 0 ? 1 : 0) + more_.size(); }

  std::string ToString() const;

  friend bool operator==(const ExponentialHistogram& a,
                         const ExponentialHistogram& b) = default;

 private:
  struct Bucket {
    int index = -1;  // -1: no bucket (first_ of a histogram that holds none).
    uint64_t count = 0;
    uint64_t bytes = 0;
    friend bool operator==(const Bucket&, const Bucket&) = default;
  };

  // The lowest bucket, and the others ascending.
  Bucket first_;
  std::vector<Bucket> more_;

  Bucket& FindOrInsert(int bucket);
  const Bucket* Find(int bucket) const;
};

}  // namespace coign

#endif  // COIGN_SRC_SUPPORT_HISTOGRAM_H_
