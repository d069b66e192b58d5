#include "src/support/histogram.h"

#include <algorithm>
#include <bit>

#include "src/support/str_util.h"

namespace coign {

int ExponentialHistogram::BucketFor(uint64_t bytes) {
  if (bytes <= 1) {
    return 0;
  }
  const int bucket = 63 - std::countl_zero(bytes);
  return std::min(bucket, kMaxBucket);
}

uint64_t ExponentialHistogram::BucketLowerBound(int bucket) {
  if (bucket <= 0) {
    return 0;
  }
  return uint64_t{1} << bucket;
}

bool ExponentialHistogram::CanHold(int bucket, uint64_t count, uint64_t bytes) {
  if (bucket < 0 || bucket > kMaxBucket) {
    return false;
  }
  if (bucket == 0) {
    return bytes <= count;
  }
  // count * 2^b <= bytes.
  if ((bytes >> bucket) < count) {
    return false;
  }
  if (bucket == kMaxBucket) {
    return true;
  }
  // bytes <= count * (2^(b+1) - 1), as ceil(bytes / largest) <= count.
  const uint64_t largest = (uint64_t{2} << bucket) - 1;
  return bytes / largest + (bytes % largest != 0 ? 1 : 0) <= count;
}

ExponentialHistogram::Bucket& ExponentialHistogram::FindOrInsert(int bucket) {
  auto it = std::lower_bound(
      buckets_.begin(), buckets_.end(), bucket,
      [](const auto& entry, int b) { return entry.first < b; });
  if (it == buckets_.end() || it->first != bucket) {
    it = buckets_.insert(it, {bucket, Bucket{}});
  }
  return it->second;
}

const ExponentialHistogram::Bucket* ExponentialHistogram::Find(int bucket) const {
  auto it = std::lower_bound(
      buckets_.begin(), buckets_.end(), bucket,
      [](const auto& entry, int b) { return entry.first < b; });
  if (it == buckets_.end() || it->first != bucket) {
    return nullptr;
  }
  return &it->second;
}

void ExponentialHistogram::Add(uint64_t bytes) {
  Bucket& b = FindOrInsert(BucketFor(bytes));
  b.count += 1;
  b.bytes += bytes;
  total_count_ += 1;
  total_bytes_ += bytes;
}

void ExponentialHistogram::AddBucket(int bucket, uint64_t count, uint64_t bytes) {
  Bucket& b = FindOrInsert(bucket);
  b.count += count;
  b.bytes += bytes;
  total_count_ += count;
  total_bytes_ += bytes;
}

void ExponentialHistogram::Merge(const ExponentialHistogram& other) {
  for (const auto& [index, bucket] : other.buckets_) {
    Bucket& mine = FindOrInsert(index);
    mine.count += bucket.count;
    mine.bytes += bucket.bytes;
  }
  total_count_ += other.total_count_;
  total_bytes_ += other.total_bytes_;
}

uint64_t ExponentialHistogram::CountAt(int bucket) const {
  const Bucket* b = Find(bucket);
  return b != nullptr ? b->count : 0;
}

uint64_t ExponentialHistogram::BytesAt(int bucket) const {
  const Bucket* b = Find(bucket);
  return b != nullptr ? b->bytes : 0;
}

double ExponentialHistogram::MeanSizeAt(int bucket) const {
  const Bucket* b = Find(bucket);
  if (b == nullptr || b->count == 0) {
    return 0.0;
  }
  return static_cast<double>(b->bytes) / static_cast<double>(b->count);
}

std::vector<int> ExponentialHistogram::NonEmptyBuckets() const {
  std::vector<int> out;
  out.reserve(buckets_.size());
  for (const auto& [index, bucket] : buckets_) {
    if (bucket.count > 0) {
      out.push_back(index);
    }
  }
  return out;
}

std::string ExponentialHistogram::ToString() const {
  std::string out = StrFormat("hist{n=%llu, bytes=%llu",
                              static_cast<unsigned long long>(total_count_),
                              static_cast<unsigned long long>(total_bytes_));
  for (const auto& [index, bucket] : buckets_) {
    out += StrFormat(", [%llu+)=%llu",
                     static_cast<unsigned long long>(BucketLowerBound(index)),
                     static_cast<unsigned long long>(bucket.count));
  }
  out += "}";
  return out;
}

}  // namespace coign
