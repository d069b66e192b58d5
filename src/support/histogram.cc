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
  if (first_.index < 0 || bucket == first_.index) {
    first_.index = bucket;
    return first_;
  }
  if (bucket < first_.index) {
    more_.insert(more_.begin(), first_);
    first_ = Bucket{bucket, 0, 0};
    return first_;
  }
  auto it = std::lower_bound(more_.begin(), more_.end(), bucket,
                             [](const Bucket& b, int index) { return b.index < index; });
  if (it == more_.end() || it->index != bucket) {
    it = more_.insert(it, Bucket{bucket, 0, 0});
  }
  return *it;
}

const ExponentialHistogram::Bucket* ExponentialHistogram::Find(int bucket) const {
  if (bucket == first_.index) {
    return &first_;
  }
  auto it = std::lower_bound(more_.begin(), more_.end(), bucket,
                             [](const Bucket& b, int index) { return b.index < index; });
  return it != more_.end() && it->index == bucket ? &*it : nullptr;
}

void ExponentialHistogram::Add(uint64_t bytes) {
  Bucket& b = FindOrInsert(BucketFor(bytes));
  b.count += 1;
  b.bytes += bytes;
}

void ExponentialHistogram::AddBucket(int bucket, uint64_t count, uint64_t bytes) {
  Bucket& b = FindOrInsert(bucket);
  b.count += count;
  b.bytes += bytes;
}

void ExponentialHistogram::Merge(const ExponentialHistogram& other) {
  const auto merge_one = [this](const Bucket& theirs) {
    if (theirs.index >= 0) {
      Bucket& mine = FindOrInsert(theirs.index);
      mine.count += theirs.count;
      mine.bytes += theirs.bytes;
    }
  };
  merge_one(other.first_);
  for (const Bucket& theirs : other.more_) {
    merge_one(theirs);
  }
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

std::string ExponentialHistogram::ToString() const {
  std::string out = StrFormat("hist{n=%llu, bytes=%llu",
                              static_cast<unsigned long long>(total_count()),
                              static_cast<unsigned long long>(total_bytes()));
  const auto print = [&out](const Bucket& b) {
    out += StrFormat(", [%llu+)=%llu", static_cast<unsigned long long>(BucketLowerBound(b.index)),
                     static_cast<unsigned long long>(b.count));
  };
  if (first_.index >= 0) {
    print(first_);
  }
  for (const Bucket& b : more_) {
    print(b);
  }
  out += "}";
  return out;
}

}  // namespace coign
