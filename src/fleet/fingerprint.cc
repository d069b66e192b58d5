#include "src/fleet/fingerprint.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <string_view>
#include <vector>

namespace coign {
namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

void Fold(uint64_t* hash, const void* data, size_t size) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    *hash ^= bytes[i];
    *hash *= kFnvPrime;
  }
}

void FoldU64(uint64_t* hash, uint64_t value) { Fold(hash, &value, sizeof(value)); }

void FoldDouble(uint64_t* hash, double value) {
  FoldU64(hash, std::bit_cast<uint64_t>(value));
}

void FoldString(uint64_t* hash, std::string_view text) {
  FoldU64(hash, text.size());
  Fold(hash, text.data(), text.size());
}

void FoldHistogram(uint64_t* hash, const ExponentialHistogram& histogram) {
  histogram.ForEachBucket([hash](int bucket, uint64_t count, uint64_t bytes) {
    FoldU64(hash, static_cast<uint64_t>(static_cast<int64_t>(bucket)));
    FoldU64(hash, count);
    FoldU64(hash, bytes);
  });
  FoldU64(hash, histogram.total_count());
  FoldU64(hash, histogram.total_bytes());
}

}  // namespace

uint64_t ProfileFingerprint(const IccProfile& profile) {
  uint64_t hash = kFnvOffset;

  for (const ClassificationInfo& info : profile.classifications()) {
    FoldU64(&hash, info.id);
    FoldU64(&hash, info.clsid.hi);
    FoldU64(&hash, info.clsid.lo);
    FoldU64(&hash, info.api_usage);
    FoldU64(&hash, info.instance_count);
    FoldString(&hash, info.class_name);
    FoldDouble(&hash, profile.ComputeSecondsOf(info.id));
  }

  // Folded in (src, dst, iid, method) order, not the profile's pair-major
  // order: the fingerprints `coign fleet` prints are pinned to it.
  std::vector<const CallRecord*> calls;
  calls.reserve(profile.calls().size());
  for (const CallRecord& row : profile.calls()) {
    calls.push_back(&row);
  }
  std::sort(calls.begin(), calls.end(), [](const CallRecord* a, const CallRecord* b) {
    const CallKey& x = a->key;
    const CallKey& y = b->key;
    return std::tie(x.src, x.dst, x.iid.hi, x.iid.lo, x.method) <
           std::tie(y.src, y.dst, y.iid.hi, y.iid.lo, y.method);
  });
  for (const CallRecord* row : calls) {
    const CallKey& key = row->key;
    FoldU64(&hash, key.src);
    FoldU64(&hash, key.dst);
    FoldU64(&hash, key.iid.hi);
    FoldU64(&hash, key.iid.lo);
    FoldU64(&hash, key.method);
    FoldU64(&hash, row->summary.non_remotable_calls);
    FoldHistogram(&hash, row->summary.requests);
    FoldHistogram(&hash, row->summary.replies);
  }
  return hash;
}

}  // namespace coign
