#include "src/profile/icc_profile.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace coign {
namespace {

// Adds a known classification's counts: instance counts and allocation
// bytes add, API usage unions (a property of the class, so normally
// identical).
void Accumulate(ClassificationInfo* mine, const ClassificationInfo& theirs) {
  mine->api_usage |= theirs.api_usage;
  mine->instance_count += theirs.instance_count;
  mine->allocation_bytes += theirs.allocation_bytes;
}

// Merges two tables sorted by `less`, combining the rows of equal keys
// with `combine(mine, theirs)`.
template <typename Row, typename Less, typename Combine>
std::vector<Row> MergeSorted(const std::vector<Row>& a, const std::vector<Row>& b, Less less,
                             Combine combine) {
  std::vector<Row> out;
  out.reserve(a.size() + b.size());
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() || j < b.size()) {
    if (j == b.size() || (i < a.size() && less(a[i], b[j]))) {
      out.push_back(a[i++]);
    } else if (i == a.size() || less(b[j], a[i])) {
      out.push_back(b[j++]);
    } else {
      out.push_back(a[i++]);
      combine(&out.back(), b[j++]);
    }
  }
  return out;
}

template <typename Row>
bool ById(const Row& x, const Row& y) {
  return x.id < y.id;
}

}  // namespace

uint64_t ProfiledStateBytes(const ClassificationInfo* info, uint64_t fallback) {
  if (info == nullptr || info->allocation_bytes == 0 || info->instance_count == 0) {
    return fallback;
  }
  return std::max<uint64_t>(1, info->allocation_bytes / info->instance_count);
}

IccProfile::IccProfile(std::vector<ClassificationInfo> classifications,
                       std::vector<ComputeRecord> compute, std::vector<CallRecord> calls)
    : classifications_(std::move(classifications)),
      compute_(std::move(compute)),
      calls_(std::move(calls)) {
  assert(std::adjacent_find(classifications_.begin(), classifications_.end(),
                            [](const auto& x, const auto& y) { return !(x.id < y.id); }) ==
         classifications_.end());
  assert(std::adjacent_find(compute_.begin(), compute_.end(), [](const auto& x, const auto& y) {
           return !(x.id < y.id);
         }) == compute_.end());
  assert(std::adjacent_find(calls_.begin(), calls_.end(), [](const auto& x, const auto& y) {
           return !PairMajorLess(x.key, y.key);
         }) == calls_.end());
  for (const ComputeRecord& row : compute_) {
    total_compute_seconds_ += row.seconds;
  }
  for (const CallRecord& row : calls_) {
    total_calls_ += row.summary.requests.total_count();
    total_bytes_ += row.summary.total_bytes();
  }
}

const CallSummary* IccProfile::FindCall(const CallKey& key) const {
  auto it = std::lower_bound(
      calls_.begin(), calls_.end(), key,
      [](const CallRecord& row, const CallKey& x) { return PairMajorLess(row.key, x); });
  return it != calls_.end() && it->key == key ? &it->summary : nullptr;
}

double IccProfile::ComputeSecondsOf(ClassificationId id) const {
  auto it = std::lower_bound(compute_.begin(), compute_.end(), id,
                             [](const ComputeRecord& row, ClassificationId x) {
                               return row.id < x;
                             });
  return it != compute_.end() && it->id == id ? it->seconds : 0.0;
}

std::vector<ClassificationId> IccProfile::SortedClassificationIds() const {
  std::vector<ClassificationId> ids;
  ids.reserve(classifications_.size());
  for (const ClassificationInfo& info : classifications_) {
    ids.push_back(info.id);
  }
  return ids;
}

void IccProfile::Merge(const IccProfile& other) {
  *this = IccProfile(
      MergeSorted(classifications_, other.classifications_, ById<ClassificationInfo>,
                  Accumulate),
      MergeSorted(compute_, other.compute_, ById<ComputeRecord>,
                  [](ComputeRecord* mine, const ComputeRecord& theirs) {
                    mine->seconds += theirs.seconds;
                  }),
      MergeSorted(calls_, other.calls_,
                  [](const CallRecord& x, const CallRecord& y) {
                    return PairMajorLess(x.key, y.key);
                  },
                  [](CallRecord* mine, const CallRecord& theirs) {
                    mine->summary.Merge(theirs.summary);
                  }));
}

void IccProfileBuilder::RecordClassification(const ClassificationInfo& info) {
  auto [it, inserted] = classifications_.emplace(info.id, info);
  if (!inserted) {
    Accumulate(&it->second, info);
  }
}

void IccProfileBuilder::RecordInstantiation(ClassificationId id) {
  auto it = classifications_.find(id);
  if (it != classifications_.end()) {
    it->second.instance_count += 1;
  }
}

void IccProfileBuilder::RecordCall(const CallKey& key, uint64_t request_bytes,
                                   uint64_t reply_bytes, bool remotable) {
  CallSummary& summary = calls_[key];
  summary.requests.Add(request_bytes);
  summary.replies.Add(reply_bytes);
  if (!remotable) {
    summary.non_remotable_calls += 1;
  }
}

void IccProfileBuilder::InjectCallSummary(const CallKey& key,
                                          const ExponentialHistogram& requests,
                                          const ExponentialHistogram& replies,
                                          uint64_t non_remotable_calls) {
  CallSummary& summary = calls_[key];
  summary.requests.Merge(requests);
  summary.replies.Merge(replies);
  summary.non_remotable_calls += non_remotable_calls;
}

void IccProfileBuilder::RecordAllocation(ClassificationId id, uint64_t bytes) {
  auto it = classifications_.find(id);
  if (it != classifications_.end()) {
    it->second.allocation_bytes += bytes;
  }
}

void IccProfileBuilder::RecordCompute(ClassificationId id, double seconds) {
  compute_[id] += seconds;
}

const ClassificationInfo* IccProfileBuilder::FindClassification(ClassificationId id) const {
  auto it = classifications_.find(id);
  return it == classifications_.end() ? nullptr : &it->second;
}

IccProfile IccProfileBuilder::Build() const {
  std::vector<ClassificationInfo> classifications;
  classifications.reserve(classifications_.size());
  for (const auto& [id, info] : classifications_) {
    classifications.push_back(info);
  }
  std::sort(classifications.begin(), classifications.end(), ById<ClassificationInfo>);

  std::vector<ComputeRecord> compute;
  compute.reserve(compute_.size());
  for (const auto& [id, seconds] : compute_) {
    compute.push_back(ComputeRecord{id, seconds});
  }
  std::sort(compute.begin(), compute.end(), ById<ComputeRecord>);

  // Sort pointers to the entries, then copy each entry once.
  std::vector<const std::pair<const CallKey, CallSummary>*> order;
  order.reserve(calls_.size());
  for (const auto& entry : calls_) {
    order.push_back(&entry);
  }
  std::sort(order.begin(), order.end(),
            [](const auto* x, const auto* y) { return PairMajorLess(x->first, y->first); });
  std::vector<CallRecord> calls;
  calls.reserve(order.size());
  for (const auto* entry : order) {
    calls.push_back(CallRecord{entry->first, entry->second});
  }
  return IccProfile(std::move(classifications), std::move(compute), std::move(calls));
}

}  // namespace coign
