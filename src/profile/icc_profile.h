// The inter-component communication (ICC) profile — what scenario-based
// profiling produces and the analysis engine consumes.
//
// Communication is summarized per (source classification, destination
// classification, interface, method) into exponential size-range histograms
// (paper §3.3), keeping the profile network-independent and bounded in
// size. Per-classification metadata (class, API usage, instance counts)
// feeds the constraint system. Profiles from multiple scenario executions
// merge associatively.
//
// A profile is three flat tables sorted once: classifications and compute
// seconds by id, and call summaries in pair-major order (PairMajorLess),
// so every call key of one classification pair is adjacent and the
// abstract graph folds them in one pass. It holds no hash table: the
// profiling logger records into an IccProfileBuilder, which sorts once
// when it hands a profile out, while the log parser (log_file.h) and the
// online window (SlidingWindowGraph::WindowedProfile) write rows already
// in order.

#ifndef COIGN_SRC_PROFILE_ICC_PROFILE_H_
#define COIGN_SRC_PROFILE_ICC_PROFILE_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "src/classify/descriptor.h"
#include "src/com/types.h"
#include "src/support/histogram.h"
#include "src/support/status.h"

namespace coign {

struct ClassificationInfo {
  ClassificationId id = kNoClassification;
  ClassId clsid;
  std::string class_name;
  uint32_t api_usage = 0;       // ApiUsage bitmask of the class.
  uint64_t instance_count = 0;  // Instances seen across profiled executions.
  // State bytes components of this classification allocated across
  // profiled executions (ChargeAllocation during scenarios). Divided by
  // instance_count it yields the mean serialized-state estimate migration
  // pricing uses in place of the flat per-instance constant.
  uint64_t allocation_bytes = 0;
};

// Mean per-instance profiled state size of a classification, or `fallback`
// for classifications never profiled (or never observed allocating).
// Shared by the repartition policy (pricing a prospective migration) and
// the live migrator (billing the actual copies) so both sides of the
// rent-or-buy rule price the same bytes.
uint64_t ProfiledStateBytes(const ClassificationInfo* info, uint64_t fallback);

// Histogram pair for one (src, dst, iid, method) key.
struct CallSummary {
  ExponentialHistogram requests;
  ExponentialHistogram replies;
  uint64_t non_remotable_calls = 0;

  uint64_t call_count() const { return requests.total_count(); }
  uint64_t total_bytes() const { return requests.total_bytes() + replies.total_bytes(); }

  void Merge(const CallSummary& other) {
    requests.Merge(other.requests);
    replies.Merge(other.replies);
    non_remotable_calls += other.non_remotable_calls;
  }
};

struct CallKey {
  ClassificationId src = kNoClassification;  // kNoClassification = driver.
  ClassificationId dst = kNoClassification;
  InterfaceId iid;
  MethodIndex method = 0;

  friend bool operator==(const CallKey&, const CallKey&) = default;
};

struct CallKeyHash {
  size_t operator()(const CallKey& k) const {
    uint64_t h = k.src;
    h = h * 0x9e3779b97f4a7c15ull + k.dst;
    h = h * 0x9e3779b97f4a7c15ull + k.iid.hi;
    h = h * 0x9e3779b97f4a7c15ull + k.iid.lo;
    h = h * 0x9e3779b97f4a7c15ull + k.method;
    return static_cast<size_t>(h);
  }
};

// Pair-major order: by the unordered classification pair (lower id, then
// higher), then source, interface and method. Both directions of a pair
// are adjacent, and pairs come in the abstract graph's edge order.
inline bool PairMajorLess(const CallKey& x, const CallKey& y) {
  const ClassificationId x_low = std::min(x.src, x.dst);
  const ClassificationId y_low = std::min(y.src, y.dst);
  if (x_low != y_low) {
    return x_low < y_low;
  }
  const ClassificationId x_high = std::max(x.src, x.dst);
  const ClassificationId y_high = std::max(y.src, y.dst);
  if (x_high != y_high) {
    return x_high < y_high;
  }
  return std::tie(x.src, x.iid, x.method) < std::tie(y.src, y.iid, y.method);
}

// One row of the call table.
struct CallRecord {
  CallKey key;
  CallSummary summary;
};

// Local compute observed during profiling, attributed to the callee
// classification; feeds the execution-time prediction model.
struct ComputeRecord {
  ClassificationId id = kNoClassification;
  double seconds = 0.0;
};

// The row of `id` in a classification table sorted by id, or null. Tries
// row `id` first: the classifier numbers classifications densely from 0.
template <typename Table>  // A const or mutable std::vector<ClassificationInfo>.
auto FindById(Table& table, ClassificationId id) -> decltype(table.data()) {
  if (id < table.size() && table[id].id == id) {
    return &table[id];
  }
  auto it = std::lower_bound(
      table.begin(), table.end(), id,
      [](const ClassificationInfo& row, ClassificationId x) { return row.id < x; });
  return it != table.end() && it->id == id ? &*it : nullptr;
}

class IccProfile {
 public:
  IccProfile() = default;
  // A profile of tables already in order: classifications and compute
  // seconds by strictly ascending id, calls by strictly ascending key in
  // pair-major order. Every total is the sum over its table, in that
  // order.
  IccProfile(std::vector<ClassificationInfo> classifications, std::vector<ComputeRecord> compute,
             std::vector<CallRecord> calls);

  // Classifications by ascending id.
  const std::vector<ClassificationInfo>& classifications() const { return classifications_; }
  // Compute seconds by ascending id; ids need not be classifications.
  const std::vector<ComputeRecord>& compute() const { return compute_; }
  // Call summaries in pair-major order, one per key.
  const std::vector<CallRecord>& calls() const { return calls_; }

  const ClassificationInfo* FindClassification(ClassificationId id) const {
    return FindById(classifications_, id);
  }
  // Binary search in pair-major order; null for an unrecorded key.
  const CallSummary* FindCall(const CallKey& key) const;

  double total_compute_seconds() const { return total_compute_seconds_; }
  double ComputeSecondsOf(ClassificationId id) const;

  uint64_t total_calls() const { return total_calls_; }
  uint64_t total_bytes() const { return total_bytes_; }

  // Classifications sorted by id, for deterministic iteration.
  std::vector<ClassificationId> SortedClassificationIds() const;

  // "Log files from multiple profiling scenarios may be combined and
  // summarized during later analysis." One merge of the sorted tables;
  // a known classification adds its counts as
  // IccProfileBuilder::RecordClassification does.
  void Merge(const IccProfile& other);

  bool empty() const { return calls_.empty() && classifications_.empty(); }

 private:
  std::vector<ClassificationInfo> classifications_;
  std::vector<ComputeRecord> compute_;
  std::vector<CallRecord> calls_;
  double total_compute_seconds_ = 0.0;
  uint64_t total_calls_ = 0;
  uint64_t total_bytes_ = 0;
};

// Records a profile in any order (the profiling logger and test fixtures)
// into hash tables, sorted once by Build.
class IccProfileBuilder {
 public:
  // Adds a classification's metadata. A known id adds its instance count
  // and allocation bytes and unions its API usage (a property of the
  // class, so normally identical).
  void RecordClassification(const ClassificationInfo& info);
  // No-op for unknown classifications.
  void RecordInstantiation(ClassificationId id);
  void RecordCall(const CallKey& key, uint64_t request_bytes, uint64_t reply_bytes,
                  bool remotable);
  void RecordCompute(ClassificationId id, double seconds);
  // Component state allocation observed during profiling, attributed to
  // the allocating classification; feeds migration state-size estimates.
  // No-op for unknown classifications (mirrors RecordInstantiation).
  void RecordAllocation(ClassificationId id, uint64_t bytes);
  // Adds pre-summarized histograms to a key.
  void InjectCallSummary(const CallKey& key, const ExponentialHistogram& requests,
                         const ExponentialHistogram& replies, uint64_t non_remotable_calls);

  const ClassificationInfo* FindClassification(ClassificationId id) const;

  // The recorded profile, its tables sorted.
  IccProfile Build() const;

 private:
  std::unordered_map<ClassificationId, ClassificationInfo> classifications_;
  std::unordered_map<ClassificationId, double> compute_;
  std::unordered_map<CallKey, CallSummary, CallKeyHash> calls_;
};

}  // namespace coign

#endif  // COIGN_SRC_PROFILE_ICC_PROFILE_H_
