#include "src/online/window.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

namespace coign {
namespace {

// Decayed call weights below this are dropped at epoch boundaries.
constexpr double kPruneWeight = 0.01;
// Mean one-way bytes assumed for calls the profiling scenarios never saw
// (the lightweight runtime counts messages but cannot size them).
constexpr uint64_t kUnprofiledMessageBytes = 64;

// Scales a profiled histogram so its call count matches the window's
// decayed weight, preserving the profiled size distribution.
ExponentialHistogram ScaleHistogram(const ExponentialHistogram& h, double ratio) {
  ExponentialHistogram scaled;
  h.ForEachBucket([&scaled, ratio](int bucket, uint64_t count, uint64_t bytes) {
    const uint64_t scaled_count =
        static_cast<uint64_t>(std::llround(static_cast<double>(count) * ratio));
    const uint64_t scaled_bytes =
        static_cast<uint64_t>(std::llround(static_cast<double>(bytes) * ratio));
    if (scaled_count > 0) {
      scaled.AddBucket(bucket, scaled_count, scaled_bytes);
    }
  });
  return scaled;
}

template <typename Row>
bool ById(const Row& x, const Row& y) {
  return x.id < y.id;
}

}  // namespace

void SlidingWindowGraph::Record(const CallKey& key, uint64_t calls, bool remotable) {
  EpochCell& cell = epoch_[key];
  cell.calls += calls;
  if (!remotable) {
    cell.non_remotable += calls;
  }
}

void SlidingWindowGraph::RecordCompute(ClassificationId id, double seconds) {
  compute_epoch_[id] += seconds;
}

void SlidingWindowGraph::AdvanceEpoch() {
  ++epochs_;
  for (auto it = window_.begin(); it != window_.end();) {
    it->second.weight *= options_.decay;
    it->second.non_remotable *= options_.decay;
    if (it->second.weight < kPruneWeight &&
        epoch_.find(it->first) == epoch_.end()) {
      it = window_.erase(it);
    } else {
      ++it;
    }
  }
  for (const auto& [key, cell] : epoch_) {
    Cell& decayed = window_[key];
    decayed.weight += static_cast<double>(cell.calls);
    decayed.non_remotable += static_cast<double>(cell.non_remotable);
  }
  epoch_.clear();

  for (auto it = compute_window_.begin(); it != compute_window_.end();) {
    it->second *= options_.decay;
    if (it->second <= 0.0 && compute_epoch_.find(it->first) == compute_epoch_.end()) {
      it = compute_window_.erase(it);
    } else {
      ++it;
    }
  }
  for (const auto& [id, seconds] : compute_epoch_) {
    compute_window_[id] += seconds;
  }
  compute_epoch_.clear();
}

void SlidingWindowGraph::DiscardEpoch() {
  ++epochs_;
  epoch_.clear();
  compute_epoch_.clear();
}

double SlidingWindowGraph::total_message_weight() const {
  double total = 0.0;
  for (const auto& [key, cell] : window_) {
    total += 2.0 * cell.weight;  // Request + reply per call.
  }
  return total;
}

double SlidingWindowGraph::WeightOf(const CallKey& key) const {
  auto it = window_.find(key);
  return it == window_.end() ? 0.0 : it->second.weight;
}

MessageCounts SlidingWindowGraph::WindowMessageCounts() const {
  MessageCounts counts;
  for (const auto& [key, cell] : window_) {
    const uint64_t rounded = static_cast<uint64_t>(std::llround(cell.weight));
    if (rounded > 0) {
      counts.Record(key.src, key.dst, rounded);
    }
  }
  return counts;
}

IccProfile SlidingWindowGraph::WindowedProfile(
    const IccProfile& base,
    const std::unordered_map<ClassificationId, ClassificationInfo>& live_classifications)
    const {
  // The base's classifications, then the live-only ones merged in by id.
  std::vector<ClassificationInfo> classifications = base.classifications();
  const auto profiled_end = static_cast<std::ptrdiff_t>(classifications.size());
  for (const auto& [id, info] : live_classifications) {
    if (base.FindClassification(id) == nullptr) {
      classifications.push_back(info);
    }
  }
  std::sort(classifications.begin() + profiled_end, classifications.end(),
            ById<ClassificationInfo>);
  std::inplace_merge(classifications.begin(), classifications.begin() + profiled_end,
                     classifications.end(), ById<ClassificationInfo>);
  auto known = [&classifications](ClassificationId id) {
    return id == kNoClassification || FindById(classifications, id) != nullptr;
  };

  // The window's keys in pair-major order, walked beside the base's rows.
  struct Tracked {
    CallKey key;
    const Cell* cell;
  };
  std::vector<Tracked> tracked;
  tracked.reserve(window_.size());
  for (const auto& [key, cell] : window_) {
    if (cell.weight < kPruneWeight) {
      continue;
    }
    if (!known(key.src) || !known(key.dst)) {
      continue;  // No metadata to place these by; drift still sees them.
    }
    tracked.push_back(Tracked{key, &cell});
  }
  std::sort(tracked.begin(), tracked.end(), [](const Tracked& x, const Tracked& y) {
    return PairMajorLess(x.key, y.key);
  });
  std::vector<CallRecord> calls;
  calls.reserve(tracked.size());
  auto profiled = base.calls().begin();
  const auto profiled_calls_end = base.calls().end();
  for (const auto& [key, cell] : tracked) {
    while (profiled != profiled_calls_end && PairMajorLess(profiled->key, key)) {
      ++profiled;
    }
    // The live remotability observation is ground truth for both profiled
    // and unprofiled keys.
    const uint64_t non_remotable =
        static_cast<uint64_t>(std::llround(cell->non_remotable));
    if (profiled != profiled_calls_end && profiled->key == key &&
        profiled->summary.call_count() > 0) {
      const CallSummary& summary = profiled->summary;
      const double ratio = cell->weight / static_cast<double>(summary.call_count());
      calls.push_back(CallRecord{key, CallSummary{ScaleHistogram(summary.requests, ratio),
                                                  ScaleHistogram(summary.replies, ratio),
                                                  non_remotable}});
    } else {
      const uint64_t count = static_cast<uint64_t>(std::llround(cell->weight));
      if (count == 0) {
        continue;
      }
      ExponentialHistogram h;
      h.AddBucket(ExponentialHistogram::BucketFor(kUnprofiledMessageBytes), count,
                  count * kUnprofiledMessageBytes);
      calls.push_back(CallRecord{key, CallSummary{h, h, non_remotable}});
    }
  }

  std::vector<ComputeRecord> compute;
  for (const auto& [id, seconds] : compute_window_) {
    if (seconds > 0.0) {
      compute.push_back(ComputeRecord{id, seconds});
    }
  }
  std::sort(compute.begin(), compute.end(), ById<ComputeRecord>);
  return IccProfile(std::move(classifications), std::move(compute), std::move(calls));
}

void SlidingWindowGraph::Clear() {
  window_.clear();
  epoch_.clear();
  compute_window_.clear();
  compute_epoch_.clear();
  epochs_ = 0;
}

}  // namespace coign
