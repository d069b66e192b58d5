#include "src/online/window.h"

#include <cmath>

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
  for (int bucket : h.NonEmptyBuckets()) {
    const uint64_t count =
        static_cast<uint64_t>(std::llround(static_cast<double>(h.CountAt(bucket)) * ratio));
    const uint64_t bytes =
        static_cast<uint64_t>(std::llround(static_cast<double>(h.BytesAt(bucket)) * ratio));
    if (count > 0) {
      scaled.AddBucket(bucket, count, bytes);
    }
  }
  return scaled;
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
  IccProfile windowed;
  for (const auto& [id, info] : base.classifications()) {
    windowed.RecordClassification(info);
  }
  for (const auto& [id, info] : live_classifications) {
    if (base.FindClassification(id) == nullptr) {
      windowed.RecordClassification(info);
    }
  }
  auto known = [&](ClassificationId id) {
    return id == kNoClassification || base.FindClassification(id) != nullptr ||
           live_classifications.find(id) != live_classifications.end();
  };
  for (const auto& [key, cell] : window_) {
    if (cell.weight < kPruneWeight) {
      continue;
    }
    if (!known(key.src) || !known(key.dst)) {
      continue;  // No metadata to place these by; drift still sees them.
    }
    // The live remotability observation is ground truth for both profiled
    // and unprofiled keys.
    const uint64_t non_remotable =
        static_cast<uint64_t>(std::llround(cell.non_remotable));
    auto it = base.calls().find(key);
    if (it != base.calls().end() && it->second.call_count() > 0) {
      const CallSummary& profiled = it->second;
      const double ratio = cell.weight / static_cast<double>(profiled.call_count());
      windowed.InjectCallSummary(key, ScaleHistogram(profiled.requests, ratio),
                                 ScaleHistogram(profiled.replies, ratio), non_remotable);
    } else {
      const uint64_t calls = static_cast<uint64_t>(std::llround(cell.weight));
      if (calls == 0) {
        continue;
      }
      ExponentialHistogram h;
      h.AddBucket(ExponentialHistogram::BucketFor(kUnprofiledMessageBytes), calls,
                  calls * kUnprofiledMessageBytes);
      windowed.InjectCallSummary(key, h, h, non_remotable);
    }
  }
  for (const auto& [id, seconds] : compute_window_) {
    if (seconds > 0.0) {
      windowed.RecordCompute(id, seconds);
    }
  }
  return windowed;
}

void SlidingWindowGraph::Clear() {
  window_.clear();
  epoch_.clear();
  compute_window_.clear();
  compute_epoch_.clear();
  epochs_ = 0;
}

}  // namespace coign
