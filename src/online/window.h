// The sliding-window ICC accountant — the online half of the paper's §6
// future work. The lightweight runtime can count messages between
// components "with only slight additional overhead"; this window turns
// those counts into a decayed per-pair communication graph the analysis
// engine can re-cut while the application keeps running.
//
// Epoch-based exponential decay: Record() is O(1) into the current epoch's
// accumulator; AdvanceEpoch() folds the accumulator into the decayed window
// (window = decay * window + epoch) and prunes entries whose decayed weight
// has fallen below a floor (kPruneWeight, window.cc), so memory stays
// bounded no matter how long the application runs or how its usage wanders.

#ifndef COIGN_SRC_ONLINE_WINDOW_H_
#define COIGN_SRC_ONLINE_WINDOW_H_

#include <cstdint>
#include <unordered_map>

#include "src/profile/icc_profile.h"
#include "src/runtime/drift.h"

namespace coign {

struct WindowOptions {
  // Per-epoch retention of old traffic; 0 forgets instantly, 1 never
  // forgets. 0.5 gives an effective window of ~2 epochs.
  double decay = 0.5;
};

class SlidingWindowGraph {
 public:
  explicit SlidingWindowGraph(WindowOptions options = {}) : options_(options) {}

  // O(1) record path, called on every completed inter-component call.
  // `remotable` is the lightweight runtime's cheap check (interface
  // metadata + opaque-parameter scan); non-remotable calls force the
  // endpoints to stay colocated in any re-cut.
  void Record(const CallKey& key, uint64_t calls = 1, bool remotable = true);
  // Local compute attributed to a classification, decayed like call weight.
  void RecordCompute(ClassificationId id, double seconds);

  // Folds the current epoch into the decayed window and prunes.
  void AdvanceEpoch();

  // Throws the current epoch's accumulators away without folding or
  // decaying — the quarantine path for epochs measured during a detected
  // fault episode. The preserved window keeps describing the last healthy
  // traffic; the epoch still counts toward epoch_count().
  void DiscardEpoch();

  uint64_t epoch_count() const { return epochs_; }
  // Decayed total one-way message weight across the window (2 per call).
  double total_message_weight() const;
  // Decayed call weight of one key (current epoch excluded).
  double WeightOf(const CallKey& key) const;
  size_t tracked_keys() const { return window_.size(); }

  // The window as per-pair message counts (rounded), for DetectDrift.
  MessageCounts WindowMessageCounts() const;

  // Synthesizes an ICC profile describing the window's traffic, for
  // re-analysis. Byte sizes come from `base`: a call key the profiling
  // scenarios saw re-uses its profiled size histograms scaled to the
  // window's observed call weight; an unprofiled key is synthesized at
  // kUnprofiledMessageBytes (window.cc). Keys are included only when both
  // endpoint classifications carry metadata — from `base` or from
  // `live_classifications`, the registry of classifications first seen
  // during live execution (usage the profiling scenarios never covered).
  // The profile's tables are written in order: the base's classification
  // table merged with the live ones, and the window's keys sorted once and
  // walked beside the base's pair-major rows, so no key is looked up.
  IccProfile WindowedProfile(
      const IccProfile& base,
      const std::unordered_map<ClassificationId, ClassificationInfo>& live_classifications =
          {}) const;

  void Clear();

 private:
  struct Cell {
    double weight = 0.0;          // Decayed call count.
    double non_remotable = 0.0;   // Decayed non-remotable call count.
  };
  struct EpochCell {
    uint64_t calls = 0;
    uint64_t non_remotable = 0;
  };

  WindowOptions options_;
  std::unordered_map<CallKey, Cell, CallKeyHash> window_;
  std::unordered_map<CallKey, EpochCell, CallKeyHash> epoch_;
  std::unordered_map<ClassificationId, double> compute_window_;
  std::unordered_map<ClassificationId, double> compute_epoch_;
  uint64_t epochs_ = 0;
};

}  // namespace coign

#endif  // COIGN_SRC_ONLINE_WINDOW_H_
