// Usage-drift detection — the paper's §6 future-work mechanism, built out:
//
// "In the future, Coign could automatically decide when usage differs
// significantly from profiled scenarios and silently enable profiling to
// re-optimize the distribution. ... The lightweight version of the runtime
// ... could count messages between components with only slight additional
// overhead. Run time message counts could be compared with related message
// counts from the profiling scenarios to recognize changes in application
// usage."
//
// MessageCounts is the cheap per-pair counter the lightweight runtime
// maintains (no parameter walking, no byte measurement — just counts);
// DetectDrift compares it against the counts of the profile the
// distribution was chosen from (CountsFromProfile) and recommends
// re-profiling when the usage pattern diverges.

#ifndef COIGN_SRC_RUNTIME_DRIFT_H_
#define COIGN_SRC_RUNTIME_DRIFT_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/classify/descriptor.h"
#include "src/profile/icc_profile.h"

namespace coign {

class MessageCounts {
 public:
  void Record(ClassificationId src, ClassificationId dst, uint64_t messages = 1);

  uint64_t total_messages() const { return total_; }
  uint64_t CountOf(ClassificationId src, ClassificationId dst) const;

  const std::unordered_map<uint64_t, uint64_t>& pairs() const { return pairs_; }

  void Clear() {
    pairs_.clear();
    total_ = 0;
  }

  // Stable pair key (directionless).
  static uint64_t PairKeyOf(ClassificationId src, ClassificationId dst);

 private:
  std::unordered_map<uint64_t, uint64_t> pairs_;
  uint64_t total_ = 0;
};

// Extracts the profile's per-pair message counts in MessageCounts form.
MessageCounts CountsFromProfile(const IccProfile& profile);

struct DriftReport {
  // Cosine similarity between the normalized pair-count vectors; 1 means
  // the runtime communicates exactly like the profiling scenarios did.
  double similarity = 1.0;
  uint64_t observed_messages = 0;
  // Fraction of observed messages on pairs the profile never saw at all —
  // the strongest signal that the user is doing something new.
  double unprofiled_fraction = 0.0;
  bool reprofile_recommended = false;

  std::string ToString() const;
};

struct DriftOptions {
  // Below this many observed messages, no judgment is made.
  uint64_t min_messages = 100;
};

// Compares `observed` with `profiled`, the CountsFromProfile of the profile
// the distribution was chosen from, and recommends re-profiling when the
// similarity falls below kDriftSimilarityThreshold or the unprofiled
// fraction exceeds kDriftUnprofiledThreshold (drift.cc). A caller that
// judges many windows against one profile counts it once.
DriftReport DetectDrift(const MessageCounts& profiled, const MessageCounts& observed,
                        const DriftOptions& options = {});

}  // namespace coign

#endif  // COIGN_SRC_RUNTIME_DRIFT_H_
