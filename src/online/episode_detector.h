// The baseline-relative fault-episode detector behind the quarantine rule.
//
// Each epoch the repartitioner hands the detector that epoch's transport
// health delta. The detector maintains EWMA baselines of healthy epochs —
// the faulted-call fraction, the per-call latency, and the per-byte
// payload time — and declares an episode when the epoch stands out against
// any of them:
//   - faulted fraction  > threshold + multiplier * fraction baseline
//     (visible faults: drops, timeouts, duplicates, scaled attempts);
//   - per-call latency  > kSlowdownMultiplier * latency baseline, or
//   - per-byte payload  > kSlowdownMultiplier * payload baseline
//     (silent degradation: the wire got slower without a single call
//     being marked faulted — a congested link, a re-routed path).
// Quarantined epochs never update any baseline, so a long episode cannot
// teach the detector that broken is normal; a lossy-but-steady or
// slow-but-steady link raises the baselines and stops looking like an
// episode.

#ifndef COIGN_SRC_ONLINE_EPISODE_DETECTOR_H_
#define COIGN_SRC_ONLINE_EPISODE_DETECTOR_H_

#include <cstdint>

#include "src/online/policy.h"

namespace coign {

// One epoch's transport activity, as deltas of TransportHealth counters.
struct EpochHealthSample {
  uint64_t calls = 0;
  uint64_t faulted_calls = 0;
  uint64_t wire_bytes = 0;
  double latency_seconds = 0.0;  // Message-count-proportional time.
  double payload_seconds = 0.0;  // Byte-proportional time.
};

class FaultEpisodeDetector {
 public:
  enum class Trigger {
    kNone,
    kFaultedFraction,
    kLatencySlowdown,
    kPayloadSlowdown,
  };

  struct Verdict {
    // A fresh episode was declared this epoch (counts toward
    // OnlineStats::fault_episodes).
    Trigger episode = Trigger::kNone;
    // Discard this epoch's evidence (fresh episode or hold tail).
    bool quarantine = false;
  };

  explicit FaultEpisodeDetector(QuarantineConfig config) : config_(config) {}

  // Judges one epoch and, when it is healthy, absorbs it into the
  // baselines. The first observed epoch primes the baselines and is never
  // quarantined — there is nothing yet to be relative to.
  Verdict Observe(const EpochHealthSample& epoch);

  // Healthy-epoch baselines, exposed for reports and tests.
  double fraction_baseline() const { return fraction_baseline_; }
  double latency_baseline() const { return latency_per_call_baseline_; }
  double payload_baseline() const { return payload_per_byte_baseline_; }

 private:
  QuarantineConfig config_;
  uint64_t hold_remaining_ = 0;
  double fraction_baseline_ = 0.0;
  double latency_per_call_baseline_ = 0.0;
  double payload_per_byte_baseline_ = 0.0;
  bool primed_ = false;
};

}  // namespace coign

#endif  // COIGN_SRC_ONLINE_EPISODE_DETECTOR_H_
