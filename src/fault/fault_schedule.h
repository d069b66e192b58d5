// Declarative fault schedules for the simulated network.
//
// A FaultSchedule is a list of timed fault episodes over the run's
// simulated clock — latency spikes, bandwidth collapses, loss/duplication/
// reorder bursts, correlated Gilbert-Elliott loss regimes, transient
// partitions, and crash-restart of one machine — plus steady background
// loss rates. Episodes can target one machine and, within that, a single
// traffic direction (toward or away from it), so loss can be asymmetric
// the way real congested links are. Schedules are data: built explicitly
// from episodes, or generated from a seeded Rng so that an entire hostile
// scenario replays bit-for-bit from one integer. The FaultInjector
// (src/fault/injector) interprets a schedule against live traffic.

#ifndef COIGN_SRC_FAULT_FAULT_SCHEDULE_H_
#define COIGN_SRC_FAULT_FAULT_SCHEDULE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/com/types.h"
#include "src/support/rng.h"

namespace coign {

// Episode target: a specific machine, or all cross-machine traffic.
inline constexpr MachineId kAnyMachine = -1;

enum class FaultKind {
  kDropBurst,      // magnitude = drop probability during the episode.
  kDuplicateBurst, // magnitude = duplication probability.
  kReorderBurst,   // magnitude = reorder probability.
  kLatencySpike,   // magnitude = multiplier on the per-message time.
  kBandwidthDrop,  // magnitude = multiplier on the per-byte time.
  kPartition,      // traffic touching `machine` (or all) is undeliverable.
  kCrashRestart,   // machine is down; magnitude = restart penalty seconds.
  kGilbertElliott, // correlated two-state loss; params in `gilbert`.
  kCorruptBurst,   // payload bit flips, bursty via a Gilbert-Elliott chain:
                   // `gilbert` gates the good/bad alternation, loss_good /
                   // loss_bad are the per-attempt corrupt probabilities,
                   // magnitude mirrors loss_bad. Direction targeting picks
                   // which leg (request or reply) gets damaged.
};

std::string_view FaultKindName(FaultKind kind);

// Which traffic a machine-targeted episode covers. Only meaningful when
// the episode names a machine; kAnyMachine episodes always hit both ways.
enum class FaultDirection {
  kBoth,    // Any attempt touching the machine.
  kInbound, // Only attempts delivering *to* the machine (dst == machine).
  kOutbound,// Only attempts leaving the machine (src == machine).
};

// Gilbert-Elliott two-state loss chain: the wire alternates between a
// good state (rare loss) and a bad state (heavy loss); state transitions
// are drawn once per delivery attempt the episode covers, so loss is
// bursty and correlated rather than i.i.d. Each covered traffic
// direction advances its own chain, which is what makes a single episode
// asymmetric in practice even before direction targeting.
struct GilbertElliottParams {
  double p_good_to_bad = 0.05;
  double p_bad_to_good = 0.3;
  double loss_good = 0.01;
  double loss_bad = 0.6;
};

struct FaultEpisode {
  FaultKind kind = FaultKind::kDropBurst;
  double start_seconds = 0.0;
  double duration_seconds = 0.0;
  // Machine the episode targets (partitions/crashes); kAnyMachine hits all
  // cross-machine traffic.
  MachineId machine = kAnyMachine;
  // Probability for bursts, time multiplier for spikes, restart-penalty
  // seconds for crashes. For Gilbert-Elliott episodes this mirrors
  // `gilbert.loss_bad` so "strongest episode" comparisons stay meaningful.
  double magnitude = 1.0;
  // Direction filter for machine-targeted episodes (ignored otherwise).
  FaultDirection direction = FaultDirection::kBoth;
  // Chain parameters, used only by kGilbertElliott episodes.
  GilbertElliottParams gilbert;

  double end_seconds() const { return start_seconds + duration_seconds; }
  bool ActiveAt(double now) const {
    return now >= start_seconds && now < end_seconds();
  }
  // Whether traffic between src and dst is in this episode's blast radius.
  bool Covers(MachineId src, MachineId dst) const {
    if (machine == kAnyMachine) {
      return true;
    }
    if (machine != src && machine != dst) {
      return false;
    }
    switch (direction) {
      case FaultDirection::kBoth:
        return true;
      case FaultDirection::kInbound:
        return dst == machine;
      case FaultDirection::kOutbound:
        return src == machine;
    }
    return true;
  }
  std::string ToString() const;
};

// Steady, schedule-independent per-attempt fault probabilities — the
// background lossiness of the wire, active outside any episode too.
struct FaultRates {
  double drop = 0.0;
  double duplicate = 0.0;
  double reorder = 0.0;
};

// Knobs for seeded random schedule generation.
struct RandomFaultOptions {
  double horizon_seconds = 10.0;
  // Mean episode count per enabled kind (uniform on [0, 2*mean]).
  double episodes_per_kind = 1.0;
  // Episode lengths are Exponential(mean), clamped to a quarter horizon.
  double mean_duration_seconds = 0.5;
  // Magnitude ranges.
  double drop_burst_max = 0.4;
  double duplicate_burst_max = 0.25;
  double reorder_burst_max = 0.25;
  double latency_spike_max = 8.0;
  double bandwidth_drop_max = 6.0;
  double restart_penalty_seconds = 0.2;
  bool include_partitions = true;
  bool include_crashes = true;
  // Payload-corruption bursts (drawn after every older kind, same
  // seed-prefix rule as Gilbert-Elliott episodes).
  bool include_corrupt_bursts = true;
  double corrupt_burst_max = 0.6;
};

// A deterministic crash-storm: kCrashStormCrashes alternating
// crash-restart episodes on both machines, a horizon-spanning asymmetric
// Gilbert-Elliott loss regime, and a mid-run partition — the schedule
// migrations must survive.
inline constexpr int kCrashStormCrashes = 6;

struct CrashStormOptions {
  double horizon_seconds = 10.0;
  // > 0 adds per-direction payload-corruption regimes over the middle of
  // the horizon (bad-state corrupt probability; links heal before the
  // run ends, so breaker re-promotion is observable). 0 = no corruption,
  // which keeps legacy storm runs byte-identical.
  double corruption_rate = 0.0;
};

class FaultSchedule {
 public:
  FaultSchedule() = default;

  static FaultSchedule FromEpisodes(std::vector<FaultEpisode> episodes);
  // Generates a schedule from a seeded stream: same seed, same schedule.
  static FaultSchedule Random(const RandomFaultOptions& options, uint64_t seed);
  // Generates a crash-storm schedule (see CrashStormOptions).
  static FaultSchedule CrashStorm(const CrashStormOptions& options, uint64_t seed);

  const std::vector<FaultEpisode>& episodes() const { return episodes_; }
  bool empty() const { return episodes_.empty(); }

  // The strongest active episode of `kind` covering src->dst traffic at
  // `now`, or null. "Strongest" = largest magnitude, so overlapping spikes
  // degrade to the worst one rather than compounding unboundedly.
  const FaultEpisode* ActiveEpisode(FaultKind kind, double now, MachineId src,
                                    MachineId dst) const;
  // Any episode of any kind active at `now` (regardless of machines).
  bool AnyActiveAt(double now) const;
  // When the last episode ends (0 for an empty schedule).
  double HorizonSeconds() const;

  std::string ToString() const;

 private:
  std::vector<FaultEpisode> episodes_;  // Sorted by start time.
};

}  // namespace coign

#endif  // COIGN_SRC_FAULT_FAULT_SCHEDULE_H_
