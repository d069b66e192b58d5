// The repartition policy: when the windowed communication graph says the
// current distribution is stale, decide whether moving is worth it.
//
// The framing is the rent-or-buy tradeoff of online balanced repartitioning
// (Avin et al.; Räcke/Schmid/Zabrodin): keep paying the communication
// penalty of the current cut ("rent") or pay a one-time state-transfer cost
// to migrate to the better cut ("buy"). We accept a proposed cut only when
// its modeled communication savings over a horizon of future windows exceed
// the modeled migration cost, and additionally gate on a minimum relative
// gain (hysteresis) plus a post-move cooldown so measurement noise cannot
// thrash instances back and forth.

#ifndef COIGN_SRC_ONLINE_POLICY_H_
#define COIGN_SRC_ONLINE_POLICY_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "src/analysis/engine.h"
#include "src/graph/distribution.h"
#include "src/net/network_profiler.h"
#include "src/profile/icc_profile.h"
#include "src/support/status.h"

namespace coign {

struct RepartitionConfig {
  // Modeled serialized state of one component instance; migrating an
  // instance ships this many bytes in one message over the network.
  uint64_t state_bytes_per_instance = 4096;
  // How many future windows the current window is assumed to represent
  // (the "rent" horizon of the rent-or-buy rule). Lazy adoption is modeled
  // as realizing the gain for horizon_windows - 1 windows (live instances
  // keep renting through the first); eager migration realizes all of them
  // but pays the state-transfer bill up front.
  double horizon_windows = 2.0;
  // Hysteresis: proposed cuts must beat the current distribution by at
  // least this fraction of its communication time.
  double min_relative_gain = 0.05;
  // Safety multiplier on the modeled migration cost (>= 1 biases toward
  // staying put, the competitive-analysis "rent longer" bias).
  double migration_safety = 1.0;
  // Below this much decayed window traffic, never repartition.
  double min_window_messages = 100.0;
};

// The quarantine rule: windows measured while the transport was visibly
// fighting faults are not evidence about the application. An epoch whose
// faulted-call fraction spikes above the steady-state level is discarded
// outright — it neither folds into the sliding window, nor updates the
// live network estimate, nor triggers a policy evaluation — and suspicion
// lingers for `hold_epochs` more epochs so a recut never keys off the
// tail of an episode. Without this rule, retry-inflated message weights
// and timeout-inflated latency estimates drive recuts that the
// post-episode network immediately invalidates: thrash.
//
// Detection is baseline-relative: an EWMA of healthy epochs' faulted
// fraction tracks the steady background fault level (which retries absorb
// and the live estimator prices in), and an epoch is quarantined only
// when its fraction exceeds `faulted_fraction_threshold` plus
// `baseline_multiplier` times that baseline. A lossy-but-steady link is
// the network, not an episode. Silent degradation — the wire slowing
// without any call being marked faulted — is screened the same way
// against per-call latency and per-byte payload baselines (the
// FaultEpisodeDetector in episode_detector.h implements the rule).
struct QuarantineConfig {
  bool enabled = true;
  // Absolute floor of the quarantine trigger: with a clean baseline, an
  // epoch is quarantined when faulted calls / remote calls exceeds this.
  double faulted_fraction_threshold = 0.05;
  // Trigger scales with the learned steady-state fault level:
  //   fraction > threshold + multiplier * baseline  =>  quarantine.
  double baseline_multiplier = 3.0;
  // EWMA weight of the newest healthy epoch in the faulted-fraction
  // baseline. Quarantined epochs never update the baseline.
  double baseline_alpha = 0.3;
  // Silent-degradation trigger: quarantine an epoch whose per-call latency
  // or per-byte payload time exceeds this multiple of the healthy-epoch
  // baseline, even when no individual call was marked faulted (a congested
  // or re-routed wire slows everything without tripping the retry path).
  double slowdown_multiplier = 3.0;
  // Extra epochs of distrust after the detector last fired.
  uint64_t hold_epochs = 1;
  // EWMA weight of the newest healthy epoch in the live network estimate.
  double estimator_alpha = 0.4;
};

enum class RejectCause {
  kNone,                  // Accepted.
  kEmptyWindow,           // Nothing observed.
  kInsufficientEvidence,  // Window below min_window_messages.
  kNoImprovement,         // Current distribution already optimal.
  kHysteresis,            // Gain below the relative-gain threshold.
  kMigrationCost,         // Rent-or-buy says keep renting.
};

struct RepartitionDecision {
  // Adopt the proposed distribution (component factories place future
  // instances per the new cut — free; the durable half of a repartition).
  bool adopt = false;
  // Additionally relocate live instances now, paying the state-transfer
  // bill. Implies adopt. False with adopt=true is the lazy path: live
  // instances keep renting the old cut until they are destroyed.
  bool migrate = false;
  RejectCause reject_cause = RejectCause::kNone;
  Distribution proposed;
  // Modeled communication seconds per window under each distribution.
  double current_seconds = 0.0;
  double proposed_seconds = 0.0;
  // Modeled one-time cost of moving the affected live instances.
  double migration_seconds = 0.0;
  uint64_t migration_bytes = 0;
  uint64_t instances_to_move = 0;
  // Why the decision came out the way it did, for reports.
  std::string reason;

  double gain_seconds() const { return current_seconds - proposed_seconds; }
};

class RepartitionPolicy {
 public:
  explicit RepartitionPolicy(RepartitionConfig config = {},
                             AnalysisOptions analysis_options = {})
      : config_(config), engine_(analysis_options) {}

  const RepartitionConfig& config() const { return config_; }

  // Re-cuts `windowed` against `network` and applies the rent-or-buy rule.
  // `live_instances` maps classifications to their live instance counts
  // (what migration would have to ship).
  Result<RepartitionDecision> Evaluate(
      const IccProfile& windowed, const NetworkProfile& network,
      const Distribution& current,
      const std::unordered_map<ClassificationId, uint64_t>& live_instances) const;

  // Cumulative min-cut work across this policy's evaluations (each one a
  // cold solve). The repartitioner samples these into the mincut.*
  // metrics counters.
  const MinCutSolveStats& cut_stats() const { return cut_session_.stats(); }

 private:
  RepartitionConfig config_;
  ProfileAnalysisEngine engine_;
  // Solver-work counters. The policy is evaluated from one thread (the
  // repartitioner's epoch loop); mutable keeps Evaluate const for callers
  // while the session sums work across epochs.
  mutable MinCutSession cut_session_;
};

}  // namespace coign

#endif  // COIGN_SRC_ONLINE_POLICY_H_
