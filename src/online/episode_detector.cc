#include "src/online/episode_detector.h"

namespace coign {
namespace {

// Absolute floor of the quarantine trigger: with a clean baseline, an
// epoch is quarantined when faulted calls / remote calls exceeds this.
constexpr double kFaultedFractionThreshold = 0.05;
// Trigger scales with the learned steady-state fault level:
//   fraction > threshold + multiplier * baseline  =>  quarantine.
constexpr double kBaselineMultiplier = 3.0;
// EWMA weight of the newest healthy epoch in the baselines. Quarantined
// epochs never update them.
constexpr double kBaselineAlpha = 0.3;
// Silent-degradation trigger: quarantine an epoch whose per-call latency
// or per-byte payload time exceeds this multiple of the healthy-epoch
// baseline, even when no individual call was marked faulted (a congested
// or re-routed wire slows everything without tripping the retry path).
constexpr double kSlowdownMultiplier = 3.0;

}  // namespace

FaultEpisodeDetector::Verdict FaultEpisodeDetector::Observe(
    const EpochHealthSample& epoch) {
  Verdict verdict;

  const double fraction =
      epoch.calls > 0 ? static_cast<double>(epoch.faulted_calls) /
                            static_cast<double>(epoch.calls)
                      : (epoch.faulted_calls > 0 ? 1.0 : 0.0);
  const double latency_per_call =
      epoch.calls > 0 ? epoch.latency_seconds / static_cast<double>(epoch.calls) : 0.0;
  const double payload_per_byte =
      epoch.wire_bytes > 0
          ? epoch.payload_seconds / static_cast<double>(epoch.wire_bytes)
          : 0.0;

  if (primed_) {
    // Visible faults: baseline-relative so steady background loss is the
    // network, not an episode.
    const double fraction_trigger =
        kFaultedFractionThreshold + kBaselineMultiplier * fraction_baseline_;
    if (fraction > fraction_trigger) {
      verdict.episode = Trigger::kFaultedFraction;
    } else if (latency_per_call_baseline_ > 0.0 &&
               latency_per_call > kSlowdownMultiplier * latency_per_call_baseline_) {
      verdict.episode = Trigger::kLatencySlowdown;
    } else if (payload_per_byte_baseline_ > 0.0 &&
               payload_per_byte > kSlowdownMultiplier * payload_per_byte_baseline_) {
      verdict.episode = Trigger::kPayloadSlowdown;
    }
  }

  if (verdict.episode != Trigger::kNone) {
    hold_remaining_ = config_.hold_epochs + 1;
  }
  if (hold_remaining_ > 0) {
    --hold_remaining_;
    verdict.quarantine = true;
    return verdict;
  }

  // Healthy epoch: absorb it. Rate baselines only move on epochs that
  // carried the corresponding traffic, so an idle epoch cannot drag the
  // per-call or per-byte baselines toward zero.
  if (!primed_) {
    fraction_baseline_ = fraction;
    latency_per_call_baseline_ = latency_per_call;
    payload_per_byte_baseline_ = payload_per_byte;
    primed_ = true;
    return verdict;
  }
  fraction_baseline_ =
      (1.0 - kBaselineAlpha) * fraction_baseline_ + kBaselineAlpha * fraction;
  if (epoch.calls > 0) {
    latency_per_call_baseline_ = (1.0 - kBaselineAlpha) * latency_per_call_baseline_ +
                                 kBaselineAlpha * latency_per_call;
  }
  if (epoch.wire_bytes > 0) {
    payload_per_byte_baseline_ = (1.0 - kBaselineAlpha) * payload_per_byte_baseline_ +
                                 kBaselineAlpha * payload_per_byte;
  }
  return verdict;
}

}  // namespace coign
