#include "src/online/policy.h"

#include "src/analysis/prediction.h"
#include "src/support/str_util.h"

namespace coign {
namespace {

// Safety multiplier on the modeled migration cost (>= 1 biases toward
// staying put, the competitive-analysis "rent longer" bias).
constexpr double kMigrationSafety = 1.0;

}  // namespace

Result<RepartitionDecision> RepartitionPolicy::Evaluate(
    const IccProfile& windowed, const NetworkProfile& network, const Distribution& current,
    const std::unordered_map<ClassificationId, uint64_t>& live_instances) const {
  RepartitionDecision decision;
  decision.proposed = current;

  if (windowed.empty()) {
    decision.reject_cause = RejectCause::kEmptyWindow;
    decision.reason = "empty window";
    return decision;
  }
  const double window_messages = 2.0 * static_cast<double>(windowed.total_calls());
  if (window_messages < config_.min_window_messages) {
    decision.reject_cause = RejectCause::kInsufficientEvidence;
    decision.reason = StrFormat("insufficient evidence (%.0f messages in window)",
                                window_messages);
    return decision;
  }

  Result<AnalysisResult> analysis = engine_.Analyze(windowed, network, &cut_session_);
  if (!analysis.ok()) {
    return analysis.status();
  }

  // Classifications with no traffic in the window are disconnected nodes in
  // the cut graph — the min cut places them arbitrarily. No evidence means
  // no move: they keep their current placement (the rent-or-buy rule never
  // buys without demand). Without this, a text-only window would silently
  // re-home every idle table component, and the next table phase would pay
  // catastrophically.
  std::unordered_set<ClassificationId> active;
  for (const auto& [key, summary] : windowed.calls()) {
    active.insert(key.src);
    active.insert(key.dst);
  }
  decision.proposed = analysis->distribution;
  for (auto& [id, machine] : decision.proposed.placement) {
    if (active.find(id) == active.end()) {
      machine = current.MachineFor(id);
    }
  }
  decision.current_seconds = PredictCommunicationSeconds(windowed, current, network);
  decision.proposed_seconds =
      PredictCommunicationSeconds(windowed, analysis->distribution, network);

  // Migration bill: every live instance whose classification changes sides
  // ships its state in one message. State size comes from profiled
  // allocations when the window recorded any; the configured flat size is
  // only the fallback for classifications that never charged an allocation.
  for (const auto& [id, count] : live_instances) {
    if (count == 0) {
      continue;
    }
    if (decision.proposed.MachineFor(id) != current.MachineFor(id)) {
      const uint64_t state_bytes = ProfiledStateBytes(
          windowed.FindClassification(id), config_.state_bytes_per_instance);
      decision.instances_to_move += count;
      decision.migration_bytes += count * state_bytes;
      decision.migration_seconds +=
          static_cast<double>(count) * network.TrafficSeconds(1, state_bytes);
    }
  }

  const double gain = decision.gain_seconds();
  if (gain <= 0.0) {
    decision.reject_cause = RejectCause::kNoImprovement;
    decision.reason = "current distribution already optimal for window";
    return decision;
  }
  if (decision.current_seconds > 0.0 &&
      gain / decision.current_seconds < config_.min_relative_gain) {
    decision.reject_cause = RejectCause::kHysteresis;
    decision.reason = StrFormat("hysteresis: relative gain %.1f%% below %.1f%% threshold",
                                100.0 * gain / decision.current_seconds,
                                100.0 * config_.min_relative_gain);
    return decision;
  }
  // Rent-or-buy over two ways of buying: migrate now (every window of the
  // horizon runs on the new cut, minus the state-transfer bill) or adopt
  // lazily (live instances rent the old cut through the first window; only
  // later windows — fresh instances placed by the factories — gain).
  const double buy_cost = decision.migration_seconds * kMigrationSafety;
  const double migrate_net = gain * config_.horizon_windows - buy_cost;
  const double adopt_net = gain * (config_.horizon_windows - 1.0);
  if (migrate_net <= 0.0 && adopt_net <= 0.0) {
    decision.reject_cause = RejectCause::kMigrationCost;
    decision.reason =
        StrFormat("keep renting: horizon gain %.4fs under move cost %.4fs",
                  gain * config_.horizon_windows, buy_cost);
    return decision;
  }

  decision.adopt = true;
  if (migrate_net > adopt_net) {
    decision.migrate = true;
    decision.reason = StrFormat(
        "repartition: window gain %.4fs/window over horizon %.1f beats move cost %.4fs",
        gain, config_.horizon_windows, buy_cost);
  } else {
    decision.reason = StrFormat(
        "adopt lazily: gain %.4fs/window, move cost %.4fs not worth paying up front",
        gain, buy_cost);
  }
  return decision;
}

}  // namespace coign
