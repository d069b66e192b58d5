// The per-link circuit breaker behind the repartitioner's safe mode.
//
// Quarantine (episode_detector.h) protects the *evidence*: a faulted epoch
// must not teach the estimator or the window. The breaker protects the
// *plan*: when the wire itself has become untrustworthy — retry budgets
// exhausting, checksummed deliveries bouncing — continuing to run a
// distributed cut means every remote call gambles on a poisoned link. The
// breaker watches the same per-epoch transport-health deltas and runs the
// classic three-state machine:
//
//   closed    normal operation; `trip_after` consecutive bad epochs open it.
//   open      the link is presumed sick for `open_epochs` epoch boundaries;
//             the repartitioner degrades to the all-local plan (zero remote
//             ICC — the one cut that is always realizable) for the duration.
//   half-open the hold expired; one probe round decides. A healthy probe
//             closes the breaker (the distributed plan is re-promoted); a
//             failed probe re-opens it with the hold doubled, up to
//             `max_open_epochs` — flapping links buy geometrically longer
//             quiet periods.
//
// Everything is driven by the simulated epoch clock and the caller's probe
// verdicts; the breaker itself draws no randomness, so same seed means the
// same trip/probe/close sequence.

#ifndef COIGN_SRC_ONLINE_CIRCUIT_BREAKER_H_
#define COIGN_SRC_ONLINE_CIRCUIT_BREAKER_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace coign {

// An epoch votes "bad" when its undelivered or corrupt-rejected fraction
// of calls crosses a threshold, and epochs with too few calls cast no
// vote (kUndeliveredThreshold, kCorruptThreshold and kMinCalls in
// circuit_breaker.cc).
struct BreakerConfig {
  bool enabled = false;
  // Consecutive bad epochs before the breaker opens.
  int trip_after = 2;
  // Epoch boundaries the breaker holds open before probing; doubles on
  // every failed probe, capped at max_open_epochs.
  uint64_t open_epochs = 2;
  uint64_t max_open_epochs = 16;
};

enum class BreakerState { kClosed, kOpen, kHalfOpen };

std::string_view BreakerStateName(BreakerState state);

// One epoch's wire evidence, as deltas of TransportHealth counters.
struct BreakerSample {
  uint64_t calls = 0;
  uint64_t undelivered = 0;
  uint64_t corrupt_rejected = 0;
};

class CircuitBreaker {
 public:
  explicit CircuitBreaker(BreakerConfig config) : config_(config) {}

  // Advances one epoch boundary with that epoch's evidence. In the closed
  // state bad epochs accumulate toward a trip; in the open state the hold
  // counts down and expiry moves to half-open. Call once per epoch, then
  // check WantsProbe().
  void Observe(const BreakerSample& epoch);

  // True in the half-open state: the caller should run a probe round and
  // report the verdict.
  bool WantsProbe() const { return state_ == BreakerState::kHalfOpen; }

  // Half-open probe verdict: healthy closes the breaker and resets the
  // hold; unhealthy re-opens with the hold doubled (capped).
  void OnProbeResult(bool healthy);

  BreakerState state() const { return state_; }
  uint64_t trips() const { return trips_; }          // closed -> open.
  uint64_t reopens() const { return reopens_; }      // failed probes.
  uint64_t probes() const { return probes_; }        // probe rounds judged.
  const BreakerConfig& config() const { return config_; }

  std::string ToString() const;

 private:
  void Open();

  BreakerConfig config_;
  BreakerState state_ = BreakerState::kClosed;
  int consecutive_bad_ = 0;
  uint64_t hold_remaining_ = 0;
  uint64_t current_hold_ = 0;  // Doubles per re-open; reset on close.
  uint64_t trips_ = 0;
  uint64_t reopens_ = 0;
  uint64_t probes_ = 0;
};

}  // namespace coign

#endif  // COIGN_SRC_ONLINE_CIRCUIT_BREAKER_H_
