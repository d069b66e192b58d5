// Simulated transport between machines.
//
// Carries DCOM-style request/reply round trips over a NetworkModel. Two
// faces: a deterministic expectation (used when predicting and when
// accounting simulated communication time) and a sampled path with jitter
// (what the network profiler measures, and what "measured" experiment runs
// experience).
//
// The transport can additionally be hardened against an attached fault
// model (src/fault implements one): ReliableRoundTrip() retries failed
// delivery attempts under a RetryPolicy — per-attempt timeout, capped
// exponential backoff with jitter, and a bounded retry budget — charging
// every second of timeout and backoff to modeled time. Without a fault
// model the hardened path degenerates to a single clean attempt.

#ifndef COIGN_SRC_NET_TRANSPORT_H_
#define COIGN_SRC_NET_TRANSPORT_H_

#include <cstdint>

#include "src/com/types.h"
#include "src/net/network_model.h"
#include "src/obs/obs.h"
#include "src/support/rng.h"

namespace coign {

// How the hardened transport retries undelivered round trips.
struct RetryPolicy {
  // Modeled seconds lost waiting for a reply that never comes.
  double timeout_seconds = 0.25;
  // Total delivery attempts per call (1 = no retries). The retry budget:
  // attempts never exceed this, no matter what the network does.
  int max_attempts = 4;
  // Exponential backoff between attempts: wait backoff_initial_seconds
  // after the first failure, multiplied per failure, capped at
  // backoff_max_seconds, with +/- backoff_jitter fractional jitter.
  double backoff_initial_seconds = 0.02;
  double backoff_multiplier = 2.0;
  double backoff_max_seconds = 0.5;
  double backoff_jitter = 0.2;
};

// What an attached fault model does to one delivery attempt.
struct AttemptPlan {
  bool delivered = true;
  // Only meaningful when !delivered: the request crossed the wire and the
  // receiver executed it, but the reply was lost. The sender still times
  // out and retries; the retry is a duplicate the receiver's idempotency
  // token must suppress.
  bool request_reached = false;
  // The wire carried a duplicate of the request (receiver discards it,
  // but the bytes and the message time are real).
  bool duplicated = false;
  // Delivery happened out of order; the synchronous caller observes it as
  // one extra message latency before the reply is recognized.
  bool reordered = false;
  // >= 1 during latency/bandwidth fault episodes; multiply the per-message
  // and per-byte time terms respectively.
  double latency_scale = 1.0;
  double bandwidth_scale = 1.0;
  // One-off extra seconds (e.g. a machine's post-crash restart penalty).
  double extra_seconds = 0.0;
  // The wire delivered the message but a fault flipped payload bits in it.
  // With checksummed framing the damaged leg is detected and rejected
  // (receiver side for the request, sender side for the reply) and the
  // attempt retries under the same budget; without, the damage is silently
  // consumed as truth. Only meaningful when delivered.
  bool corrupt_request = false;
  bool corrupt_reply = false;

  bool clean() const {
    return delivered && !duplicated && !reordered && !corrupt_request &&
           !corrupt_reply && latency_scale == 1.0 && bandwidth_scale == 1.0 &&
           extra_seconds == 0.0;
  }
};

// The hook a fault-injection layer implements. The transport consults it
// once per delivery attempt and keeps it abreast of modeled time (faults
// are scheduled in simulated seconds). Deterministic: a fault model seeded
// identically must answer identically given the same call sequence.
class TransportFaultModel {
 public:
  virtual ~TransportFaultModel() = default;
  // Decides the fate of one delivery attempt between two machines.
  // `expected_seconds` is the attempt's expected (unscaled) round-trip
  // time, so models can void deliveries that a crash episode starting
  // mid-flight would have interrupted.
  virtual AttemptPlan OnAttempt(MachineId src, MachineId dst, uint64_t request_bytes,
                                uint64_t reply_bytes, double expected_seconds) = 0;
  // Advances the fault clock by consumed modeled seconds (communication,
  // timeouts, backoff, and compute all count).
  virtual void AdvanceClock(double seconds) = 0;
  // Uniform [0, 1) source for backoff jitter, drawn from the model's own
  // seeded stream so hardened runs replay bit-for-bit.
  virtual double JitterUnit() = 0;
};

// Outcome of one hardened round trip. `seconds` decomposes into a
// latency share (per-message overhead, timeouts, backoff, reorder and
// restart penalties) and a payload share (bytes over the wire) so a live
// network estimator can refit both cost terms independently.
struct DeliveryReceipt {
  double seconds = 0.0;  // Total modeled time, including timeouts/backoff.
  double latency_seconds = 0.0;
  double payload_seconds = 0.0;
  int attempts = 1;      // Delivery attempts consumed (<= retry budget).
  bool delivered = true; // False: retry budget exhausted, call timed out.
  bool faulted = false;  // Any attempt was touched by a fault.
  uint64_t duplicate_messages = 0;
  // Requests the receiver discarded by idempotency token: wire duplicates
  // plus retransmissions of a request whose reply was lost. At-most-once
  // delivery — the call's side effects executed exactly once.
  uint64_t duplicates_suppressed = 0;
  // Attempts whose payload arrived bit-flipped and was rejected by the
  // envelope checksum; each one retried under the same budget.
  uint64_t corrupt_rejected = 0;
  // Bit-flipped payloads silently consumed because checksums were off —
  // the caller got garbage and does not know (the naive baseline the
  // resilience bench quantifies).
  uint64_t corrupt_consumed = 0;
};

// Cumulative transport-level health counters, as exposed by the network
// accountant. The online layer diffs snapshots to detect fault episodes
// and to estimate live network cost (migration traffic is excluded so the
// adaptive loop cannot mistake its own state transfers for a slow wire).
struct TransportHealth {
  uint64_t calls = 0;            // Remote round trips charged.
  uint64_t attempts = 0;         // Delivery attempts (>= calls when hardened).
  uint64_t retries = 0;          // Attempts beyond the first.
  uint64_t undelivered = 0;      // Calls that exhausted the retry budget.
  uint64_t faulted_calls = 0;    // Calls touched by any fault.
  uint64_t wire_bytes = 0;       // Call payload bytes (no migration traffic).
  double wire_seconds = 0.0;     // Call communication time (no migration).
  // Decomposition of wire_seconds: message-count-proportional time
  // (latency, timeouts, backoff, penalties) vs byte-proportional time.
  double wire_latency_seconds = 0.0;
  double wire_payload_seconds = 0.0;
  uint64_t duplicates_suppressed = 0;  // Receiver-side dedup events.
  uint64_t corrupt_rejected = 0;       // Checksum-rejected attempts.
  uint64_t corrupt_consumed = 0;       // Poison consumed (checksums off).
};

class Transport {
 public:
  explicit Transport(NetworkModel model) : model_(model) {}

  const NetworkModel& model() const { return model_; }

  // Expected (noise-free) time of one synchronous round trip.
  double ExpectedRoundTripSeconds(uint64_t request_bytes, uint64_t reply_bytes) const {
    return model_.ExpectedOneWaySeconds(request_bytes) +
           model_.ExpectedOneWaySeconds(reply_bytes);
  }

  // One sampled round trip with multiplicative jitter; always >= 0.
  double SampleRoundTripSeconds(uint64_t request_bytes, uint64_t reply_bytes, Rng& rng) const;

  // Latency/payload decomposition of one round trip (jitter, when
  // sampled, is distributed proportionally across both terms).
  struct RoundTripSplit {
    double latency = 0.0;
    double payload = 0.0;
    double total() const { return latency + payload; }
  };

  // Round trip under fault-episode scaling of the latency and bandwidth
  // terms; samples jitter when `jitter_rng` is non-null.
  RoundTripSplit ScaledRoundTripSplit(uint64_t request_bytes, uint64_t reply_bytes,
                                      double latency_scale, double bandwidth_scale,
                                      Rng* jitter_rng) const;
  double ScaledRoundTripSeconds(uint64_t request_bytes, uint64_t reply_bytes,
                                double latency_scale, double bandwidth_scale,
                                Rng* jitter_rng) const {
    return ScaledRoundTripSplit(request_bytes, reply_bytes, latency_scale,
                                bandwidth_scale, jitter_rng)
        .total();
  }

  // --- Hardened path --------------------------------------------------------
  // Fault model is not owned and must outlive the transport (and every
  // copy of it — the accountant copies transports by value).
  void AttachFaults(TransportFaultModel* faults) { faults_ = faults; }
  bool has_faults() const { return faults_ != nullptr; }
  void SetRetryPolicy(const RetryPolicy& policy) { retry_ = policy; }
  const RetryPolicy& retry_policy() const { return retry_; }

  // Integrity envelope: on by default. With checksums a corrupted attempt
  // is rejected and retried (the rejection still pays for the bytes that
  // crossed the wire, but never for a timeout — detection is active);
  // without, the poisoned payload is consumed as a normal delivery. The
  // naive mode exists so the resilience bench can price what checksums buy.
  void SetChecksums(bool enabled) { checksums_ = enabled; }
  bool checksums_enabled() const { return checksums_; }

  // Advances the attached fault model's clock (no-op without one). Used by
  // callers charging non-transport time (compute) so fault episodes keyed
  // to simulated seconds stay aligned with the run.
  void AdvanceFaultClock(double seconds) {
    if (faults_ != nullptr && seconds > 0.0) {
      faults_->AdvanceClock(seconds);
    }
  }

  // One round trip under the attached fault model and the retry policy.
  // Every failed attempt costs a timeout plus capped exponential backoff
  // with jitter; the retry budget bounds attempts. Charges the transport's
  // own clock and advances the fault clock as time passes.
  DeliveryReceipt ReliableRoundTrip(MachineId src, MachineId dst, uint64_t request_bytes,
                                    uint64_t reply_bytes, Rng* jitter_rng);

  // Accumulated clock helpers, for simulations that track elapsed wire time.
  void Charge(double seconds) { elapsed_seconds_ += seconds; }
  double elapsed_seconds() const { return elapsed_seconds_; }
  void ResetClock() { elapsed_seconds_ = 0.0; }

  // --- Observability --------------------------------------------------------
  // Opt-in per transport instance; `obs` is not owned and must outlive the
  // transport and its copies. Instrument pointers are resolved here once so
  // the round-trip hot path never takes the registry lock. Attaching reads
  // receipts only — it never draws randomness or changes modeled time, so
  // traced and untraced runs follow identical schedules.
  void SetObservability(Observability* obs);
  Observability* observability() const { return obs_; }

 private:
  struct Instruments {
    MetricCounter* calls = nullptr;
    MetricCounter* attempts = nullptr;
    MetricCounter* retries = nullptr;
    MetricCounter* undelivered = nullptr;
    MetricCounter* faulted_calls = nullptr;
    MetricCounter* duplicates_suppressed = nullptr;
    MetricCounter* duplicate_wire_messages = nullptr;
    MetricCounter* corrupt_rejected = nullptr;
    MetricCounter* corrupt_consumed = nullptr;
    MetricHistogram* rtt_seconds = nullptr;
    MetricHistogram* retry_wait_seconds = nullptr;
  };

  void RecordReceipt(MachineId src, MachineId dst, uint64_t request_bytes,
                     uint64_t reply_bytes, double wait_seconds,
                     const DeliveryReceipt& receipt);

  NetworkModel model_;
  RetryPolicy retry_;
  bool checksums_ = true;
  TransportFaultModel* faults_ = nullptr;  // Not owned.
  Observability* obs_ = nullptr;           // Not owned.
  Instruments instruments_;
  double elapsed_seconds_ = 0.0;
  // Idempotency tokens: one per ReliableRoundTrip call. The receiver keys
  // its dedup table on them; in the simulation the per-call bookkeeping in
  // ReliableRoundTrip plays that table's role.
  uint64_t next_idempotency_token_ = 1;
};

}  // namespace coign

#endif  // COIGN_SRC_NET_TRANSPORT_H_
