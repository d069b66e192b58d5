// Live network-cost estimation for the online repartitioner.
//
// The shipped cut was priced with a network profile fitted offline
// (paper §2's statistical sampling). A long-running adaptive system keeps
// that estimate current by watching what its own remote calls actually
// cost. The hardened transport reports every charged second split into a
// latency share (per-message overhead, timeouts, backoff, penalties) and
// a payload share (bytes over the wire), so each epoch refits both cost
// terms independently: latency seconds over message count feeds the
// per-message EWMA, payload seconds over byte count feeds the per-byte
// EWMA. This is the channel through which a hostile network can poison
// the adaptive loop — a latency spike drags cut pricing toward
// message-minimal cuts, a bandwidth collapse toward byte-minimal ones —
// and therefore exactly what the quarantine rule must starve during
// detected fault episodes.

#ifndef COIGN_SRC_ONLINE_NET_ESTIMATOR_H_
#define COIGN_SRC_ONLINE_NET_ESTIMATOR_H_

#include <cstdint>

#include "src/net/network_profiler.h"

namespace coign {

class LiveNetworkEstimator {
 public:
  explicit LiveNetworkEstimator(NetworkProfile fitted) : fitted_(fitted), live_(fitted) {}

  // Folds one epoch of observed call traffic into the live estimate.
  // Epochs without remote calls carry no signal and are ignored; the
  // per-byte term only updates when the epoch moved payload bytes.
  void ObserveEpoch(uint64_t remote_calls, uint64_t wire_bytes, double latency_seconds,
                    double payload_seconds);

  const NetworkProfile& fitted() const { return fitted_; }
  const NetworkProfile& live() const { return live_; }
  // Live cost relative to the fitted profile (worst of the two terms);
  // 1 = healthy.
  double slowdown() const {
    const double latency_ratio = fitted_.per_message_seconds > 0.0
                                     ? live_.per_message_seconds /
                                           fitted_.per_message_seconds
                                     : 1.0;
    const double byte_ratio = fitted_.seconds_per_byte > 0.0
                                  ? live_.seconds_per_byte / fitted_.seconds_per_byte
                                  : 1.0;
    return latency_ratio > byte_ratio ? latency_ratio : byte_ratio;
  }
  uint64_t epochs_observed() const { return epochs_observed_; }

 private:
  NetworkProfile fitted_;
  NetworkProfile live_;
  uint64_t epochs_observed_ = 0;
};

}  // namespace coign

#endif  // COIGN_SRC_ONLINE_NET_ESTIMATOR_H_
