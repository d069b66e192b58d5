// Parameterized network models.
//
// The paper's experiments run over an isolated 10BaseT Ethernet between two
// 200 MHz Pentiums; §1 motivates re-partitioning as the network changes
// "from ISDN to 100BaseT to ATM to SAN". These presets span that range so
// experiments can show distributions shifting with the environment.

#ifndef COIGN_SRC_NET_NETWORK_MODEL_H_
#define COIGN_SRC_NET_NETWORK_MODEL_H_

#include <cstdint>
#include <string>

namespace coign {

struct NetworkModel {
  std::string name;
  // One-way fixed cost per message, seconds. Covers protocol processing,
  // interrupt handling, and wire latency — dominated by software in the
  // DCOM era.
  double per_message_seconds = 0.0;
  // Sustained payload bandwidth, bytes/second.
  double bytes_per_second = 1.0;
  // Multiplicative jitter applied when messages are *sampled* (the network
  // profiler sees this noise; the deterministic expectation does not).
  double jitter_fraction = 0.0;

  // Expected one-way time for a message of `bytes` payload.
  double ExpectedOneWaySeconds(uint64_t bytes) const {
    return per_message_seconds + static_cast<double>(bytes) / bytes_per_second;
  }

  // A copy of this model with latency multiplied by `latency_scale` and
  // bandwidth multiplied by `bandwidth_scale` — how fleet simulation derives
  // one client's measured link from an archetype preset.
  NetworkModel Scaled(double latency_scale, double bandwidth_scale) const;

  // --- Presets -------------------------------------------------------------
  // The paper's testbed: isolated 10 Mb/s Ethernet, mid-90s protocol stacks.
  static NetworkModel TenBaseT();
  static NetworkModel HundredBaseT();
  static NetworkModel Isdn();
  static NetworkModel Atm155();
  // A near-zero-latency, very-high-bandwidth system-area network.
  static NetworkModel San();
};

}  // namespace coign

#endif  // COIGN_SRC_NET_NETWORK_MODEL_H_
