// The network profiler (paper §2): "creates a network profile through
// statistical sampling of communication time for a representative set of
// DCOM messages."
//
// We sample round trips of geometrically spaced payload sizes over the
// (jittered) transport and fit time = intercept + slope * bytes by least
// squares. The resulting NetworkProfile converts the abstract ICC graph's
// message and byte totals into the concrete graph's seconds; every price
// Coign puts on traffic comes from TrafficSeconds.

#ifndef COIGN_SRC_NET_NETWORK_PROFILER_H_
#define COIGN_SRC_NET_NETWORK_PROFILER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/net/transport.h"
#include "src/support/rng.h"
#include "src/support/stats.h"

namespace coign {

// Fitted cost model of one one-way message as a function of payload bytes.
struct NetworkProfile {
  std::string network_name;
  double per_message_seconds = 0.0;  // Fitted intercept (per direction).
  double seconds_per_byte = 0.0;     // Fitted slope.
  double fit_r_squared = 0.0;
  size_t sample_count = 0;

  // Predicted seconds of `messages` one-way messages carrying `bytes`
  // payload bytes in all. The model is affine, so totals price traffic
  // exactly, however the sizes spread across messages.
  double TrafficSeconds(uint64_t messages, uint64_t bytes) const {
    return static_cast<double>(messages) * per_message_seconds +
           static_cast<double>(bytes) * seconds_per_byte;
  }

  // A profile built directly from the model's true parameters (no sampling
  // noise) — useful as a fixture and to bound profiler error in tests.
  static NetworkProfile Exact(const NetworkModel& model);
};

// Samples round trips over `transport` at a fixed grid of payload sizes
// (network_profiler.cc) and fits the profile.
NetworkProfile ProfileNetwork(const Transport& transport, Rng& rng);

}  // namespace coign

#endif  // COIGN_SRC_NET_NETWORK_PROFILER_H_
