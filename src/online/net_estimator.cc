#include "src/online/net_estimator.h"

namespace coign {
namespace {

// EWMA weight of the newest healthy epoch in the live network estimate.
constexpr double kAlpha = 0.4;

}  // namespace

void LiveNetworkEstimator::ObserveEpoch(uint64_t remote_calls, uint64_t wire_bytes,
                                        double latency_seconds, double payload_seconds) {
  if (remote_calls == 0) {
    return;
  }
  // Two messages per synchronous round trip.
  const double observed_per_message =
      latency_seconds / (2.0 * static_cast<double>(remote_calls));
  live_.per_message_seconds =
      (1.0 - kAlpha) * live_.per_message_seconds + kAlpha * observed_per_message;
  if (wire_bytes > 0) {
    const double observed_per_byte = payload_seconds / static_cast<double>(wire_bytes);
    live_.seconds_per_byte =
        (1.0 - kAlpha) * live_.seconds_per_byte + kAlpha * observed_per_byte;
  }
  ++epochs_observed_;
}

}  // namespace coign
