#include "src/net/network_profiler.h"

#include <cmath>

namespace coign {
namespace {

// Representative payload sizes are kProfileSizePoints sizes geometrically
// spaced over [kProfileMinBytes, kProfileMaxBytes], each sampled
// kProfileSamplesPerSize times.
constexpr uint64_t kProfileMinBytes = 16;
constexpr uint64_t kProfileMaxBytes = 256 * 1024;
constexpr int kProfileSizePoints = 24;
constexpr int kProfileSamplesPerSize = 32;

}  // namespace

NetworkProfile NetworkProfile::Exact(const NetworkModel& model) {
  NetworkProfile profile;
  profile.network_name = model.name;
  profile.per_message_seconds = model.per_message_seconds;
  profile.seconds_per_byte = 1.0 / model.bytes_per_second;
  profile.fit_r_squared = 1.0;
  return profile;
}

NetworkProfile ProfileNetwork(const Transport& transport, Rng& rng) {
  std::vector<double> xs;
  std::vector<double> ys;
  const double log_min = std::log(static_cast<double>(kProfileMinBytes));
  const double log_max = std::log(static_cast<double>(kProfileMaxBytes));
  for (int p = 0; p < kProfileSizePoints; ++p) {
    const double t = static_cast<double>(p) / (kProfileSizePoints - 1);
    const uint64_t bytes =
        static_cast<uint64_t>(std::llround(std::exp(log_min + t * (log_max - log_min))));
    for (int s = 0; s < kProfileSamplesPerSize; ++s) {
      // One-way message time is half of a symmetric round trip of twice the
      // payload; sampling the round trip mirrors how a real profiler pings.
      const double rtt = transport.SampleRoundTripSeconds(bytes, bytes, rng);
      xs.push_back(static_cast<double>(bytes));
      ys.push_back(rtt / 2.0);
    }
  }
  const LinearFit fit = FitLinear(xs, ys);

  NetworkProfile profile;
  profile.network_name = transport.model().name;
  profile.per_message_seconds = fit.intercept;
  profile.seconds_per_byte = fit.slope;
  profile.fit_r_squared = fit.r_squared;
  profile.sample_count = xs.size();
  return profile;
}

}  // namespace coign
