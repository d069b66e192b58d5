// Cohorting: bucket a fleet's clients by network characteristics so one
// cut serves many clients.
//
// A distribution is a discrete object — small shifts in link parameters
// rarely move the minimum cut (the ablation benches show plateaus spanning
// most of a decade). So instead of cutting per client, clients are
// bucketed on a log scale over the two NetworkModel cost parameters
// (per-message latency and payload bandwidth), and one cut is computed per
// occupied bucket at the bucket's geometric center. Pricing at the center
// — not at the mean of the current members — makes a cohort's plan a pure
// function of its bucket, which is what lets the plan cache serve
// repeated and drifting fleets. Online balanced-partitioning work (Avin
// et al.; Räcke et al.) motivates exactly this amortization of cut
// computation across similar concurrent demands.

#ifndef COIGN_SRC_FLEET_COHORT_H_
#define COIGN_SRC_FLEET_COHORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/net/network_model.h"
#include "src/sim/fleet_population.h"

namespace coign {

struct CohortingOptions {
  // Bucket granularity on each log10 axis. Finer buckets mean lower
  // within-cohort regret but more cuts to compute; 8/decade keeps the
  // worst within-bucket parameter ratio at 10^(1/8) ~ 1.33x.
  double latency_buckets_per_decade = 8.0;
  double bandwidth_buckets_per_decade = 8.0;
  // Drop-rate axis: links at or below the clean threshold share the clean
  // bucket (0); lossier links bucket on their own log10 grid so a client
  // fighting packet loss never shares a plan with a clean one. Its plan's
  // predicted times carry the retry inflation, but its cut is the clean
  // link's: InflateForLoss scales both network terms by the same factor,
  // which cannot move the minimum cut.
  double clean_drop_threshold = 5e-4;
  double loss_buckets_per_decade = 2.0;
};

// A bucket on the (log latency, log bandwidth, log drop-rate) grid.
struct CohortKey {
  int32_t latency_bucket = 0;
  int32_t bandwidth_bucket = 0;
  int32_t loss_bucket = 0;  // 0 = clean; lossy buckets are negative.

  friend bool operator==(const CohortKey&, const CohortKey&) = default;
  // Grid order: latency-major — the deterministic iteration order
  // everywhere cohorts are listed.
  friend bool operator<(const CohortKey& a, const CohortKey& b) {
    if (a.latency_bucket != b.latency_bucket) {
      return a.latency_bucket < b.latency_bucket;
    }
    if (a.bandwidth_bucket != b.bandwidth_bucket) {
      return a.bandwidth_bucket < b.bandwidth_bucket;
    }
    return a.loss_bucket < b.loss_bucket;
  }

  std::string ToString() const;
};

struct CohortKeyHash {
  size_t operator()(const CohortKey& key) const {
    return static_cast<size_t>(
        ((static_cast<uint64_t>(static_cast<uint32_t>(key.latency_bucket)) << 32) ^
         static_cast<uint32_t>(key.bandwidth_bucket) * 0x9e3779b97f4a7c15ull) ^
        static_cast<uint32_t>(key.loss_bucket) * 0xc2b2ae3d27d4eb4full);
  }
};

struct Cohort {
  CohortKey key;
  // The bucket's geometric center: the network every member's plan is
  // computed against.
  NetworkModel representative;
  // Geometric center of the loss bucket; 0 for the clean bucket. Pricing
  // inflates the representative's costs by the expected retransmissions.
  double representative_drop = 0.0;
  // Member client ids, in fleet order.
  std::vector<uint32_t> members;
};

// The bucket a network's parameters land in (clean loss bucket).
CohortKey BucketOf(const NetworkModel& network, const CohortingOptions& options);
// The bucket a client lands in: network axes plus its measured drop rate.
CohortKey BucketOf(const FleetClient& client, const CohortingOptions& options);

// The geometric center of a bucket.
NetworkModel BucketCenter(const CohortKey& key, const CohortingOptions& options);
// Geometric center of a loss bucket (0.0 for the clean bucket 0).
double BucketDropCenter(int32_t loss_bucket, const CohortingOptions& options);

// A drop rate p costs each message 1/(1-p) expected transmissions:
// latency inflates by that factor, effective bandwidth deflates by it.
NetworkModel InflateForLoss(NetworkModel network, double drop_rate);

// Groups the fleet into occupied buckets, sorted by CohortKey grid order.
std::vector<Cohort> BuildCohorts(const std::vector<FleetClient>& fleet,
                                 const CohortingOptions& options);

}  // namespace coign

#endif  // COIGN_SRC_FLEET_COHORT_H_
