// The fleet partitioning service: one profiled application, thousands of
// clients, heterogeneous measured networks — a plan for every one of them.
//
// A cut's cost on a network depends only on
// λ = seconds_per_byte / per_message_seconds (src/analysis/envelope.h).
// Plan() therefore solves the profile's exact cut envelope once, 2K−1
// push-relabel solves for K distinct optimal cuts, and serves each client
// the segment its λ falls in. Every client gets the exact optimal cut for
// its own loss-inflated link, with no per-client cut and nothing worth
// caching. That is the cut Analyze chooses there wherever Analyze's
// per-edge picosecond rounding does not reorder cuts, as fleet_test and
// bench_fleet check.
//
// The client pass is key first. One loop validates each client, charges
// its drop rate to its two link terms (LossInflatedTerms) and keeps their
// correctly rounded quotient as its λ key (LambdaKey). Rounding is
// monotone, so unequal keys order two clients' λ exactly. Segment lookup
// compares a key with a bracket around each breakpoint that holds the
// breakpoint's correctly rounded value: the breakpoint's rounded quotient
// widened by 1 ± 2^-50, eight units in the last place, where its own
// rounding and the rounding to the correctly rounded value add at most
// about five. Only a key inside a bracket runs the exact 128-bit
// comparison; the median selection runs it only for equal keys, then
// breaks ties by id (envelope.h, Lookup). Placements and medians are those
// of the exact comparison alone.
//
// Determinism: FleetPlanResult is a pure function of (profile, fleet,
// options). The search and the lookups run in order on the calling
// thread.

#ifndef COIGN_SRC_FLEET_SERVICE_H_
#define COIGN_SRC_FLEET_SERVICE_H_

#include <cstdint>
#include <vector>

#include "src/analysis/engine.h"
#include "src/analysis/envelope.h"
#include "src/obs/obs.h"
#include "src/profile/icc_profile.h"
#include "src/sim/fleet_population.h"
#include "src/support/status.h"

namespace coign {

struct FleetServiceOptions {
  AnalysisOptions analysis;
  // Ignored: a plan is one sequential envelope search. Kept because the
  // benchmark (coignbench/workload_fleet.cc) still sets it.
  int worker_threads = 8;
  // Not owned; null disables instrumentation.
  Observability* obs = nullptr;
};

// The plan for one occupied envelope segment.
struct SegmentPlan {
  // The segment's λ interval [from, to) and the traffic its cut crosses.
  LambdaRatio lambda_from;
  LambdaRatio lambda_to;
  uint64_t messages = 0;
  uint64_t bytes = 0;
  // Member client ids, in fleet order.
  std::vector<uint32_t> members;
  // The segment's cut assembled at the link of its median-λ member (ties
  // broken by id), by Analyze's result assembly (AnalyzeSegment).
  AnalysisResult analysis;
};

// The benchmark (coignbench/workload_fleet.cc) reads these fields by
// their cohorting-era names.
struct FleetPlanStats {
  size_t clients = 0;
  size_t cohorts = 0;         // Occupied envelope segments (plans.size()).
  size_t plans_computed = 0;  // Exact solves of the envelope search.
  size_t cache_hits = 0;      // Always 0: there is no plan cache.
};

struct FleetPlanResult {
  std::vector<SegmentPlan> plans;  // Occupied segments, in λ order.
  // Every breakpoint of the envelope in λ order, occupied or not: K−1 for
  // K distinct cuts.
  std::vector<LambdaRatio> breakpoints;
  FleetPlanStats stats;

  // Index into plans of the segment serving `client_id`, or -1. The name
  // is the benchmark's (coignbench/workload_fleet.cc).
  int CohortIndexOf(uint32_t client_id) const;

 private:
  friend class FleetPartitionService;
  std::vector<int> client_plan_;  // client id -> plans index.
};

class FleetPartitionService {
 public:
  explicit FleetPartitionService(FleetServiceOptions options = {});

  // Plans every client of `fleet`. InvalidArgument, naming the client's
  // index, unless the ids are 0..n-1 in order (as GenerateFleet produces),
  // both link terms are finite and > 0, and the drop rate is in [0, 1).
  Result<FleetPlanResult> Plan(const IccProfile& profile,
                               const std::vector<FleetClient>& fleet) const;

  const FleetServiceOptions& options() const { return options_; }

 private:
  FleetServiceOptions options_;
  ProfileAnalysisEngine engine_;
};

}  // namespace coign

#endif  // COIGN_SRC_FLEET_SERVICE_H_
