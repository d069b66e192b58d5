// The fleet partitioning service: one profiled application, thousands of
// clients, heterogeneous measured networks — plans for all of them.
//
// Pipeline per Plan() call:
//   1. fingerprint the profile (cache namespace);
//   2. cohort the fleet by log-bucketed network parameters (cohort.h);
//   3. probe the plan cache per cohort, coordinator-side, in grid order
//      (deterministic LRU traffic);
//   4. compute the missing cohort plans — full analysis-engine cuts priced
//      at each bucket's geometric center — across the worker pool;
//   5. insert the new plans, again in grid order;
//   6. optionally compute per-client execution-time regret against each
//      client's individually optimal cut (the expensive per-client path
//      the cohorting amortizes away — also run through the pool).
//
// Determinism: every number in FleetPlanResult is a pure function of
// (profile, fleet, options, prior cache state). Workers only fill
// per-index slots; reductions happen on the coordinator in index order, so
// results are bit-identical whatever the thread count or schedule.

#ifndef COIGN_SRC_FLEET_SERVICE_H_
#define COIGN_SRC_FLEET_SERVICE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/analysis/engine.h"
#include "src/fleet/cohort.h"
#include "src/fleet/plan_cache.h"
#include "src/fleet/thread_pool.h"
#include "src/obs/obs.h"
#include "src/profile/icc_profile.h"
#include "src/sim/fleet_population.h"
#include "src/support/status.h"

namespace coign {

struct FleetServiceOptions {
  CohortingOptions cohorting;
  AnalysisOptions analysis;
  // Total worker threads including the coordinator; 1 = serial.
  int worker_threads = 8;
  // Cached cohort plans; 0 disables the cache.
  size_t cache_capacity = 1024;
  // Also compute per-client optimal cuts and the regret of serving each
  // client its cohort's plan instead. Costs one analysis per client —
  // exactly the bill cohorting exists to avoid — so it is off by default
  // and on in benches and reports.
  bool compute_regret = false;
  // Not owned; null disables instrumentation. All spans and counters are
  // emitted coordinator-side in cohort grid order after the parallel
  // sections complete, so traces are identical whatever the thread count.
  Observability* obs = nullptr;
};

struct CohortPlan {
  Cohort cohort;
  AnalysisResult analysis;
  bool from_cache = false;
};

// Execution-time regret of cohorted planning, client-weighted. Regret of
// one client = predicted execution time (compute + communication) of its
// cohort's plan under its own network, relative to its individually
// optimal cut: 0.03 = 3% slower than perfect.
struct FleetRegret {
  double mean = 0.0;
  double max = 0.0;
  double p95 = 0.0;
  // Client-mean predicted execution seconds under cohort plans vs
  // per-client optimal cuts (the regret numerator and denominator).
  double mean_cohort_seconds = 0.0;
  double mean_optimal_seconds = 0.0;

  std::string ToString() const;
};

struct FleetPlanStats {
  size_t clients = 0;
  size_t cohorts = 0;
  size_t plans_computed = 0;  // Analyses actually run (cache misses).
  size_t cache_hits = 0;      // This call's hits.

  std::string ToString() const;
};

struct FleetPlanResult {
  std::vector<CohortPlan> plans;  // Grid order; every client's cohort.
  FleetPlanStats stats;
  FleetRegret regret;  // Zero-valued unless options.compute_regret.

  // Index into plans of the cohort serving `client_id`, or -1.
  int CohortIndexOf(uint32_t client_id) const;

 private:
  friend class FleetPartitionService;
  std::vector<int> client_cohort_;  // client id -> plans index.
};

class FleetPartitionService {
 public:
  explicit FleetPartitionService(FleetServiceOptions options = {});

  // Computes (or serves from cache) one plan per cohort of `fleet`.
  // Clients must have ids 0..n-1 in order (as GenerateFleet produces).
  Result<FleetPlanResult> Plan(const IccProfile& profile,
                               const std::vector<FleetClient>& fleet);

  const FleetServiceOptions& options() const { return options_; }
  // Lifetime cache counters across every Plan() call on this service.
  PlanCacheStats cache_stats() const { return cache_.stats(); }

  // Persist / restore the plan cache across service restarts: a reloaded
  // service starts warm and serves repeat fleets from cache immediately.
  // Save writes the byte-exact LRU snapshot; Load replaces the cache
  // contents (missing file -> NotFound, caller decides if that is fatal).
  Status SaveCache(const std::string& path) const { return cache_.SaveToFile(path); }
  Status LoadCache(const std::string& path) { return cache_.LoadFromFile(path); }
  size_t cache_size() const { return cache_.size(); }

 private:
  FleetServiceOptions options_;
  ProfileAnalysisEngine engine_;
  PlanCache cache_;
  WorkerPool pool_;
};

}  // namespace coign

#endif  // COIGN_SRC_FLEET_SERVICE_H_
