#include "src/fleet/service.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/analysis/prediction.h"
#include "src/fleet/fingerprint.h"
#include "src/support/str_util.h"

namespace coign {

std::string FleetRegret::ToString() const {
  return StrFormat("regret{mean=%.2f%%, p95=%.2f%%, max=%.2f%%, "
                   "cohort_mean=%.6fs, optimal_mean=%.6fs}",
                   100.0 * mean, 100.0 * p95, 100.0 * max, mean_cohort_seconds,
                   mean_optimal_seconds);
}

std::string FleetPlanStats::ToString() const {
  return StrFormat("fleet{clients=%zu, cohorts=%zu, plans_computed=%zu, "
                   "cache_hits=%zu}",
                   clients, cohorts, plans_computed, cache_hits);
}

int FleetPlanResult::CohortIndexOf(uint32_t client_id) const {
  if (client_id >= client_cohort_.size()) {
    return -1;
  }
  return client_cohort_[client_id];
}

FleetPartitionService::FleetPartitionService(FleetServiceOptions options)
    : options_(options),
      engine_(options.analysis),
      cache_(options.cache_capacity),
      pool_(options.worker_threads) {
  cache_.SetObservability(options_.obs);
  cut_sessions_.resize(static_cast<size_t>(pool_.slot_count()));
}

Result<FleetPlanResult> FleetPartitionService::Plan(
    const IccProfile& profile, const std::vector<FleetClient>& fleet) {
  if (fleet.empty()) {
    return InvalidArgumentError("fleet is empty");
  }

  const uint64_t fingerprint = ProfileFingerprint(profile);
  std::vector<Cohort> cohorts = BuildCohorts(fleet, options_.cohorting);

  FleetPlanResult result;
  result.stats.clients = fleet.size();
  result.stats.cohorts = cohorts.size();
  result.plans.resize(cohorts.size());

  // Cache probes run here on the coordinator, in grid order, so LRU
  // traffic (and with it eviction and the hit/miss counters) does not
  // depend on worker scheduling.
  std::vector<size_t> misses;
  for (size_t i = 0; i < cohorts.size(); ++i) {
    CohortPlan& plan = result.plans[i];
    plan.cohort = std::move(cohorts[i]);
    std::optional<AnalysisResult> cached =
        cache_.Lookup(PlanCacheKey{fingerprint, plan.cohort.key});
    if (cached.has_value()) {
      plan.analysis = *std::move(cached);
      plan.from_cache = true;
      ++result.stats.cache_hits;
    } else {
      misses.push_back(i);
    }
  }

  // Analyze the missing cohorts across the pool; each task writes only its
  // own slot. Errors are collected per slot and reported in index order.
  std::vector<Status> task_status(misses.size());
  pool_.ParallelFor(misses.size(), [&](size_t task_index) {
    CohortPlan& plan = result.plans[misses[task_index]];
    // Lossy cohorts price their plan on the loss-inflated representative:
    // expected retransmissions scale both network terms by 1/(1-p), which
    // raises every predicted time but leaves the min cut where the clean
    // link puts it (a common factor cannot move the argmin).
    const NetworkProfile pricing = NetworkProfile::Exact(
        InflateForLoss(plan.cohort.representative, plan.cohort.representative_drop));
    // Per-slot warm start: cohort graphs share topology (same profile),
    // so each solve after a slot's first resumes from retained flow.
    Result<AnalysisResult> analyzed = engine_.Analyze(
        profile, pricing, &cut_sessions_[static_cast<size_t>(WorkerPool::CurrentSlot())]);
    if (analyzed.ok()) {
      plan.analysis = *std::move(analyzed);
    } else {
      task_status[task_index] = analyzed.status();
    }
  });
  for (const Status& status : task_status) {
    if (!status.ok()) {
      return status;
    }
  }
  result.stats.plans_computed = misses.size();

  // Insertions, like probes, stay on the coordinator in grid order.
  for (size_t miss : misses) {
    const CohortPlan& plan = result.plans[miss];
    cache_.Insert(PlanCacheKey{fingerprint, plan.cohort.key}, plan.analysis);
  }

  if (options_.obs != nullptr) {
    // Coordinator-side, after the barrier, in grid order: worker
    // scheduling can never reorder (or time-skew) what gets recorded.
    Tracer& tracer = options_.obs->tracer();
    for (const CohortPlan& plan : result.plans) {
      const double start = tracer.Now();
      tracer.Complete("cohort-plan", "fleet", kTrackFleet, start, tracer.Now(),
                      {{"cohort", Tracer::ArgString(plan.cohort.key.ToString())},
                       {"members", Tracer::ArgUint(plan.cohort.members.size())},
                       {"cache", Tracer::ArgString(plan.from_cache ? "hit" : "miss")}});
    }
    MetricsRegistry& metrics = options_.obs->metrics();
    metrics.GetCounter("fleet.plan_calls")->Add(1);
    metrics.GetCounter("fleet.clients")->Add(result.stats.clients);
    metrics.GetCounter("fleet.cohorts")->Add(result.stats.cohorts);
    metrics.GetCounter("fleet.cache.hits")->Add(result.stats.cache_hits);
    metrics.GetCounter("fleet.cache.misses")->Add(misses.size());
    metrics.GetGauge("fleet.pool.workers")
        ->Set(static_cast<double>(options_.worker_threads));
  }

  // Client id -> cohort index, for CohortIndexOf.
  uint32_t max_id = 0;
  for (const FleetClient& client : fleet) {
    max_id = std::max(max_id, client.id);
  }
  result.client_cohort_.assign(static_cast<size_t>(max_id) + 1, -1);
  for (size_t i = 0; i < result.plans.size(); ++i) {
    for (uint32_t member : result.plans[i].cohort.members) {
      result.client_cohort_[member] = static_cast<int>(i);
    }
  }

  if (!options_.compute_regret) {
    return result;
  }

  // Regret pass: every client's individually optimal cut (the per-client
  // bill cohorting avoids) vs its cohort's plan, both priced on the
  // client's own exact network.
  std::vector<double> cohort_seconds(fleet.size());
  std::vector<double> optimal_seconds(fleet.size());
  std::vector<Status> regret_status(fleet.size());
  pool_.ParallelFor(fleet.size(), [&](size_t i) {
    const FleetClient& client = fleet[i];
    // Both sides of the regret ratio feel the client's own measured loss.
    const NetworkProfile exact = NetworkProfile::Exact(
        InflateForLoss(client.network, client.fault_rates.drop));
    const int cohort_index = result.CohortIndexOf(client.id);
    const ExecutionPrediction cohort_prediction = PredictExecutionTime(
        profile, result.plans[cohort_index].analysis.distribution, exact);
    Result<AnalysisResult> optimal = engine_.Analyze(
        profile, exact, &cut_sessions_[static_cast<size_t>(WorkerPool::CurrentSlot())]);
    if (!optimal.ok()) {
      regret_status[i] = optimal.status();
      return;
    }
    const ExecutionPrediction optimal_prediction =
        PredictExecutionTime(profile, optimal->distribution, exact);
    cohort_seconds[i] = cohort_prediction.total_seconds();
    optimal_seconds[i] = optimal_prediction.total_seconds();
  });
  for (const Status& status : regret_status) {
    if (!status.ok()) {
      return status;
    }
  }

  // Reduce in index order on the coordinator: deterministic sums.
  std::vector<double> regrets(fleet.size());
  double cohort_sum = 0.0;
  double optimal_sum = 0.0;
  for (size_t i = 0; i < fleet.size(); ++i) {
    cohort_sum += cohort_seconds[i];
    optimal_sum += optimal_seconds[i];
    regrets[i] = optimal_seconds[i] > 0.0
                     ? cohort_seconds[i] / optimal_seconds[i] - 1.0
                     : 0.0;
    result.regret.mean += regrets[i];
    result.regret.max = std::max(result.regret.max, regrets[i]);
  }
  result.regret.mean /= static_cast<double>(fleet.size());
  result.regret.mean_cohort_seconds = cohort_sum / static_cast<double>(fleet.size());
  result.regret.mean_optimal_seconds = optimal_sum / static_cast<double>(fleet.size());
  std::sort(regrets.begin(), regrets.end());
  result.regret.p95 =
      regrets[static_cast<size_t>(0.95 * static_cast<double>(regrets.size() - 1))];
  return result;
}

}  // namespace coign
