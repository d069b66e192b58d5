// fleet-cold and fleet-replan: one FleetPartitionService::Plan() of a fresh
// 20,000-client population (default archetypes, 30% lossy links), with
// populations drawn from consecutive seeds.
//
//   fleet-cold:   a new service with an empty plan cache for every plan, so
//                 the time goes to graph building, warm-session cuts and
//                 the worker pool. Deliberately not warmed: users pay it.
//   fleet-replan: one long-lived service whose cache is warm from earlier
//                 draws, so the time goes to cohorting and plan-cache
//                 lookup/copy. Same service, layer mix reversed.
//
// These workloads touch only Plan(), FleetPlanResult::CohortIndexOf and the
// returned AnalysisResults, so a planner that replaces cohorting keeps
// this benchmark unchanged. GenerateFleet runs outside the timed region.
//
// Quality is measured outside the timed region on a fixed seeded sample of
// the first timed population: each sampled client's served plan and its
// own cold Analyze optimum, both priced at the client's exact (loss-
// inflated) link — execution-time regret as FleetRegret defines it.

#include <cmath>

#include "bench.h"
#include "bench/harness.h"
#include "src/analysis/prediction.h"
#include "src/apps/octarine.h"
#include "src/fleet/service.h"
#include "src/sim/fleet_population.h"
#include "src/support/rng.h"

namespace coignbench {
namespace {

using namespace coign;  // NOLINT: benchmark code.

constexpr int kClients = 20000;
constexpr double kLossyFraction = 0.3;
constexpr int kReplanWarmupDraws = 6;
constexpr int kRegretSample = 256;
constexpr uint64_t kCountedPlans = 4;  // Exact counters cover these plans.
constexpr int kSerialPlans = 3;        // Traced fleet-cold: serial reference plans.

FleetPopulationOptions Population() {
  FleetPopulationOptions population;
  population.client_count = kClients;
  population.lossy_fraction = kLossyFraction;
  return population;
}

// Draw `draw` of a run: consecutive seeds from a per-run base, so runs with
// different --seed never share a population.
uint64_t DrawSeed(uint64_t seed, uint64_t draw) { return (seed << 20) + draw; }

FleetServiceOptions ServiceOptions(int threads) {
  FleetServiceOptions options;
  options.worker_threads = threads;
  return options;
}

struct FleetState {
  IccProfile profile;
  // The populations of the counted plans; later ones are drawn between
  // operations, outside the timed region.
  std::vector<std::vector<FleetClient>> fleets;
  std::unique_ptr<FleetPartitionService> warm_service;  // fleet-replan only.
};

Result<std::unique_ptr<FleetState>> SetUp(uint64_t seed, bool warm, CpuRotator& cpus) {
  auto state = std::make_unique<FleetState>();
  std::unique_ptr<Application> app = MakeOctarine();
  Result<IccProfile> profile = ProfileScenarios(*app, {"o_newdoc", "o_oldwp3"});
  if (!profile.ok()) {
    return profile.status();
  }
  state->profile = std::move(*profile);
  const uint64_t first_draw = warm ? kReplanWarmupDraws : 0;
  if (warm) {
    // Pool threads start while the caller may run anywhere, so they keep
    // every CPU; only the calling thread moves.
    cpus.Pause();
    state->warm_service = std::make_unique<FleetPartitionService>(
        ServiceOptions(static_cast<int>(BenchThreads())));
    cpus.Next();
    for (uint64_t draw = 0; draw < first_draw; ++draw) {
      Result<FleetPlanResult> planned = state->warm_service->Plan(
          state->profile, GenerateFleet(Population(), DrawSeed(seed, draw)));
      if (!planned.ok()) {
        return planned.status();
      }
    }
  }
  for (uint64_t draw = first_draw; draw < first_draw + kCountedPlans; ++draw) {
    state->fleets.push_back(GenerateFleet(Population(), DrawSeed(seed, draw)));
  }
  return state;
}

bool EveryClientPlanned(const FleetPlanResult& planned, const std::vector<FleetClient>& fleet) {
  for (const FleetClient& client : fleet) {
    if (planned.CohortIndexOf(client.id) < 0) {
      return false;
    }
  }
  return true;
}

bool SamePlans(const FleetPlanResult& a, const FleetPlanResult& b) {
  if (a.plans.size() != b.plans.size()) {
    return false;
  }
  for (size_t i = 0; i < a.plans.size(); ++i) {
    if (a.plans[i].analysis.cut_value_units != b.plans[i].analysis.cut_value_units ||
        a.plans[i].analysis.distribution.placement !=
            b.plans[i].analysis.distribution.placement) {
      return false;
    }
  }
  return true;
}

struct Quality {
  double served_mean_s = 0.0;
  double regret_mean = 0.0;
  double regret_max = 0.0;
  bool finite = true;
};

// The client's own link with its steady drop rate priced in, as FleetRegret
// prices it: expected retransmissions scale both network terms by
// 1 / (1 - drop). Computed here rather than through the cohorting code, so
// the measurement survives a planner that drops cohorts.
NetworkProfile ClientLink(const FleetClient& client) {
  NetworkModel link = client.network;
  const double drop = client.fault_rates.drop;
  if (drop > 0.0) {
    link.per_message_seconds /= 1.0 - drop;
    link.bytes_per_second *= 1.0 - drop;
  }
  return NetworkProfile::Exact(link);
}

// Predicted execution seconds of the plan served to `client`; NaN if none.
double ServedSeconds(const IccProfile& profile, const FleetPlanResult& planned,
                     const FleetClient& client, const NetworkProfile& link) {
  const int index = planned.CohortIndexOf(client.id);
  if (index < 0) {
    return NAN;
  }
  return PredictExecutionTime(profile, planned.plans[static_cast<size_t>(index)].analysis.distribution,
                              link)
      .total_seconds();
}

// Served plan vs per-client optimum on a seeded client sample.
Quality MeasureQuality(const IccProfile& profile, const FleetPlanResult& planned,
                       const std::vector<FleetClient>& fleet, uint64_t seed) {
  const ProfileAnalysisEngine engine;
  Rng rng(seed * 0x2545f4914f6cdd1dull + 7);
  Quality quality;
  for (int i = 0; i < kRegretSample; ++i) {
    const FleetClient& client =
        fleet[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(fleet.size()) - 1))];
    const NetworkProfile link = ClientLink(client);
    Result<AnalysisResult> optimal = engine.Analyze(profile, link);
    if (!optimal.ok()) {
      quality.finite = false;
      continue;
    }
    const double served = ServedSeconds(profile, planned, client, link);
    const double best = PredictExecutionTime(profile, optimal->distribution, link).total_seconds();
    const double regret = best > 0.0 ? served / best - 1.0 : 0.0;
    quality.finite = quality.finite && std::isfinite(regret);
    quality.regret_mean += regret / kRegretSample;
    quality.regret_max = std::max(quality.regret_max, regret);
  }
  // Served seconds need no cut, so they cover the whole population.
  for (const FleetClient& client : fleet) {
    const double served = ServedSeconds(profile, planned, client, ClientLink(client));
    quality.finite = quality.finite && std::isfinite(served);
    quality.served_mean_s += served / static_cast<double>(fleet.size());
  }
  return quality;
}

Status RunFleet(BenchContext& context, bool warm) {
  const RunConfig& config = context.config;
  WorkloadReport& report = context.report;
  report.p50_name = warm ? "fleet_replan_p50_ms" : "fleet_cold_plan_ms";
  report.tail_name = warm ? "fleet_replan_tail_ms" : "fleet_cold_tail_ms";
  report.tail_percentile = warm ? 95.0 : 75.0;
  const auto set_up = [&] { return SetUp(config.seed, warm, context.cpus); };
  Result<std::unique_ptr<FleetState>> state =
      RepeatSetup<FleetState>(kSetupRepetitions, &report.setup_seconds, context.cpus, set_up);
  if (!state.ok()) {
    return state.status();
  }
  const IccProfile& profile = (*state)->profile;
  const int threads = static_cast<int>(BenchThreads());
  const uint64_t first_draw = warm ? kReplanWarmupDraws : 0;

  uint64_t cohorts = 0, plans_computed = 0, cache_hits = 0;
  uint64_t oracle_failures = 0;
  Quality quality;
  std::vector<double> serial_ms, parallel_ms;
  std::vector<std::vector<FleetClient>>& generated = (*state)->fleets;
  std::vector<FleetClient> fleet;
  const int64_t deadline = NowNs() + static_cast<int64_t>(config.seconds * 1e9);
  for (uint64_t op = 0; op < kCountedPlans || NowNs() < deadline; ++op) {
    fleet = op < generated.size()
                ? std::move(generated[op])
                : GenerateFleet(Population(), DrawSeed(config.seed, first_draw + op));
    std::unique_ptr<FleetPartitionService> cold_service;
    FleetPartitionService* service = (*state)->warm_service.get();
    if (!warm) {
      context.cpus.Pause();  // As in SetUp: the new pool keeps every CPU.
      cold_service = std::make_unique<FleetPartitionService>(ServiceOptions(threads));
      service = cold_service.get();
      context.cpus.Next();
    } else {
      context.cpus.Tick();
    }
    context.spans.set_enabled(context.TraceOp(op));
    Result<FleetPlanResult> planned = InternalError("not planned");
    const int64_t start = NowNs();
    {
      // The fleet layers all run inside Plan(), so the operation is one span.
      ScopedSpan span(context.spans, "fleet.plan", op);
      planned = service->Plan(profile, fleet);
    }
    const double ms = static_cast<double>(NowNs() - start) * 1e-6;
    context.RecordOp(context.spans.enabled(), ms);
    ++report.attempted;
    bool ok = planned.ok() && EveryClientPlanned(*planned, fleet);
    if (ok && op < kCountedPlans) {
      cohorts += planned->stats.cohorts;
      plans_computed += planned->stats.plans_computed;
      cache_hits += planned->stats.cache_hits;
    }
    if (ok && op == 0) {
      quality = MeasureQuality(profile, *planned, fleet, config.seed);
      ok = quality.finite;
    }
    if (ok && context.spans.enabled() && !warm &&
        serial_ms.size() < static_cast<size_t>(kSerialPlans)) {
      // Pool speedup: the same population planned by a one-thread service.
      FleetPartitionService serial(ServiceOptions(1));
      Result<FleetPlanResult> reference = InternalError("not planned");
      const int64_t serial_start = NowNs();
      {
        ScopedSpan span(context.spans, "fleet.serial_plan", op);
        reference = serial.Plan(profile, fleet);
      }
      serial_ms.push_back(static_cast<double>(NowNs() - serial_start) * 1e-6);
      parallel_ms.push_back(ms);
      if (!reference.ok() || !SamePlans(*reference, *planned)) {
        ++oracle_failures;
        ok = false;
      }
    }
    context.spans.set_enabled(false);
    if (!ok) {
      ++report.failed;
    }
  }

  report.modeled_exec_s = quality.served_mean_s;
  const double lookups = static_cast<double>(cohorts);
  context.Note(Format("population: %d clients, %.0f%% lossy, %d pool threads", kClients,
                      100.0 * kLossyFraction, threads));
  context.Note(Format("exact counters over plans 0..%llu: cohorts %llu plans_computed %llu "
                      "cache_hits %llu (hit ratio %.6f of %llu lookups)",
                      static_cast<unsigned long long>(kCountedPlans - 1),
                      static_cast<unsigned long long>(cohorts),
                      static_cast<unsigned long long>(plans_computed),
                      static_cast<unsigned long long>(cache_hits),
                      lookups > 0 ? cache_hits / lookups : 0.0,
                      static_cast<unsigned long long>(cohorts)));
  context.Note(Format("quality over %d sampled clients of plan 0: fleet_regret_mean_pct %.6f "
                      "fleet_regret_max_pct %.6f, modeled_exec_s = mean served seconds",
                      kRegretSample, 100.0 * quality.regret_mean, 100.0 * quality.regret_max));
  if (!warm && config.trace) {
    context.Note(Format("pool oracle: %zu serial re-plans, %llu mismatches", serial_ms.size(),
                        static_cast<unsigned long long>(oracle_failures)));
  }

  std::map<std::string, double>& layers = report.layers;
  const double per_plan = 1.0 / static_cast<double>(kCountedPlans);
  layers["fleet.cohorts"] = static_cast<double>(cohorts) * per_plan;
  layers["fleet.plans_computed"] = static_cast<double>(plans_computed) * per_plan;
  layers["fleet.cache_hits"] = static_cast<double>(cache_hits) * per_plan;
  layers["fleet.hit_ratio"] = lookups > 0 ? cache_hits / lookups : 0.0;
  layers["fleet.regret_mean_pct"] = 100.0 * quality.regret_mean;
  layers["fleet.regret_max_pct"] = 100.0 * quality.regret_max;
  if (config.trace) {
    const double plan_ms = Median(context.spans.DurationsUs("fleet.plan")) * 1e-3;
    layers["fleet.plan_ms"] = plan_ms;
    if (warm) {
      layers["fleet.replan_us_per_client"] = plan_ms * 1e3 / kClients;
    } else {
      layers["fleet.cold_ms_per_plan"] =
          plans_computed > 0 ? plan_ms / (static_cast<double>(plans_computed) * per_plan) : 0.0;
      layers["fleet.serial_cold_plan_ms"] = Median(serial_ms);
      layers["fleet.pool_speedup"] =
          Median(parallel_ms) > 0 ? Median(serial_ms) / Median(parallel_ms) : 0.0;
    }
  }
  // The second half of the set-ups, with the run's state freed first.
  state->reset();
  return RepeatSetup<FleetState>(kSetupRepetitions, &report.setup_seconds, context.cpus, set_up)
      .status();
}

}  // namespace

Status RunFleetCold(BenchContext& context) { return RunFleet(context, /*warm=*/false); }
Status RunFleetReplan(BenchContext& context) { return RunFleet(context, /*warm=*/true); }

}  // namespace coignbench
