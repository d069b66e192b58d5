// Extension: online repartitioning (closing the loop on paper §6).
//
// The §6 scenario: "Coign could automatically decide when usage differs
// significantly from profiled scenarios and silently enable profiling to
// re-optimize the distribution." Here Octarine is profiled on text-document
// usage only and ships the text-optimal cut. The user then starts
// alternating text work with table-heavy documents — components the
// profiling scenarios never instantiated. Those land as fresh runtime
// classifications with default (client) placement and hammer the
// server-pinned storage across the wire; every static cut derived from the
// shipped profile keeps paying that penalty. The online repartitioner
// counts live messages, detects the drift, registers the unprofiled
// classifications, re-cuts the sliding-window graph, and migrates live
// instances — paying the modeled state-transfer bill — after which table
// phases run near their hindsight optimum. Hysteresis plus the rent-or-buy
// rule bound the number of repartitions.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/apps/octarine.h"
#include "src/obs/obs.h"
#include "src/online/measure_online.h"

using namespace coign;  // NOLINT: bench binary.

namespace {

// Wall-clock cost of a closure — the one place wall time belongs: pricing
// the tracer itself. Modeled results stay deterministic either way.
template <typename Fn>
double WallSeconds(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - start).count();
}

// Profiles scenarios with a pre-imported classification table so every
// candidate cut speaks the same classification ids.
Result<IccProfile> ProfileWithTable(Application& app, const std::vector<std::string>& ids,
                                    const std::vector<Descriptor>& table) {
  ObjectSystem system;
  COIGN_RETURN_IF_ERROR(app.Install(&system));
  ConfigurationRecord config;
  config.mode = RuntimeMode::kProfiling;
  config.classifier_table = table;
  CoignRuntime runtime(&system, config);
  Rng rng(17);
  for (const std::string& id : ids) {
    Result<Scenario> scenario = app.FindScenario(id);
    if (!scenario.ok()) {
      return scenario.status();
    }
    runtime.BeginScenario();
    COIGN_RETURN_IF_ERROR(scenario->run(system, rng));
    system.DestroyAll();
  }
  return runtime.profiling_logger()->profile();
}

}  // namespace

int main() {
  std::unique_ptr<Application> app = MakeOctarine();

  // Everything the operator profiled: text usage only.
  const std::vector<std::string> kTextScenarios = {"o_oldwp0", "o_oldwp3", "o_oldwp7"};

  std::vector<Descriptor> table;
  Result<IccProfile> text_profile =
      ProfileScenarios(*app, kTextScenarios, ClassifierKind::kInternalFunctionCalledBy,
                       kCompleteStackWalk, 17, &table);
  if (!text_profile.ok()) {
    std::fprintf(stderr, "profile: %s\n", text_profile.status().ToString().c_str());
    return 1;
  }
  Result<IccProfile> wp3_profile = ProfileWithTable(*app, {"o_oldwp3"}, table);
  if (!wp3_profile.ok()) {
    std::fprintf(stderr, "wp3 profile: %s\n", wp3_profile.status().ToString().c_str());
    return 1;
  }

  const NetworkModel network = NetworkModel::TenBaseT();
  const NetworkProfile fitted = FitNetwork(network);
  ProfileAnalysisEngine engine;

  struct StaticCandidate {
    const char* label;
    Distribution distribution;
  };
  std::vector<StaticCandidate> candidates;
  for (const auto& [label, profile] :
       {std::pair<const char*, const IccProfile*>{"static: text-profile cut",
                                                  &*text_profile},
        {"static: wp3-only cut", &*wp3_profile}}) {
    Result<AnalysisResult> analysis = engine.Analyze(*profile, fitted);
    if (!analysis.ok()) {
      std::fprintf(stderr, "%s: %s\n", label, analysis.status().ToString().c_str());
      return 1;
    }
    candidates.push_back({label, analysis->distribution});
  }

  // Hindsight oracle: a cut from a profile that DID cover table usage.
  // Not deployable in this story (the operator never profiled tables);
  // printed as the bound the adaptive run should approach.
  std::vector<std::string> oracle_ids = kTextScenarios;
  oracle_ids.push_back("o_mixed9");
  std::vector<Descriptor> oracle_table;
  Result<IccProfile> oracle_profile =
      ProfileScenarios(*app, oracle_ids, ClassifierKind::kInternalFunctionCalledBy,
                       kCompleteStackWalk, 17, &oracle_table);
  if (!oracle_profile.ok()) {
    std::fprintf(stderr, "oracle profile: %s\n",
                 oracle_profile.status().ToString().c_str());
    return 1;
  }
  Result<AnalysisResult> oracle_cut = engine.Analyze(*oracle_profile, fitted);
  if (!oracle_cut.ok()) {
    std::fprintf(stderr, "oracle cut: %s\n", oracle_cut.status().ToString().c_str());
    return 1;
  }

  // Phase-shifting workload: three text runs, then three table runs, cycled.
  const std::vector<OnlinePhase> workload =
      CyclicWorkload({"o_oldwp3", "o_mixed9"}, /*repetitions=*/3, /*cycles=*/3);
  const uint64_t phase_shifts = 2 * 3 - 1;  // Shifts between the 6 phases.

  ConfigurationRecord config;
  config.mode = RuntimeMode::kDistributed;
  config.classifier_table = table;

  OnlineMeasurementOptions options;
  options.network = network;
  options.fitted = fitted;
  options.online.window.decay = 0.5;
  options.online.policy.min_window_messages = 50.0;
  options.online.policy.min_relative_gain = 0.05;
  options.online.policy.horizon_windows = 2.0;
  options.online.policy.state_bytes_per_instance = 4096;
  options.online.cooldown_epochs = 1;

  std::printf(
      "Extension: online repartitioning on Octarine (profiled on text only;\n"
      "workload alternates text/table-mix phases, 3 runs per phase, 3 cycles, %s).\n\n",
      network.name.c_str());
  PrintRule(86);
  std::printf("%-34s %12s %12s %8s %7s\n", "Run", "Comm (s)", "Exec (s)", "Moves",
              "Recuts");
  PrintRule(86);

  double best_static = -1.0;
  const char* best_label = nullptr;
  for (const StaticCandidate& candidate : candidates) {
    ConfigurationRecord static_config = config;
    static_config.distribution = candidate.distribution;
    OnlineMeasurementOptions static_options = options;
    static_options.adaptive = false;
    Result<OnlineRunResult> run =
        MeasureOnlineRun(*app, workload, static_config, *text_profile, static_options);
    if (!run.ok()) {
      std::fprintf(stderr, "%s: %s\n", candidate.label, run.status().ToString().c_str());
      return 1;
    }
    std::printf("%-34s %12.3f %12.3f %8s %7s\n", candidate.label,
                run->run.communication_seconds, run->run.execution_seconds, "-", "-");
    if (best_static < 0.0 || run->run.execution_seconds < best_static) {
      best_static = run->run.execution_seconds;
      best_label = candidate.label;
    }
  }

  // Oracle reference row (its own classifier table: hindsight knowledge).
  double oracle_seconds = 0.0;
  {
    ConfigurationRecord oracle_config;
    oracle_config.mode = RuntimeMode::kDistributed;
    oracle_config.classifier_table = oracle_table;
    oracle_config.distribution = oracle_cut->distribution;
    OnlineMeasurementOptions oracle_options = options;
    oracle_options.adaptive = false;
    Result<OnlineRunResult> run = MeasureOnlineRun(*app, workload, oracle_config,
                                                   *oracle_profile, oracle_options);
    if (!run.ok()) {
      std::fprintf(stderr, "oracle: %s\n", run.status().ToString().c_str());
      return 1;
    }
    oracle_seconds = run->run.execution_seconds;
    std::printf("%-34s %12.3f %12.3f %8s %7s\n", "oracle: text+table cut (ref)",
                run->run.communication_seconds, run->run.execution_seconds, "-", "-");
  }

  ConfigurationRecord adaptive_config = config;
  adaptive_config.distribution = candidates.front().distribution;  // Ship the text cut.
  Result<OnlineRunResult> adaptive =
      MeasureOnlineRun(*app, workload, adaptive_config, *text_profile, options);
  if (!adaptive.ok()) {
    std::fprintf(stderr, "adaptive: %s\n", adaptive.status().ToString().c_str());
    return 1;
  }
  std::printf("%-34s %12.3f %12.3f %8llu %7llu\n", "online repartitioning",
              adaptive->run.communication_seconds, adaptive->run.execution_seconds,
              static_cast<unsigned long long>(adaptive->online.instances_moved),
              static_cast<unsigned long long>(adaptive->online.repartitions));

  // Tracing overhead: the identical adaptive run with the observability
  // subsystem attached. Modeled results must be byte-identical (tracing
  // never touches the simulation clock or RNG); the wall-clock delta is
  // the tracer's real cost, kept under the 5% budget.
  Observability obs;
  OnlineMeasurementOptions traced_options = options;
  traced_options.obs = &obs;
  const double untraced_wall = WallSeconds([&] {
    Result<OnlineRunResult> rerun =
        MeasureOnlineRun(*app, workload, adaptive_config, *text_profile, options);
    if (!rerun.ok()) {
      std::exit(1);
    }
  });
  Result<OnlineRunResult> traced = InternalError("traced run never ran");
  const double traced_wall = WallSeconds([&] {
    traced = MeasureOnlineRun(*app, workload, adaptive_config, *text_profile,
                              traced_options);
    if (!traced.ok()) {
      std::exit(1);
    }
  });
  std::printf("%-34s %12.3f %12.3f %8llu %7llu\n", "online repartitioning (traced)",
              traced->run.communication_seconds, traced->run.execution_seconds,
              static_cast<unsigned long long>(traced->online.instances_moved),
              static_cast<unsigned long long>(traced->online.repartitions));
  PrintRule(86);

  const bool traced_matches =
      traced->run.communication_seconds == adaptive->run.communication_seconds &&
      traced->run.execution_seconds == adaptive->run.execution_seconds &&
      traced->online.repartitions == adaptive->online.repartitions &&
      traced->online.instances_moved == adaptive->online.instances_moved;
  const double overhead =
      untraced_wall > 0.0 ? traced_wall / untraced_wall - 1.0 : 0.0;
  std::printf(
      "\ntracing: %llu events recorded (%llu dropped), wall %.3fs -> %.3fs "
      "(%+.1f%% overhead)\n",
      static_cast<unsigned long long>(obs.tracer().recorded()),
      static_cast<unsigned long long>(obs.tracer().dropped()), untraced_wall,
      traced_wall, 100.0 * overhead);

  const OnlineStats& stats = adaptive->online;
  std::printf("\n%s\n", stats.ToString().c_str());
  std::printf("final drift: %s\n", adaptive->final_drift.ToString().c_str());
  const double savings = best_static > 0.0
                             ? 100.0 * (1.0 - adaptive->run.execution_seconds / best_static)
                             : 0.0;
  std::printf(
      "best deployable static: %s (%.3f s); online saves %.1f%%\n"
      "(oracle bound %.3f s) including %.4f s / %llu bytes of migration traffic.\n",
      best_label, best_static, savings, oracle_seconds, stats.migration_seconds,
      static_cast<unsigned long long>(stats.migration_bytes));
  std::printf(
      "hysteresis/cooldown bound adaptation: %llu repartitions across %llu phase\n"
      "shifts (%llu hysteresis rejections, %llu rent-or-buy rejections).\n",
      static_cast<unsigned long long>(stats.repartitions),
      static_cast<unsigned long long>(phase_shifts),
      static_cast<unsigned long long>(stats.hysteresis_rejections),
      static_cast<unsigned long long>(stats.cost_rejections));
  if (adaptive->run.execution_seconds >= best_static) {
    std::printf("WARNING: adaptive run did not beat the best static cut.\n");
    return 1;
  }
  if (stats.repartitions > phase_shifts + 1) {
    std::printf("WARNING: repartition thrash (%llu > %llu).\n",
                static_cast<unsigned long long>(stats.repartitions),
                static_cast<unsigned long long>(phase_shifts + 1));
    return 1;
  }
  // Tracing must be a pure observer: any drift in modeled results means it
  // leaked into the simulation, which is a bug, not overhead.
  if (!traced_matches) {
    std::printf("WARNING: traced run's modeled results differ from untraced.\n");
    return 1;
  }
  if (overhead > 0.05) {
    std::printf("WARNING: tracing overhead %.1f%% exceeds the 5%% budget "
                "(informational; wall clock is noisy).\n",
                100.0 * overhead);
  }
  return 0;
}
