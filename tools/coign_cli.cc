// coign: the command-line face of the toolset, mirroring the paper's
// workflow over real files.
//
//   coign list
//       Applications and their Table 1 scenarios.
//   coign profile --scenario <id> [--scenario <id> ...] -o <base>
//       Scenario-based profiling of the owning application; writes
//       <base>.profile (the ICC profile log) and <base>.config (a
//       profiling-mode configuration record carrying the classification
//       table).
//   coign analyze -i <base> [--network <name>] [--dot <file>]
//       Combines the profile with a fitted network profile, cuts the
//       graph, prints the distribution report and hot spots, and writes
//       <base>.dist (a distributed-mode configuration record: the data the
//       binary rewriter would put into the application binary).
//   coign measure -i <base> --scenario <id> [--network <name>]
//       Runs the scenario under the developer default and under the
//       distribution in <base>.dist; prints a Table 4 style row.
//   coign online -i <base> --scenario <id> [--scenario <id> ...]
//               [--network <name>] [--cycles <n>] [--reps <n>] [--cold-cuts]
//       Replays the scenarios as a cyclic phase-shifting workload under
//       the distribution in <base>.dist, once statically and once with
//       the online repartitioner adapting as usage drifts from the
//       profile; prints both runs and the adaptation statistics.
//       --cold-cuts re-cuts with the paper's relabel-to-front algorithm
//       instead of the push-relabel engine; the report is unchanged.
//   coign chaos -i <base> --scenario <id> [--scenario <id> ...]
//              [--network <name>] [--cycles <n>] [--reps <n>]
//              [--seed <n>] [--drop <p>] [--corrupt-rate <p>] [--cold-cuts]
//       Replays the same workload under a seeded random fault schedule
//       (loss/duplication/reorder bursts, latency and bandwidth spikes,
//       partitions, crash-restart) with the hardened transport: static
//       distribution, adaptive with fault quarantine, and adaptive with
//       quarantine disabled. Fully deterministic per seed — identical
//       invocations print identical bytes. --cold-cuts as for online.
//   coign fleet -i <base> [--clients <n>] [--seed <n>] [--lossy <fraction>]
//       Plans the profiled application for a simulated fleet of clients
//       with heterogeneous measured networks. Solves the profile's exact
//       cut envelope once — one cut per range of the byte-to-message cost
//       ratio λ — and serves every client the exact optimal cut for its
//       own loss-inflated link.
//       Prints the envelope's breakpoints and one row per occupied
//       segment. Output is deterministic per seed.
//
// Networks: isdn, 10baset, 100baset, atm, san.

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/dot_export.h"
#include "src/analysis/engine.h"
#include "src/analysis/hotspots.h"
#include "src/analysis/report.h"
#include "src/apps/suite.h"
#include "src/fault/injector.h"
#include "src/fleet/fingerprint.h"
#include "src/fleet/service.h"
#include "src/net/network_profiler.h"
#include "src/obs/obs.h"
#include "src/sim/fleet_population.h"
#include "src/online/measure_online.h"
#include "src/profile/log_file.h"
#include "src/runtime/rte.h"
#include "src/sim/measurement.h"
#include "src/support/file_io.h"
#include "src/support/str_util.h"

namespace coign {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  coign list\n"
               "  coign profile --scenario <id> [--scenario <id> ...] -o <base>\n"
               "  coign analyze -i <base> [--network <name>] [--dot <file>]\n"
               "  coign measure -i <base> --scenario <id> [--network <name>]\n"
               "  coign online -i <base> --scenario <id> [--scenario <id> ...]\n"
               "              [--network <name>] [--cycles <n>] [--reps <n>]\n"
               "              [--cold-cuts] [--trace-out <file>] [--metrics-out <file>]\n"
               "  coign chaos -i <base> --scenario <id> [--scenario <id> ...]\n"
               "             [--network <name>] [--cycles <n>] [--reps <n>]\n"
               "             [--seed <n>] [--drop <p>] [--corrupt-rate <p>] [--storm]\n"
               "             [--cold-cuts] [--trace-out <file>] [--metrics-out <file>]\n"
               "  coign fleet -i <base> [--clients <n>] [--seed <n>] [--lossy <fraction>]\n"
               "             [--trace-out <file>] [--metrics-out <file>]\n");
  return 2;
}

Result<NetworkModel> NetworkByName(const std::string& name) {
  if (name == "isdn") {
    return NetworkModel::Isdn();
  }
  if (name == "10baset") {
    return NetworkModel::TenBaseT();
  }
  if (name == "100baset") {
    return NetworkModel::HundredBaseT();
  }
  if (name == "atm") {
    return NetworkModel::Atm155();
  }
  if (name == "san") {
    return NetworkModel::San();
  }
  return NotFoundError("unknown network (use isdn|10baset|100baset|atm|san): " + name);
}

struct Flags {
  std::vector<std::string> scenarios;
  std::string output_base;
  std::string input_base;
  std::string network = "10baset";
  std::string dot_path;
  int cycles = 2;
  int reps = 3;
  uint64_t seed = 42;
  double drop = 0.01;
  // chaos --corrupt-rate: bad-state payload-corruption probability. > 0
  // adds corrupt-burst episodes (per-direction in storm mode) and arms the
  // circuit breaker + degrade-to-local safe mode on the hardened run.
  double corrupt_rate = 0.0;
  int clients = 2000;
  // chaos --storm: crash-storm schedule with coordinator crashes forced
  // mid-migration (exercises journaled recovery end to end).
  bool storm = false;
  // fleet --lossy: fraction of generated clients with a lossy link (their
  // predicted times carry the retransmissions; their cuts do not move).
  double lossy_fraction = 0.25;
  // --trace-out / --metrics-out: write the run's Chrome trace_event JSON
  // and metrics snapshot. Deterministic: same seed, byte-identical files.
  std::string trace_out;
  std::string metrics_out;
  // online/chaos --cold-cuts: re-cut with the paper's relabel-to-front
  // algorithm instead of the push-relabel engine. Exactness
  // says both produce identical partitions; CI diffs the two runs'
  // reports to prove it end to end.
  bool cold_cuts = false;
};

Result<Flags> ParseFlags(int argc, char** argv, int first) {
  Flags flags;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> Result<std::string> {
      if (i + 1 >= argc) {
        return InvalidArgumentError("missing value after " + arg);
      }
      return std::string(argv[++i]);
    };
    if (arg == "--scenario") {
      Result<std::string> value = next();
      if (!value.ok()) {
        return value.status();
      }
      flags.scenarios.push_back(*value);
    } else if (arg == "-o") {
      Result<std::string> value = next();
      if (!value.ok()) {
        return value.status();
      }
      flags.output_base = *value;
    } else if (arg == "-i") {
      Result<std::string> value = next();
      if (!value.ok()) {
        return value.status();
      }
      flags.input_base = *value;
    } else if (arg == "--network") {
      Result<std::string> value = next();
      if (!value.ok()) {
        return value.status();
      }
      flags.network = *value;
    } else if (arg == "--dot") {
      Result<std::string> value = next();
      if (!value.ok()) {
        return value.status();
      }
      flags.dot_path = *value;
    } else if (arg == "--cycles" || arg == "--reps" || arg == "--clients") {
      Result<std::string> value = next();
      if (!value.ok()) {
        return value.status();
      }
      int parsed = 0;
      if (!ParseDecimal(*value, &parsed) || parsed <= 0) {
        return InvalidArgumentError(arg + " wants a positive integer, got " + *value);
      }
      (arg == "--cycles" ? flags.cycles : arg == "--reps" ? flags.reps : flags.clients) =
          parsed;
    } else if (arg == "--seed") {
      Result<std::string> value = next();
      if (!value.ok()) {
        return value.status();
      }
      if (!ParseDecimal(*value, &flags.seed)) {
        return InvalidArgumentError(arg + " wants a non-negative integer, got " + *value);
      }
    } else if (arg == "--drop" || arg == "--corrupt-rate") {
      Result<std::string> value = next();
      if (!value.ok()) {
        return value.status();
      }
      // Written so that NaN fails the range check too.
      double parsed = 0.0;
      if (!ParseDouble(*value, &parsed) || !(parsed >= 0.0 && parsed < 1.0)) {
        return InvalidArgumentError(arg + " wants a probability in [0, 1), got " + *value);
      }
      (arg == "--drop" ? flags.drop : flags.corrupt_rate) = parsed;
    } else if (arg == "--storm") {
      flags.storm = true;
    } else if (arg == "--cold-cuts") {
      flags.cold_cuts = true;
    } else if (arg == "--lossy") {
      Result<std::string> value = next();
      if (!value.ok()) {
        return value.status();
      }
      double parsed = 0.0;
      if (!ParseDouble(*value, &parsed) || !(parsed >= 0.0 && parsed <= 1.0)) {
        return InvalidArgumentError(arg + " wants a fraction in [0, 1], got " + *value);
      }
      flags.lossy_fraction = parsed;
    } else if (arg == "--trace-out") {
      Result<std::string> value = next();
      if (!value.ok()) {
        return value.status();
      }
      flags.trace_out = *value;
    } else if (arg == "--metrics-out") {
      Result<std::string> value = next();
      if (!value.ok()) {
        return value.status();
      }
      flags.metrics_out = *value;
    } else {
      return InvalidArgumentError("unknown flag: " + arg);
    }
  }
  return flags;
}

// Builds the run's Observability when either output flag was given; null
// (and therefore zero instrumentation cost) otherwise. Flight-recorder
// dumps land next to the trace file.
std::unique_ptr<Observability> MakeObservability(const Flags& flags) {
  if (flags.trace_out.empty() && flags.metrics_out.empty()) {
    return nullptr;
  }
  auto obs = std::make_unique<Observability>();
  if (!flags.trace_out.empty()) {
    obs->SetDumpPrefix(flags.trace_out + ".dump");
  }
  return obs;
}

// Writes the --trace-out / --metrics-out artifacts for a finished run.
int DumpObservability(Observability& obs, const Flags& flags) {
  if (!flags.trace_out.empty()) {
    const Status wrote = obs.WriteTrace(flags.trace_out);
    if (!wrote.ok()) {
      std::fprintf(stderr, "%s\n", wrote.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s (%llu event(s), %llu dropped)\n", flags.trace_out.c_str(),
                static_cast<unsigned long long>(obs.tracer().recorded()),
                static_cast<unsigned long long>(obs.tracer().dropped()));
  }
  if (!flags.metrics_out.empty()) {
    const Status wrote = obs.WriteMetrics(flags.metrics_out);
    if (!wrote.ok()) {
      std::fprintf(stderr, "%s\n", wrote.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", flags.metrics_out.c_str());
  }
  return 0;
}

int CmdList() {
  for (const std::unique_ptr<Application>& app : BuildApplicationSuite()) {
    std::printf("%s\n", app->name().c_str());
    for (const Scenario& scenario : app->Scenarios()) {
      std::printf("  %-10s %s\n", scenario.id.c_str(), scenario.description.c_str());
    }
  }
  return 0;
}

int CmdProfile(const Flags& flags) {
  if (flags.scenarios.empty() || flags.output_base.empty()) {
    return Usage();
  }
  Result<std::unique_ptr<Application>> app =
      BuildApplicationForScenario(flags.scenarios.front());
  if (!app.ok()) {
    std::fprintf(stderr, "%s\n", app.status().ToString().c_str());
    return 1;
  }

  ObjectSystem system;
  Status installed = (*app)->Install(&system);
  if (!installed.ok()) {
    std::fprintf(stderr, "%s\n", installed.ToString().c_str());
    return 1;
  }
  BinaryRewriter rewriter;
  Result<ApplicationImage> image = rewriter.Instrument((*app)->Image(), ConfigurationRecord());
  if (!image.ok()) {
    std::fprintf(stderr, "%s\n", image.status().ToString().c_str());
    return 1;
  }
  Result<std::unique_ptr<CoignRuntime>> runtime = CoignRuntime::LoadFromImage(&system, *image);
  if (!runtime.ok()) {
    std::fprintf(stderr, "%s\n", runtime.status().ToString().c_str());
    return 1;
  }

  Rng rng(17);
  for (const std::string& id : flags.scenarios) {
    Result<Scenario> scenario = (*app)->FindScenario(id);
    if (!scenario.ok()) {
      std::fprintf(stderr, "%s\n", scenario.status().ToString().c_str());
      return 1;
    }
    (*runtime)->BeginScenario();
    const Status run = scenario->run(system, rng);
    if (!run.ok()) {
      std::fprintf(stderr, "%s: %s\n", id.c_str(), run.ToString().c_str());
      return 1;
    }
    system.DestroyAll();
    std::printf("profiled %s\n", id.c_str());
  }

  const IccProfile& profile = (*runtime)->profiling_logger()->profile();
  const Status wrote_profile =
      WriteProfileFile(profile, flags.output_base + ".profile");
  if (!wrote_profile.ok()) {
    std::fprintf(stderr, "%s\n", wrote_profile.ToString().c_str());
    return 1;
  }
  ConfigurationRecord config;
  config.classifier_table = (*runtime)->classifier().ExportDescriptors();
  const Status wrote_config = WriteFile(flags.output_base + ".config", config.Serialize(),
                                        "configuration record");
  if (!wrote_config.ok()) {
    std::fprintf(stderr, "%s\n", wrote_config.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s.profile (%llu calls, %zu classifications) and %s.config\n",
              flags.output_base.c_str(),
              static_cast<unsigned long long>(profile.total_calls()),
              profile.classifications().size(), flags.output_base.c_str());
  return 0;
}

int CmdAnalyze(const Flags& flags) {
  if (flags.input_base.empty()) {
    return Usage();
  }
  Result<IccProfile> profile = ReadProfileFile(flags.input_base + ".profile");
  if (!profile.ok()) {
    std::fprintf(stderr, "%s\n", profile.status().ToString().c_str());
    return 1;
  }
  Result<std::string> config_text =
      ReadFile(flags.input_base + ".config", "configuration record");
  if (!config_text.ok()) {
    std::fprintf(stderr, "%s\n", config_text.status().ToString().c_str());
    return 1;
  }
  Result<ConfigurationRecord> config = ConfigurationRecord::Parse(*config_text);
  if (!config.ok()) {
    std::fprintf(stderr, "%s\n", config.status().ToString().c_str());
    return 1;
  }
  Result<NetworkModel> network = NetworkByName(flags.network);
  if (!network.ok()) {
    std::fprintf(stderr, "%s\n", network.status().ToString().c_str());
    return 1;
  }

  Rng rng(23);
  const NetworkProfile fitted = ProfileNetwork(Transport(*network), rng);
  std::printf("network %s: %.1f us/message + %.1f ns/byte (r^2 %.4f)\n\n",
              fitted.network_name.c_str(), fitted.per_message_seconds * 1e6,
              fitted.seconds_per_byte * 1e9, fitted.fit_r_squared);

  ProfileAnalysisEngine engine;
  Result<AnalysisResult> analysis = engine.Analyze(*profile, fitted);
  if (!analysis.ok()) {
    std::fprintf(stderr, "%s\n", analysis.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", DistributionReport(*profile, *analysis).c_str());
  std::printf("%s\n", HotSpotReport(FindHotSpots(*profile, analysis->distribution, fitted,
                                                 nullptr, 8))
                          .c_str());

  config->mode = RuntimeMode::kDistributed;
  config->distribution = analysis->distribution;
  const Status wrote =
      WriteFile(flags.input_base + ".dist", config->Serialize(), "distribution record");
  if (!wrote.ok()) {
    std::fprintf(stderr, "%s\n", wrote.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s.dist\n", flags.input_base.c_str());

  if (!flags.dot_path.empty()) {
    const Status dot = WriteDistributionDot(*profile, *analysis, flags.dot_path);
    if (!dot.ok()) {
      std::fprintf(stderr, "%s\n", dot.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", flags.dot_path.c_str());
  }
  return 0;
}

int CmdMeasure(const Flags& flags) {
  if (flags.input_base.empty() || flags.scenarios.size() != 1) {
    return Usage();
  }
  const std::string& scenario_id = flags.scenarios.front();
  Result<std::unique_ptr<Application>> app = BuildApplicationForScenario(scenario_id);
  if (!app.ok()) {
    std::fprintf(stderr, "%s\n", app.status().ToString().c_str());
    return 1;
  }
  Result<std::string> dist_text =
      ReadFile(flags.input_base + ".dist", "distribution record");
  if (!dist_text.ok()) {
    std::fprintf(stderr, "%s (run `coign analyze` first)\n",
                 dist_text.status().ToString().c_str());
    return 1;
  }
  Result<ConfigurationRecord> config = ConfigurationRecord::Parse(*dist_text);
  if (!config.ok()) {
    std::fprintf(stderr, "%s\n", config.status().ToString().c_str());
    return 1;
  }
  Result<NetworkModel> network = NetworkByName(flags.network);
  if (!network.ok()) {
    std::fprintf(stderr, "%s\n", network.status().ToString().c_str());
    return 1;
  }

  MeasurementOptions options;
  options.network = *network;
  Rng rng(17);

  double default_seconds = 0.0;
  {
    ObjectSystem system;
    Status installed = (*app)->Install(&system);
    if (!installed.ok()) {
      return 1;
    }
    const ClassPlacement placement = (*app)->DefaultPlacement(system);
    system.SetPlacementPolicy(placement.AsPolicy());
    Result<Scenario> scenario = (*app)->FindScenario(scenario_id);
    Result<RunMeasurement> run = MeasureRun(
        system, [&](ObjectSystem& sys) { return scenario->run(sys, rng); }, options);
    if (!run.ok()) {
      std::fprintf(stderr, "default run: %s\n", run.status().ToString().c_str());
      return 1;
    }
    default_seconds = run->communication_seconds;
  }

  double coign_seconds = 0.0;
  {
    ObjectSystem system;
    Status installed = (*app)->Install(&system);
    if (!installed.ok()) {
      return 1;
    }
    CoignRuntime runtime(&system, *config);
    runtime.BeginScenario();
    Result<Scenario> scenario = (*app)->FindScenario(scenario_id);
    Result<RunMeasurement> run = MeasureRun(
        system, [&](ObjectSystem& sys) { return scenario->run(sys, rng); }, options);
    if (!run.ok()) {
      std::fprintf(stderr, "coign run: %s\n", run.status().ToString().c_str());
      return 1;
    }
    coign_seconds = run->communication_seconds;
  }

  const double savings =
      default_seconds > 0.0 ? 100.0 * (1.0 - coign_seconds / default_seconds) : 0.0;
  std::printf("%-10s | default %.3f s | coign %.3f s | savings %.0f%%\n",
              scenario_id.c_str(), default_seconds, coign_seconds, savings);
  return 0;
}

// What `coign online` and `coign chaos` replay: the first scenario's
// application, <base>.profile, the distribution in <base>.dist, and run
// options on the named network priced at its profiled fit (re-cut with
// relabel-to-front under --cold-cuts).
struct OnlineInputs {
  std::unique_ptr<Application> app;
  IccProfile profile;
  ConfigurationRecord config;
  OnlineMeasurementOptions options;
};

// Loads the inputs, or prints why it could not and returns null.
std::unique_ptr<OnlineInputs> LoadOnlineInputs(const Flags& flags) {
  Result<std::unique_ptr<Application>> app =
      BuildApplicationForScenario(flags.scenarios.front());
  if (!app.ok()) {
    std::fprintf(stderr, "%s\n", app.status().ToString().c_str());
    return nullptr;
  }
  Result<IccProfile> profile = ReadProfileFile(flags.input_base + ".profile");
  if (!profile.ok()) {
    std::fprintf(stderr, "%s\n", profile.status().ToString().c_str());
    return nullptr;
  }
  Result<std::string> dist_text =
      ReadFile(flags.input_base + ".dist", "distribution record");
  if (!dist_text.ok()) {
    std::fprintf(stderr, "%s (run `coign analyze` first)\n",
                 dist_text.status().ToString().c_str());
    return nullptr;
  }
  Result<ConfigurationRecord> config = ConfigurationRecord::Parse(*dist_text);
  if (!config.ok()) {
    std::fprintf(stderr, "%s\n", config.status().ToString().c_str());
    return nullptr;
  }
  Result<NetworkModel> network = NetworkByName(flags.network);
  if (!network.ok()) {
    std::fprintf(stderr, "%s\n", network.status().ToString().c_str());
    return nullptr;
  }

  auto inputs = std::make_unique<OnlineInputs>();
  inputs->app = std::move(*app);
  inputs->profile = std::move(*profile);
  inputs->config = std::move(*config);
  Rng rng(23);
  inputs->options.network = *network;
  inputs->options.fitted = ProfileNetwork(Transport(*network), rng);
  if (flags.cold_cuts) {
    inputs->options.online.analysis.algorithm = CutAlgorithm::kRelabelToFront;
  }
  return inputs;
}

int CmdOnline(const Flags& flags) {
  if (flags.input_base.empty() || flags.scenarios.empty()) {
    return Usage();
  }
  const std::unique_ptr<OnlineInputs> inputs = LoadOnlineInputs(flags);
  if (inputs == nullptr) {
    return 1;
  }
  OnlineMeasurementOptions& options = inputs->options;

  const std::vector<OnlinePhase> workload =
      CyclicWorkload(flags.scenarios, flags.reps, flags.cycles);
  std::printf("workload: %zu scenario(s) x %d rep(s) x %d cycle(s) = %zu epochs on %s\n",
              flags.scenarios.size(), flags.reps, flags.cycles, workload.size() *
                  static_cast<size_t>(flags.reps), options.network.name.c_str());

  options.adaptive = false;
  Result<OnlineRunResult> fixed =
      MeasureOnlineRun(*inputs->app, workload, inputs->config, inputs->profile, options);
  if (!fixed.ok()) {
    std::fprintf(stderr, "static run: %s\n", fixed.status().ToString().c_str());
    return 1;
  }
  // Instrumentation rides the adaptive run only; the static baseline stays
  // byte-identical to an untraced invocation.
  std::unique_ptr<Observability> obs = MakeObservability(flags);
  options.adaptive = true;
  options.obs = obs.get();
  Result<OnlineRunResult> adaptive =
      MeasureOnlineRun(*inputs->app, workload, inputs->config, inputs->profile, options);
  if (!adaptive.ok()) {
    std::fprintf(stderr, "adaptive run: %s\n", adaptive.status().ToString().c_str());
    return 1;
  }

  std::printf("static   | comm %.3f s | exec %.3f s\n",
              fixed->run.communication_seconds, fixed->run.execution_seconds);
  std::printf("adaptive | comm %.3f s | exec %.3f s | %llu repartitions, %llu moves\n",
              adaptive->run.communication_seconds, adaptive->run.execution_seconds,
              static_cast<unsigned long long>(adaptive->online.repartitions),
              static_cast<unsigned long long>(adaptive->online.instances_moved));
  std::printf("%s\n", adaptive->online.ToString().c_str());
  std::printf("final drift: %s\n", adaptive->final_drift.ToString().c_str());
  const double savings =
      fixed->run.execution_seconds > 0.0
          ? 100.0 * (1.0 - adaptive->run.execution_seconds / fixed->run.execution_seconds)
          : 0.0;
  std::printf("online adaptation saves %.1f%% vs the shipped static distribution\n",
              savings);
  if (obs != nullptr) {
    return DumpObservability(*obs, flags);
  }
  return 0;
}

int CmdChaos(const Flags& flags) {
  if (flags.input_base.empty() || flags.scenarios.empty()) {
    return Usage();
  }
  const std::unique_ptr<OnlineInputs> inputs = LoadOnlineInputs(flags);
  if (inputs == nullptr) {
    return 1;
  }
  OnlineMeasurementOptions& options = inputs->options;
  options.retry = SuggestedRetryPolicy(options.network);

  const std::vector<OnlinePhase> workload =
      CyclicWorkload(flags.scenarios, flags.reps, flags.cycles);

  // The fault-free static run sizes the schedule horizon in modeled time.
  options.adaptive = false;
  Result<OnlineRunResult> clean_static =
      MeasureOnlineRun(*inputs->app, workload, inputs->config, inputs->profile, options);
  if (!clean_static.ok()) {
    std::fprintf(stderr, "fault-free static run: %s\n",
                 clean_static.status().ToString().c_str());
    return 1;
  }
  options.adaptive = true;
  Result<OnlineRunResult> clean_adaptive =
      MeasureOnlineRun(*inputs->app, workload, inputs->config, inputs->profile, options);
  if (!clean_adaptive.ok()) {
    std::fprintf(stderr, "fault-free adaptive run: %s\n",
                 clean_adaptive.status().ToString().c_str());
    return 1;
  }

  FaultSchedule schedule;
  if (flags.storm) {
    CrashStormOptions storm_options;
    storm_options.horizon_seconds = clean_static->run.execution_seconds;
    storm_options.corruption_rate = flags.corrupt_rate;
    schedule = FaultSchedule::CrashStorm(storm_options, flags.seed);
  } else {
    RandomFaultOptions fault_options;
    fault_options.horizon_seconds = clean_static->run.execution_seconds;
    fault_options.mean_duration_seconds = fault_options.horizon_seconds / 8.0;
    if (flags.corrupt_rate > 0.0) {
      // The flag caps the drawn bad-state corrupt probability, so the
      // requested rate is the storm's worst case.
      fault_options.corrupt_burst_max = flags.corrupt_rate;
    }
    schedule = FaultSchedule::Random(fault_options, flags.seed);
  }
  FaultRates background;
  background.drop = flags.drop;

  std::printf("chaos seed %llu on %s%s: %zu episode(s), background drop %.1f%%",
              static_cast<unsigned long long>(flags.seed), options.network.name.c_str(),
              flags.storm ? " (crash storm)" : "",
              schedule.episodes().size(), 100.0 * flags.drop);
  if (flags.corrupt_rate > 0.0) {
    std::printf(", corrupt rate %.1f%%", 100.0 * flags.corrupt_rate);
  }
  std::printf("\n");
  std::printf("%s\n\n", schedule.ToString().c_str());
  std::printf("%-26s %10s %10s %7s %6s %12s\n", "run", "comm (s)", "exec (s)", "recuts",
              "moves", "quarantined");

  const auto print_row = [](const char* label, const OnlineRunResult& result,
                            bool adaptive) {
    if (adaptive) {
      std::printf("%-26s %10.3f %10.3f %7llu %6llu %12llu\n", label,
                  result.run.communication_seconds, result.run.execution_seconds,
                  static_cast<unsigned long long>(result.online.repartitions),
                  static_cast<unsigned long long>(result.online.instances_moved),
                  static_cast<unsigned long long>(result.online.quarantined_epochs));
    } else {
      std::printf("%-26s %10.3f %10.3f %7s %6s %12s\n", label,
                  result.run.communication_seconds, result.run.execution_seconds, "-",
                  "-", "-");
    }
  };
  print_row("fault-free static", *clean_static, false);
  print_row("fault-free adaptive", *clean_adaptive, true);

  // Each faulted run replays the identical schedule with a fresh injector
  // so the three runs (and any rerun of this command) see the same network.
  const auto faulted_run = [&](bool adaptive, bool quarantine,
                               Observability* obs) -> Result<OnlineRunResult> {
    FaultInjector injector(schedule, background, flags.seed + 1);
    injector.SetObservability(obs);
    OnlineMeasurementOptions run_options = options;
    run_options.adaptive = adaptive;
    run_options.faults = &injector;
    run_options.obs = obs;
    run_options.online.quarantine.enabled = quarantine;
    // Corruption runs arm the circuit breaker on the hardened
    // configuration only: the comparison run shows what quarantine alone
    // does against a poisoned wire.
    run_options.online.breaker.enabled = quarantine && flags.corrupt_rate > 0.0;
    // Storm mode forces coordinator crashes mid-migration: a deterministic
    // countdown gate (seeded, re-arming with a doubling interval, three
    // crashes per run) interrupts the journaled protocol so recovery and
    // resume run end to end.
    struct StormGate {
      uint64_t step = 0;
      uint64_t next = 0;
      int crashes_left = 3;
    };
    auto gate = std::make_shared<StormGate>();
    if (flags.storm && adaptive) {
      gate->next = 3 + flags.seed % 5;
      run_options.migration_crash_gate = [gate]() {
        if (gate->crashes_left <= 0) {
          return false;
        }
        if (++gate->step >= gate->next) {
          gate->step = 0;
          gate->next *= 2;
          --gate->crashes_left;
          return true;
        }
        return false;
      };
    }
    Result<OnlineRunResult> result =
        MeasureOnlineRun(*inputs->app, workload, inputs->config, inputs->profile, run_options);
    if (result.ok() && adaptive && quarantine) {
      std::printf("faults: %s\n", injector.stats().ToString().c_str());
    }
    return result;
  };

  // Only the fully hardened run (adaptive + quarantine) is traced: that is
  // the configuration a deployment would fly, and the one whose quarantine
  // entries and migration recoveries are worth a flight-recorder dump.
  std::unique_ptr<Observability> obs = MakeObservability(flags);

  Result<OnlineRunResult> faulted_static = faulted_run(false, true, nullptr);
  if (!faulted_static.ok()) {
    std::fprintf(stderr, "static under faults: %s\n",
                 faulted_static.status().ToString().c_str());
    return 1;
  }
  print_row("static under faults", *faulted_static, false);
  Result<OnlineRunResult> naive = faulted_run(true, false, nullptr);
  if (!naive.ok()) {
    std::fprintf(stderr, "adaptive (no quarantine): %s\n",
                 naive.status().ToString().c_str());
    return 1;
  }
  print_row("adaptive (no quarantine)", *naive, true);
  Result<OnlineRunResult> quarantined = faulted_run(true, true, obs.get());
  if (!quarantined.ok()) {
    std::fprintf(stderr, "adaptive (quarantine): %s\n",
                 quarantined.status().ToString().c_str());
    return 1;
  }
  print_row("adaptive (quarantine)", *quarantined, true);

  std::printf("\nonline: %s\n", quarantined->online.ToString().c_str());
  const double ratio =
      clean_adaptive->run.execution_seconds > 0.0
          ? quarantined->run.execution_seconds / clean_adaptive->run.execution_seconds
          : 0.0;
  std::printf(
      "chaos summary: quarantine recuts=%llu naive recuts=%llu quarantined_epochs=%llu "
      "interrupted=%llu resumes=%llu exec vs fault-free adaptive=%.2fx",
      static_cast<unsigned long long>(quarantined->online.repartitions),
      static_cast<unsigned long long>(naive->online.repartitions),
      static_cast<unsigned long long>(quarantined->online.quarantined_epochs),
      static_cast<unsigned long long>(quarantined->online.interrupted_migrations),
      static_cast<unsigned long long>(quarantined->online.migration_resumes), ratio);
  if (flags.corrupt_rate > 0.0) {
    // Integrity verdict: every checksum-rejected delivery was retried
    // instead of consumed, so the storm must not have been able to steer
    // the final partition away from the fault-free adaptive run's.
    const bool same_partition =
        quarantined->final_distribution.placement ==
            clean_adaptive->final_distribution.placement &&
        quarantined->final_distribution.default_machine ==
            clean_adaptive->final_distribution.default_machine;
    std::printf(
        " corrupt_rejected=%llu corrupt_consumed=%llu breaker_trips=%llu "
        "safe_mode_epochs=%llu partitions_match=%s",
        static_cast<unsigned long long>(quarantined->transport.corrupt_rejected),
        static_cast<unsigned long long>(quarantined->transport.corrupt_consumed),
        static_cast<unsigned long long>(quarantined->online.breaker_trips),
        static_cast<unsigned long long>(quarantined->online.safe_mode_epochs),
        same_partition ? "yes" : "no");
  }
  std::printf("\n");
  if (obs != nullptr) {
    return DumpObservability(*obs, flags);
  }
  return 0;
}

int CmdFleet(const Flags& flags) {
  if (flags.input_base.empty()) {
    return Usage();
  }
  Result<IccProfile> profile = ReadProfileFile(flags.input_base + ".profile");
  if (!profile.ok()) {
    std::fprintf(stderr, "%s\n", profile.status().ToString().c_str());
    return 1;
  }

  FleetPopulationOptions population;
  population.client_count = flags.clients;
  population.lossy_fraction = flags.lossy_fraction;
  const std::vector<FleetClient> fleet = GenerateFleet(population, flags.seed);
  size_t lossy_clients = 0;
  for (const FleetClient& client : fleet) {
    if (client.fault_rates.drop > 0.0) {
      ++lossy_clients;
    }
  }

  std::unique_ptr<Observability> obs = MakeObservability(flags);
  FleetServiceOptions options;
  options.obs = obs.get();
  const FleetPartitionService service(options);

  std::printf("fleet: %d client(s) (%zu lossy), seed %llu, profile %016llx\n", flags.clients,
              lossy_clients, static_cast<unsigned long long>(flags.seed),
              static_cast<unsigned long long>(ProfileFingerprint(*profile)));
  Result<FleetPlanResult> planned = service.Plan(*profile, fleet);
  if (!planned.ok()) {
    std::fprintf(stderr, "%s\n", planned.status().ToString().c_str());
    return 1;
  }
  std::printf("envelope: %zu cut(s) from %zu exact solve(s); breakpoints lambda =",
              planned->breakpoints.size() + 1, planned->stats.plans_computed);
  for (const LambdaRatio& breakpoint : planned->breakpoints) {
    std::printf(" %.6e", breakpoint.ToDouble());
  }
  std::printf("%s\n\n", planned->breakpoints.empty() ? " none" : "");
  std::printf("%12s %12s %8s %8s %10s %12s %10s\n", "lambda from", "lambda to", "clients",
              "srv cls", "messages", "bytes", "comm (s)");
  for (const SegmentPlan& plan : planned->plans) {
    // Mean over the members of the cut's communication time at each
    // member's own loss-inflated link.
    double comm_seconds = 0.0;
    for (uint32_t id : plan.members) {
      comm_seconds += LossInflatedLink(fleet[id]).TrafficSeconds(plan.messages, plan.bytes);
    }
    std::printf("%12.6e %12.6e %8zu %8zu %10llu %12llu %10.4f\n", plan.lambda_from.ToDouble(),
                plan.lambda_to.ToDouble(), plan.members.size(),
                plan.analysis.server_classifications,
                static_cast<unsigned long long>(plan.messages),
                static_cast<unsigned long long>(plan.bytes),
                comm_seconds / static_cast<double>(plan.members.size()));
  }
  if (obs != nullptr) {
    return DumpObservability(*obs, flags);
  }
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  const std::string command = argv[1];
  if (command == "list") {
    return CmdList();
  }
  Result<Flags> flags = ParseFlags(argc, argv, 2);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.status().ToString().c_str());
    return Usage();
  }
  if (command == "profile") {
    return CmdProfile(*flags);
  }
  if (command == "analyze") {
    return CmdAnalyze(*flags);
  }
  if (command == "measure") {
    return CmdMeasure(*flags);
  }
  if (command == "online") {
    return CmdOnline(*flags);
  }
  if (command == "chaos") {
    return CmdChaos(*flags);
  }
  if (command == "fleet") {
    return CmdFleet(*flags);
  }
  return Usage();
}

}  // namespace
}  // namespace coign

int main(int argc, char** argv) { return coign::Main(argc, argv); }
