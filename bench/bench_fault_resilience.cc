// Extension: fault resilience of the online repartitioner.
//
// The online loop (bench_online_repartition) assumes the live message
// counts and timings it observes describe the application. Under network
// faults they do not: drops are masked by retries that inflate observed
// per-edge message counts, and latency spikes inflate the live
// per-message estimate the policy prices cuts with. A naive adaptive
// loop ingests those poisoned windows, re-cuts against a transient
// network, migrates real state, and re-cuts back when the episode ends —
// paying migration twice for a distribution that was never better.
//
// The quarantine rule (`QuarantineConfig`) detects fault episodes from
// transport health (faulted-call fraction per epoch) and discards those
// windows wholesale: no weight fold, no estimator update, no evaluation.
// This bench escalates background drop rates over the phase-shifting
// Octarine workload, then adds an episode storm (short latency spikes
// and drop bursts) on top of the 1% level. It asserts the two resilience
// properties the design claims: with quarantine, execution at a 1% drop
// rate stays within 10% of the fault-free adaptive run, and under the
// episode storm the naive loop thrashes (at least 2x the recuts) while
// the quarantined loop keeps adaptation bounded.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/apps/octarine.h"
#include "src/fault/injector.h"
#include "src/online/measure_online.h"

using namespace coign;  // NOLINT: bench binary.

namespace {

struct FaultLevel {
  const char* label;
  double drop;         // Background per-attempt drop probability.
  bool episodes;       // Add scheduled latency/drop episodes.
};

// The episode storm: short, sharp episodes placed at fractions of the
// fault-free horizon — latency spikes interleaved with drop bursts, each
// covering roughly one epoch so the quarantine rule has a clean
// detection target and the naive estimator swings up and decays back
// between episodes.
FaultSchedule EpisodeSchedule(double horizon) {
  std::vector<FaultEpisode> episodes;
  for (int i = 0; i < 8; ++i) {
    FaultEpisode episode;
    episode.kind = i % 2 == 0 ? FaultKind::kLatencySpike : FaultKind::kBandwidthDrop;
    episode.start_seconds = (0.08 + 0.11 * i) * horizon;
    episode.duration_seconds = 0.04 * horizon;
    episode.magnitude = 10.0;
    episodes.push_back(episode);
  }
  return FaultSchedule::FromEpisodes(std::move(episodes));
}

// The corruption storm: one long symmetric corrupt-burst over the middle
// of the run, heavy enough (90% flip probability while the Gilbert chain
// is pinned bad) that an unprotected wire consumes garbage constantly and
// a checksummed one burns most of its retry budget. Scaled to the
// fault-free *adaptive* horizon: the breaker run spends the burst in the
// fast all-local plan, so a storm scaled to the slower static horizon
// would outlive the run and the breaker would never see the link heal.
FaultSchedule CorruptionStorm(double adaptive_horizon) {
  FaultEpisode burst;
  burst.kind = FaultKind::kCorruptBurst;
  burst.start_seconds = 0.1 * adaptive_horizon;
  burst.duration_seconds = 0.3 * adaptive_horizon;
  burst.magnitude = 0.9;
  burst.gilbert.p_good_to_bad = 0.0;
  burst.gilbert.p_bad_to_good = 0.0;
  burst.gilbert.loss_good = 0.9;
  burst.gilbert.loss_bad = 0.9;
  return FaultSchedule::FromEpisodes({burst});
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    }
  }
  BenchTrajectory trajectory("bench_fault_resilience");

  std::unique_ptr<Application> app = MakeOctarine();

  // Same story as bench_online_repartition: profiled on text usage only,
  // workload alternates text and table-mix phases.
  const std::vector<std::string> kTextScenarios = {"o_oldwp0", "o_oldwp3", "o_oldwp7"};
  std::vector<Descriptor> table;
  Result<IccProfile> text_profile =
      ProfileScenarios(*app, kTextScenarios, ClassifierKind::kInternalFunctionCalledBy,
                       kCompleteStackWalk, 17, &table);
  if (!text_profile.ok()) {
    std::fprintf(stderr, "profile: %s\n", text_profile.status().ToString().c_str());
    return 1;
  }

  const NetworkModel network = NetworkModel::TenBaseT();
  const NetworkProfile fitted = FitNetwork(network);
  ProfileAnalysisEngine engine;
  Result<AnalysisResult> analysis = engine.Analyze(*text_profile, fitted);
  if (!analysis.ok()) {
    std::fprintf(stderr, "analyze: %s\n", analysis.status().ToString().c_str());
    return 1;
  }

  const std::vector<OnlinePhase> workload =
      CyclicWorkload({"o_oldwp3", "o_mixed9"}, /*repetitions=*/3, /*cycles=*/4);

  ConfigurationRecord config;
  config.mode = RuntimeMode::kDistributed;
  config.classifier_table = table;
  config.distribution = analysis->distribution;

  OnlineMeasurementOptions base;
  base.network = network;
  base.fitted = fitted;
  base.online.window.decay = 0.5;
  base.online.policy.min_window_messages = 50.0;
  base.online.policy.min_relative_gain = 0.05;
  base.online.policy.horizon_windows = 2.0;
  base.online.policy.state_bytes_per_instance = 4096;
  // No post-recut cooldown: both adaptive runs react every epoch, so the
  // only anti-thrash defense under comparison is the quarantine rule.
  base.online.cooldown_epochs = 0;
  base.retry = SuggestedRetryPolicy(network);

  // Fault-free references: the static shipped cut and the adaptive run.
  base.adaptive = false;
  Result<OnlineRunResult> clean_static =
      MeasureOnlineRun(*app, workload, config, *text_profile, base);
  if (!clean_static.ok()) {
    std::fprintf(stderr, "clean static: %s\n", clean_static.status().ToString().c_str());
    return 1;
  }
  base.adaptive = true;
  Result<OnlineRunResult> clean_adaptive =
      MeasureOnlineRun(*app, workload, config, *text_profile, base);
  if (!clean_adaptive.ok()) {
    std::fprintf(stderr, "clean adaptive: %s\n",
                 clean_adaptive.status().ToString().c_str());
    return 1;
  }
  const double horizon = clean_static->run.execution_seconds;
  const double clean_adaptive_exec = clean_adaptive->run.execution_seconds;

  const std::vector<FaultLevel> levels = {
      {"0% drop", 0.0, false},   {"0.5% drop", 0.005, false},
      {"1% drop", 0.01, false},  {"2% drop", 0.02, false},
      {"5% drop", 0.05, false},  {"1% + episode storm", 0.01, true},
  };

  std::printf(
      "Extension: fault resilience of online repartitioning (Octarine,\n"
      "text/table phase-shifting workload, %s, retries mask drops).\n"
      "Fault-free: static %.3f s, adaptive %.3f s (%llu recuts).\n\n",
      network.name.c_str(), horizon, clean_adaptive_exec,
      static_cast<unsigned long long>(clean_adaptive->online.repartitions));
  PrintRule(94);
  std::printf("%-20s %-22s %10s %10s %7s %6s %7s\n", "Fault level", "Run", "Comm (s)",
              "Exec (s)", "Recuts", "Moves", "Quar.");
  PrintRule(94);

  uint64_t storm_quarantined_recuts = 0;
  uint64_t storm_naive_recuts = 0;
  double quarantined_exec_at_1pct = 0.0;

  for (const FaultLevel& level : levels) {
    FaultSchedule schedule = level.episodes ? EpisodeSchedule(horizon) : FaultSchedule();
    FaultRates background;
    background.drop = level.drop;

    struct Row {
      const char* label;
      bool adaptive;
      bool quarantine;
    };
    const std::vector<Row> rows = {
        {"static", false, false},
        {"adaptive (quarantine)", true, true},
        {"adaptive (naive)", true, false},
    };
    for (const Row& row : rows) {
      FaultInjector injector(schedule, background, /*seed=*/97);
      OnlineMeasurementOptions options = base;
      options.adaptive = row.adaptive;
      options.faults = &injector;
      options.online.quarantine.enabled = row.quarantine;
      Result<OnlineRunResult> run =
          MeasureOnlineRun(*app, workload, config, *text_profile, options);
      if (!run.ok()) {
        std::fprintf(stderr, "%s / %s: %s\n", level.label, row.label,
                     run.status().ToString().c_str());
        return 1;
      }
      if (row.adaptive) {
        std::printf("%-20s %-22s %10.3f %10.3f %7llu %6llu %7llu\n", level.label,
                    row.label, run->run.communication_seconds,
                    run->run.execution_seconds,
                    static_cast<unsigned long long>(run->online.repartitions),
                    static_cast<unsigned long long>(run->online.instances_moved),
                    static_cast<unsigned long long>(run->online.quarantined_epochs));
      } else {
        std::printf("%-20s %-22s %10.3f %10.3f %7s %6s %7s\n", level.label, row.label,
                    run->run.communication_seconds, run->run.execution_seconds, "-", "-",
                    "-");
      }
      if (row.adaptive) {
        std::printf("    %s\n", run->online.ToString().c_str());
      }
      trajectory.Add(std::string(level.label) + " / " + row.label,
                     {{"exec_seconds", run->run.execution_seconds},
                      {"comm_seconds", run->run.communication_seconds},
                      {"recuts", static_cast<double>(run->online.repartitions)},
                      {"moves", static_cast<double>(run->online.instances_moved)},
                      {"quarantined_epochs",
                       static_cast<double>(run->online.quarantined_epochs)}});
      if (row.adaptive && row.quarantine && level.drop == 0.01 && !level.episodes) {
        quarantined_exec_at_1pct = run->run.execution_seconds;
      }
      if (level.episodes && row.adaptive) {
        if (row.quarantine) {
          storm_quarantined_recuts = run->online.repartitions;
        } else {
          storm_naive_recuts = run->online.repartitions;
        }
      }
    }
  }
  PrintRule(94);

  const double overhead =
      clean_adaptive_exec > 0.0 ? quarantined_exec_at_1pct / clean_adaptive_exec : 0.0;
  std::printf(
      "\nAt 1%% drop: quarantined adaptive runs %.3f s, %.2fx the fault-free\n"
      "adaptive %.3f s. Under the episode storm: quarantine recuts %llu times,\n"
      "the naive loop %llu times.\n",
      quarantined_exec_at_1pct, overhead, clean_adaptive_exec,
      static_cast<unsigned long long>(storm_quarantined_recuts),
      static_cast<unsigned long long>(storm_naive_recuts));

  // ----- Corruption storm: what protects the answer, not just the time.
  // Three wire configurations through the same corrupt-burst schedule:
  // a naive unframed wire consumes flipped payloads as truth (wrong
  // answers, silently), the checksummed wire detects and retries every
  // one (right answers, retry cost while the burst lasts), and the
  // breaker adds safe mode on top (degrade to all-local, re-promote when
  // the link heals — bounded slowdown, zero wrong placements).
  struct CorruptionRow {
    const char* label;
    bool checksums;
    bool breaker;
  };
  const std::vector<CorruptionRow> corruption_rows = {
      {"naive (no checksums)", false, false},
      {"checksum-only", true, false},
      {"breaker+safe-mode", true, true},
  };
  std::printf("\nCorruption storm (90%% flip probability over 30%% of the run):\n");
  PrintRule(94);
  std::printf("%-22s %10s %7s %9s %9s %6s %5s %6s\n", "Wire", "Exec (s)", "Recuts",
              "Rejected", "Consumed", "Trips", "Safe", "Match");
  PrintRule(94);

  uint64_t naive_consumed = 0;
  uint64_t checksum_rejected = 0;
  uint64_t checksum_consumed = 0;
  uint64_t breaker_trips = 0;
  uint64_t breaker_safe_exits = 0;
  bool breaker_partitions_match = false;
  double breaker_exec = 0.0;
  for (const CorruptionRow& row : corruption_rows) {
    FaultSchedule schedule = CorruptionStorm(clean_adaptive_exec);
    FaultInjector injector(schedule, FaultRates{}, /*seed=*/97);
    OnlineMeasurementOptions options = base;
    options.adaptive = true;
    options.faults = &injector;
    options.checksums = row.checksums;
    options.online.quarantine.enabled = true;
    options.online.breaker.enabled = row.breaker;
    // The scripted burst concentrates its damage in few epochs, so trip on
    // the first bad one and hold long enough to span a clean epoch.
    options.online.breaker.trip_after = 1;
    options.online.breaker.open_epochs = 3;
    Result<OnlineRunResult> run =
        MeasureOnlineRun(*app, workload, config, *text_profile, options);
    if (!run.ok()) {
      std::fprintf(stderr, "corruption / %s: %s\n", row.label,
                   run.status().ToString().c_str());
      return 1;
    }
    const bool match =
        run->final_distribution.placement ==
            clean_adaptive->final_distribution.placement &&
        run->final_distribution.default_machine ==
            clean_adaptive->final_distribution.default_machine;
    std::printf("%-22s %10.3f %7llu %9llu %9llu %6llu %5llu %6s\n", row.label,
                run->run.execution_seconds,
                static_cast<unsigned long long>(run->online.repartitions),
                static_cast<unsigned long long>(run->transport.corrupt_rejected),
                static_cast<unsigned long long>(run->transport.corrupt_consumed),
                static_cast<unsigned long long>(run->online.breaker_trips),
                static_cast<unsigned long long>(run->online.safe_mode_epochs),
                match ? "yes" : "no");
    trajectory.Add(std::string("corruption storm / ") + row.label,
                   {{"exec_seconds", run->run.execution_seconds},
                    {"recuts", static_cast<double>(run->online.repartitions)},
                    {"corrupt_rejected",
                     static_cast<double>(run->transport.corrupt_rejected)},
                    {"corrupt_consumed",
                     static_cast<double>(run->transport.corrupt_consumed)},
                    {"breaker_trips", static_cast<double>(run->online.breaker_trips)},
                    {"safe_mode_epochs",
                     static_cast<double>(run->online.safe_mode_epochs)},
                    {"partitions_match", match ? 1.0 : 0.0}});
    if (!row.checksums) {
      naive_consumed = run->transport.corrupt_consumed;
    } else if (!row.breaker) {
      checksum_rejected = run->transport.corrupt_rejected;
      checksum_consumed += run->transport.corrupt_consumed;
    } else {
      breaker_trips = run->online.breaker_trips;
      breaker_safe_exits = run->online.safe_mode_exits;
      breaker_partitions_match = match;
      breaker_exec = run->run.execution_seconds;
      checksum_consumed += run->transport.corrupt_consumed;
    }
  }
  PrintRule(94);
  std::printf(
      "\nNaive wire consumed %llu poisoned payloads; the checksummed wire\n"
      "rejected %llu and consumed none. Breaker: %llu trip(s), %llu\n"
      "re-promotion(s), final partition %s the fault-free run's,\n"
      "%.2fx its execution time.\n",
      static_cast<unsigned long long>(naive_consumed),
      static_cast<unsigned long long>(checksum_rejected),
      static_cast<unsigned long long>(breaker_trips),
      static_cast<unsigned long long>(breaker_safe_exits),
      breaker_partitions_match ? "matches" : "DIVERGES FROM",
      clean_adaptive_exec > 0.0 ? breaker_exec / clean_adaptive_exec : 0.0);

  if (!json_path.empty()) {
    const Status written = trajectory.WriteFile(json_path);
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }

  // Steady 1% loss is absorbed by retries: exec within 10% of fault-free.
  if (overhead > 1.10) {
    std::printf("WARNING: quarantined adaptive exceeds 1.10x fault-free (%.2fx).\n",
                overhead);
    return 1;
  }
  // Episode storms make the naive loop thrash; quarantine bounds recuts.
  if (storm_naive_recuts < 2 * storm_quarantined_recuts ||
      storm_naive_recuts == storm_quarantined_recuts) {
    std::printf("WARNING: naive loop did not thrash (%llu recuts vs %llu quarantined).\n",
                static_cast<unsigned long long>(storm_naive_recuts),
                static_cast<unsigned long long>(storm_quarantined_recuts));
    return 1;
  }
  // The unframed wire must actually be wrong (poison consumed as truth)
  // while the checksummed wire rejects every flip and consumes nothing.
  if (naive_consumed == 0 || checksum_rejected == 0 || checksum_consumed != 0) {
    std::printf("WARNING: corruption baselines off (consumed=%llu rejected=%llu "
                "hardened_consumed=%llu).\n",
                static_cast<unsigned long long>(naive_consumed),
                static_cast<unsigned long long>(checksum_rejected),
                static_cast<unsigned long long>(checksum_consumed));
    return 1;
  }
  // Breaker + safe mode: trips during the burst, re-promotes after it,
  // lands on the fault-free partition, and keeps the slowdown bounded.
  if (breaker_trips == 0 || breaker_safe_exits == 0 || !breaker_partitions_match) {
    std::printf("WARNING: breaker run wrong (trips=%llu exits=%llu match=%d).\n",
                static_cast<unsigned long long>(breaker_trips),
                static_cast<unsigned long long>(breaker_safe_exits),
                breaker_partitions_match ? 1 : 0);
    return 1;
  }
  if (clean_adaptive_exec > 0.0 && breaker_exec > 3.0 * clean_adaptive_exec) {
    std::printf("WARNING: breaker slowdown unbounded (%.2fx fault-free).\n",
                breaker_exec / clean_adaptive_exec);
    return 1;
  }
  return 0;
}
