// Extension: crash-consistency of live migration under a crash storm.
//
// The journaled two-phase migrator claims that a coordinator crash at any
// point mid-migration loses nothing: the write-ahead journal makes the
// commit point durable, recovery rolls in-flight copies back (or redoes
// committed flips), and the interrupted migration re-enters the policy
// loop to finish at a later healthy epoch. This bench puts that claim
// under a deliberately hostile regime — the CrashStorm fault schedule
// (repeated machine crashes, an asymmetric Gilbert-Elliott loss episode,
// a mid-run partition) plus a coordinator crash gate that fires during
// the migration protocol itself — and measures what resilience costs.
//
// The oracle is the fault-free adaptive run: its migration bytes are the
// minimum any crash-free coordinator would ship. Per storm seed we report
// executed time, interrupted migrations, resume rounds, rollbacks, and
// wasted (retransmitted or rolled-back) state bytes relative to that
// oracle. The bench fails if any seed needs more resume rounds than the
// configured bound, or if the storm prevents migrations from completing
// at all (no seed moves state even though the oracle does).

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/apps/octarine.h"
#include "src/fault/injector.h"
#include "src/online/measure_online.h"
#include "src/profile/icc_profile.h"

using namespace coign;  // NOLINT: bench binary.

namespace {

// The coordinator crash gate: fires `crashes` times, at protocol steps
// spaced geometrically so early crashes land mid-copy and later ones test
// the resumed attempts. Deterministic per seed.
struct StormGate {
  uint64_t step = 0;
  uint64_t next = 0;
  int crashes_left = 0;
};

}  // namespace

int main() {
  std::unique_ptr<Application> app = MakeOctarine();

  // Drift base: profiled on the text-heavy scenario only, then run over a
  // text/table phase-shifting workload — so drift fires, the policy
  // accepts a recut, and real state migrates while the storm rages.
  const std::vector<std::string> kProfiled = {"o_oldwp7"};
  std::vector<Descriptor> table;
  Result<IccProfile> profile =
      ProfileScenarios(*app, kProfiled, ClassifierKind::kInternalFunctionCalledBy,
                       kCompleteStackWalk, 17, &table);
  if (!profile.ok()) {
    std::fprintf(stderr, "profile: %s\n", profile.status().ToString().c_str());
    return 1;
  }

  const NetworkModel network = NetworkModel::TenBaseT();
  // Profiler-fitted (as the CLI does), not the analytic fit: the live
  // estimator compares against this same baseline during the runs.
  Rng fit_rng(23);
  const NetworkProfile fitted = ProfileNetwork(Transport(network), fit_rng);
  ProfileAnalysisEngine engine;
  Result<AnalysisResult> analysis = engine.Analyze(*profile, fitted);
  if (!analysis.ok()) {
    std::fprintf(stderr, "analyze: %s\n", analysis.status().ToString().c_str());
    return 1;
  }

  const std::vector<OnlinePhase> workload =
      CyclicWorkload({"o_oldwp7", "o_mixed9"}, /*repetitions=*/3, /*cycles=*/2);

  ConfigurationRecord config;
  config.mode = RuntimeMode::kDistributed;
  config.classifier_table = table;
  config.distribution = analysis->distribution;

  OnlineMeasurementOptions base;
  base.network = network;
  base.fitted = fitted;
  // Default OnlineOptions (the CLI chaos configuration): drift-driven
  // recuts that migrate live state, not just lazy adoptions.
  base.retry = SuggestedRetryPolicy(network);

  // Fault-free references: the shipped static cut (for the horizon) and
  // the adaptive oracle (minimum migration bytes, zero waste).
  base.adaptive = false;
  Result<OnlineRunResult> clean_static =
      MeasureOnlineRun(*app, workload, config, *profile, base);
  if (!clean_static.ok()) {
    std::fprintf(stderr, "clean static: %s\n", clean_static.status().ToString().c_str());
    return 1;
  }
  base.adaptive = true;
  Result<OnlineRunResult> oracle =
      MeasureOnlineRun(*app, workload, config, *profile, base);
  if (!oracle.ok()) {
    std::fprintf(stderr, "oracle: %s\n", oracle.status().ToString().c_str());
    return 1;
  }
  const double horizon = clean_static->run.execution_seconds;
  // State sizes are heterogeneous: each instance's migration cost is its
  // profiled allocation footprint (falling back to the flat policy default
  // for classes that never allocated). Report the spread so the waste
  // ratios below are read against real per-instance costs, not one number.
  const uint64_t flat_bytes = base.online.policy.state_bytes_per_instance;
  uint64_t min_state = ~0ull, max_state = 0, sum_state = 0, profiled_classes = 0;
  for (const ClassificationInfo& info : profile->classifications()) {
    if (info.allocation_bytes == 0) {
      continue;
    }
    const uint64_t state = ProfiledStateBytes(&info, flat_bytes);
    min_state = std::min(min_state, state);
    max_state = std::max(max_state, state);
    sum_state += state;
    ++profiled_classes;
  }
  if (profiled_classes == 0) {
    std::fprintf(stderr, "no profiled allocations: state sizes are all flat\n");
    return 1;
  }

  std::printf(
      "Extension: crash-consistent live migration under a crash storm\n"
      "(Octarine, text/table drift workload, %s).\n"
      "Fault-free adaptive reference: %.3f s exec, %llu recuts, %llu instances\n"
      "moved (drift recuts land between executions, so clean runs adopt\n"
      "lazily; the storm's estimator swings are what force live moves).\n"
      "Profiled per-instance state: %llu..%llu B (mean %llu B) across %llu\n"
      "allocating classes; unprofiled classes fall back to %llu B flat.\n"
      "The oracle cost of a run is its committed migration bytes — each\n"
      "moved instance's profiled state shipped exactly once, zero waste.\n\n",
      network.name.c_str(), oracle->run.execution_seconds,
      static_cast<unsigned long long>(oracle->online.repartitions),
      static_cast<unsigned long long>(oracle->online.instances_moved),
      static_cast<unsigned long long>(min_state),
      static_cast<unsigned long long>(max_state),
      static_cast<unsigned long long>(sum_state / profiled_classes),
      static_cast<unsigned long long>(profiled_classes),
      static_cast<unsigned long long>(flat_bytes));
  PrintRule(96);
  std::printf("%-6s %9s %6s %7s %8s %7s %9s %7s %9s\n", "Seed", "Exec (s)", "Moves",
              "Interr.", "Resumes", "Rollbk", "Waste (B)", "Dedup", "Waste/orc");
  PrintRule(96);

  const uint64_t kSeeds = 5;
  uint64_t total_interrupted = 0;
  uint64_t total_moved = 0;
  uint64_t worst_resumes = 0;
  bool resume_bound_violated = false;
  bool interrupted_without_completion = false;

  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    CrashStormOptions storm_options;
    storm_options.horizon_seconds = horizon;
    FaultSchedule schedule = FaultSchedule::CrashStorm(storm_options, seed);
    FaultRates background;
    background.drop = 0.01;

    FaultInjector injector(schedule, background, seed + 1);
    OnlineMeasurementOptions options = base;
    options.adaptive = true;
    options.faults = &injector;
    // The coordinator crash gate: 3 crashes per run, the first a few
    // protocol steps in, the rest geometrically later.
    auto gate = std::make_shared<StormGate>();
    gate->next = 3 + seed % 5;
    gate->crashes_left = 3;
    options.migration_crash_gate = [gate]() {
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

    Result<OnlineRunResult> run =
        MeasureOnlineRun(*app, workload, config, *profile, options);
    if (!run.ok()) {
      std::fprintf(stderr, "seed %llu: %s\n",
                   static_cast<unsigned long long>(seed),
                   run.status().ToString().c_str());
      return 1;
    }
    const OnlineStats& stats = run->online;
    // Heterogeneous oracle: committed migration bytes are each moved
    // instance's profiled state shipped exactly once — what a crash-free
    // coordinator would pay for the same moves.
    const uint64_t run_oracle_bytes = stats.migration_bytes;
    const double waste_ratio =
        run_oracle_bytes > 0 ? static_cast<double>(stats.migration_wasted_bytes) /
                                   static_cast<double>(run_oracle_bytes)
                             : 0.0;
    std::printf("%-6llu %9.3f %6llu %7llu %8llu %7llu %9llu %7llu %8.2fx\n",
                static_cast<unsigned long long>(seed), run->run.execution_seconds,
                static_cast<unsigned long long>(stats.instances_moved),
                static_cast<unsigned long long>(stats.interrupted_migrations),
                static_cast<unsigned long long>(stats.migration_resumes),
                static_cast<unsigned long long>(stats.migration_rollbacks),
                static_cast<unsigned long long>(stats.migration_wasted_bytes),
                static_cast<unsigned long long>(stats.duplicates_suppressed),
                waste_ratio);
    total_interrupted += stats.interrupted_migrations;
    total_moved += stats.instances_moved;
    if (stats.migration_resumes > worst_resumes) {
      worst_resumes = stats.migration_resumes;
    }
    if (stats.migration_resumes > kMaxMigrationResumes) {
      resume_bound_violated = true;
    }
    if (stats.interrupted_migrations > 0 && stats.instances_moved == 0) {
      interrupted_without_completion = true;
    }
  }
  PrintRule(96);

  std::printf(
      "\nAcross %llu storm seeds: %llu interrupted migrations, %llu instances\n"
      "moved, worst resume count %llu (bound %llu).\n",
      static_cast<unsigned long long>(kSeeds),
      static_cast<unsigned long long>(total_interrupted),
      static_cast<unsigned long long>(total_moved),
      static_cast<unsigned long long>(worst_resumes),
      static_cast<unsigned long long>(kMaxMigrationResumes));

  // The storm must actually interrupt migrations — otherwise the bench is
  // measuring nothing.
  if (total_interrupted == 0) {
    std::printf("WARNING: no migration was interrupted; the crash gate never bit.\n");
    return 1;
  }
  // Migrations complete under the storm: every seed whose migration was
  // crashed mid-protocol still lands its state on the new cut.
  if (interrupted_without_completion || total_moved == 0) {
    std::printf("WARNING: an interrupted migration never completed under the storm.\n");
    return 1;
  }
  // Bounded retries: recovery converges within the resume cap.
  if (resume_bound_violated) {
    std::printf("WARNING: a storm run exceeded kMaxMigrationResumes (%llu > %llu).\n",
                static_cast<unsigned long long>(worst_resumes),
                static_cast<unsigned long long>(kMaxMigrationResumes));
    return 1;
  }
  return 0;
}
