#include "src/online/measure_online.h"

#include <memory>

#include "src/sim/accountant.h"

namespace coign {
namespace {

// Seed of the scenario bodies' RNG: every run replays the same workload.
constexpr uint64_t kScenarioSeed = 17;

}  // namespace

std::vector<OnlinePhase> CyclicWorkload(const std::vector<std::string>& scenarios,
                                        int repetitions, int cycles) {
  std::vector<OnlinePhase> workload;
  for (int cycle = 0; cycle < cycles; ++cycle) {
    for (const std::string& id : scenarios) {
      workload.push_back({id, repetitions});
    }
  }
  return workload;
}

Result<OnlineRunResult> MeasureOnlineRun(Application& app,
                                         const std::vector<OnlinePhase>& workload,
                                         const ConfigurationRecord& config,
                                         const IccProfile& base_profile,
                                         const OnlineMeasurementOptions& options) {
  ObjectSystem system;
  COIGN_RETURN_IF_ERROR(app.Install(&system));

  CoignRuntime runtime(&system, config);
  NetworkAccountant accountant(&system, Transport(options.network));
  accountant.transport().SetChecksums(options.checksums);
  if (options.faults != nullptr) {
    accountant.AttachFaults(options.faults, options.retry);
  }
  if (options.obs != nullptr) {
    // Trace timestamps are the run's modeled execution clock; unbind it
    // before the accountant dies so late writes fall back to logical ticks.
    options.obs->tracer().SetClock([&accountant] { return accountant.execution_seconds(); });
    accountant.transport().SetObservability(options.obs);
  }
  struct ClockGuard {
    Observability* obs;
    ~ClockGuard() {
      if (obs != nullptr) {
        obs->tracer().SetClock(nullptr);
      }
    }
  } clock_guard{options.obs};

  std::unique_ptr<OnlineRepartitioner> repartitioner;
  if (options.adaptive) {
    repartitioner = std::make_unique<OnlineRepartitioner>(
        &system, &runtime, base_profile, options.fitted, options.online);
    repartitioner->SetObservability(options.obs);
    if (options.faults != nullptr) {
      repartitioner->SetTransportProbe([&accountant] { return accountant.health(); });
      // Journaled migration: state copies ride the same faulted transport
      // as the calls, and ReliableRoundTrip already advances the fault
      // clock — charge clocks only, no second advance.
      repartitioner->SetMigrationTransport(&accountant.transport(), nullptr);
      repartitioner->SetMigrationCharge([&accountant](uint64_t bytes, double seconds) {
        accountant.ChargeMigrationReceipts(bytes, seconds);
      });
      if (options.migration_crash_gate) {
        repartitioner->SetMigrationCrashGate(options.migration_crash_gate);
      }
    } else {
      repartitioner->SetMigrationCharge([&accountant](uint64_t bytes, double seconds) {
        accountant.ChargeMigration(bytes, seconds);
      });
    }
  }

  Rng rng(kScenarioSeed);
  for (const OnlinePhase& phase : workload) {
    Result<Scenario> scenario = app.FindScenario(phase.scenario_id);
    if (!scenario.ok()) {
      return scenario.status();
    }
    for (int rep = 0; rep < phase.repetitions; ++rep) {
      runtime.BeginScenario();
      COIGN_RETURN_IF_ERROR(scenario->run(system, rng));
      // Epoch boundary before teardown: the execution's instances are
      // still live, so an accepted repartition moves real state.
      if (repartitioner != nullptr) {
        COIGN_RETURN_IF_ERROR(repartitioner->EndEpoch());
      }
      system.DestroyAll();
    }
  }

  OnlineRunResult result;
  result.run.communication_seconds = accountant.communication_seconds();
  result.run.compute_seconds = accountant.compute_seconds();
  result.run.execution_seconds = accountant.execution_seconds();
  result.run.total_calls = accountant.total_calls();
  result.run.remote_calls = accountant.remote_calls();
  result.run.remote_bytes = accountant.remote_bytes();
  result.transport = accountant.health();
  result.final_distribution = runtime.config().distribution;
  if (repartitioner != nullptr) {
    result.online = repartitioner->stats();
    result.final_drift = repartitioner->last_drift();
  }
  return result;
}

}  // namespace coign
