// The online measurement harness: replays a phase-shifting workload —
// a sequence of scenario phases whose communication patterns differ —
// against one long-lived ObjectSystem, and measures total execution time
// either under a fixed static distribution or with the online
// repartitioner adapting the distribution as phases shift. Every scenario
// execution is one epoch; epoch boundaries fall while the execution's
// instances are still live, so accepted repartitions migrate real state
// and the run pays for it through the network accountant.

#ifndef COIGN_SRC_ONLINE_MEASURE_ONLINE_H_
#define COIGN_SRC_ONLINE_MEASURE_ONLINE_H_

#include <string>
#include <vector>

#include "src/apps/app.h"
#include "src/net/network_profiler.h"
#include "src/online/repartitioner.h"
#include "src/runtime/config_record.h"
#include "src/sim/measurement.h"
#include "src/support/status.h"

namespace coign {

struct OnlinePhase {
  std::string scenario_id;
  int repetitions = 1;
};

// `scenarios` cycled `cycles` times with `repetitions` runs per visit:
// the canonical phase-shifting workload.
std::vector<OnlinePhase> CyclicWorkload(const std::vector<std::string>& scenarios,
                                        int repetitions, int cycles);

struct OnlineRunResult {
  RunMeasurement run;        // Includes migration charges when adaptive.
  OnlineStats online;        // Zero-valued for static runs.
  DriftReport final_drift;   // Last epoch's drift report (adaptive only).
  // Cumulative wire health (retries, undelivered, corrupt rejects) and the
  // distribution the run ended on — what a corruption storm must not be
  // able to poison.
  TransportHealth transport;
  Distribution final_distribution;
};

struct OnlineMeasurementOptions {
  NetworkModel network;
  // Fitted profile the repartitioner prices cuts and migrations with.
  NetworkProfile fitted;
  OnlineOptions online;
  bool adaptive = true;  // False: measure the fixed distribution only.
  // Non-null → the run executes under this fault model (not owned) with
  // the hardened transport; the repartitioner additionally gets a
  // transport-health probe so the quarantine rule and the live network
  // estimator engage, and migrations take the journaled two-phase path
  // through the accountant's transport (state copies feel the faults).
  TransportFaultModel* faults = nullptr;
  RetryPolicy retry;
  // False models a legacy unframed wire: corrupted deliveries pass
  // undetected and their payloads are consumed as truth (the bench's
  // "wrong answers" baseline). Leave true everywhere else.
  bool checksums = true;
  // Optional simulated coordinator crash during journaled migrations
  // (chaos/bench runs force interruptions with this; see
  // LiveMigrator::CrashGate). Only consulted when `faults` is set.
  LiveMigrator::CrashGate migration_crash_gate;
  // Non-null → the run is traced and metered (not owned): the tracer's
  // clock is bound to the accountant's modeled execution clock for the
  // duration of the run, and the transport, fault injector hooks, and
  // repartitioner all record into it. Observability never draws from the
  // run's RNG or advances modeled time, so traced and untraced runs follow
  // identical schedules.
  Observability* obs = nullptr;
};

// Runs the workload under `config` (a distributed-mode configuration
// record). When adaptive, `base_profile` is the profile the shipped
// distribution was computed from; the repartitioner compares live usage
// against it and re-cuts the windowed graph when usage drifts.
Result<OnlineRunResult> MeasureOnlineRun(Application& app,
                                         const std::vector<OnlinePhase>& workload,
                                         const ConfigurationRecord& config,
                                         const IccProfile& base_profile,
                                         const OnlineMeasurementOptions& options);

}  // namespace coign

#endif  // COIGN_SRC_ONLINE_MEASURE_ONLINE_H_
