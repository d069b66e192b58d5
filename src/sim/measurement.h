// Scenario measurement: runs a scenario body against an ObjectSystem whose
// placement policy is already configured, with a NetworkAccountant charging
// cross-machine calls, and reports communication/execution times — the
// simulator-side numbers for Tables 4 and 5.

#ifndef COIGN_SRC_SIM_MEASUREMENT_H_
#define COIGN_SRC_SIM_MEASUREMENT_H_

#include <functional>

#include "src/com/object_system.h"
#include "src/net/network_model.h"
#include "src/net/transport.h"
#include "src/support/rng.h"
#include "src/support/status.h"

namespace coign {

struct RunMeasurement {
  double communication_seconds = 0.0;
  double compute_seconds = 0.0;
  double execution_seconds = 0.0;
  uint64_t total_calls = 0;
  uint64_t remote_calls = 0;
  uint64_t remote_bytes = 0;
};

struct MeasurementOptions {
  NetworkModel network;
  // Non-null → jittered "measured" run; null → deterministic expectation.
  Rng* jitter_rng = nullptr;
  // Non-null → remote calls run hardened against this fault model (not
  // owned) under `retry`; faults cost modeled time through the accountant.
  TransportFaultModel* faults = nullptr;
  RetryPolicy retry;
};

// Runs `body` once and accounts its cross-machine traffic. The system's
// live instances are destroyed afterwards so consecutive measurements are
// independent.
Result<RunMeasurement> MeasureRun(ObjectSystem& system,
                                  const std::function<Status(ObjectSystem&)>& body,
                                  const MeasurementOptions& options);

}  // namespace coign

#endif  // COIGN_SRC_SIM_MEASUREMENT_H_
