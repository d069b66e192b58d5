#include "src/sim/measurement.h"

#include "src/net/transport.h"
#include "src/sim/accountant.h"

namespace coign {

Result<RunMeasurement> MeasureRun(ObjectSystem& system,
                                  const std::function<Status(ObjectSystem&)>& body,
                                  const MeasurementOptions& options) {
  // Both machines compute at the accountant's default scale of 1, as the
  // paper's testbed machines are equal.
  NetworkAccountant accountant(&system, Transport(options.network), options.jitter_rng);
  if (options.faults != nullptr) {
    accountant.AttachFaults(options.faults, options.retry);
  }

  const Status status = body(system);
  system.DestroyAll();
  if (!status.ok()) {
    return status;
  }

  RunMeasurement measurement;
  measurement.communication_seconds = accountant.communication_seconds();
  measurement.compute_seconds = accountant.compute_seconds();
  measurement.execution_seconds = accountant.execution_seconds();
  measurement.total_calls = accountant.total_calls();
  measurement.remote_calls = accountant.remote_calls();
  measurement.remote_bytes = accountant.remote_bytes();
  return measurement;
}

}  // namespace coign
