// Execution-time prediction (paper §4.6, Table 5).
//
// Coign's model of application execution time under a distribution:
// profiled local compute plus predicted inter-machine communication time.
// The paper validates this model against measured runs (error ≤ 8 %); our
// Table 5 bench does the same against the simulator's measured runs.
//
// Everything here stays in double seconds, priced by
// NetworkProfile::TrafficSeconds. Quantization to the min-cut layer's
// fixed-point CapUnits happens only at the flow-network boundary
// (ConcreteEdge::Capacity), never in prediction.

#ifndef COIGN_SRC_ANALYSIS_PREDICTION_H_
#define COIGN_SRC_ANALYSIS_PREDICTION_H_

#include "src/graph/distribution.h"
#include "src/net/network_profiler.h"
#include "src/profile/icc_profile.h"

namespace coign {

struct ExecutionPrediction {
  double compute_seconds = 0.0;
  double communication_seconds = 0.0;

  double total_seconds() const { return compute_seconds + communication_seconds; }
};

// Predicts a scenario's execution time under `distribution`, given its
// profile and a network profile.
ExecutionPrediction PredictExecutionTime(const IccProfile& profile,
                                         const Distribution& distribution,
                                         const NetworkProfile& network);

// Predicted communication-only time (the Table 4 quantity). Every call
// pair whose ends sit on different machines counts, whatever the machine
// ids, so multiway distributions are priced here too.
double PredictCommunicationSeconds(const IccProfile& profile,
                                   const Distribution& distribution,
                                   const NetworkProfile& network);

}  // namespace coign

#endif  // COIGN_SRC_ANALYSIS_PREDICTION_H_
