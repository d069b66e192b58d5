#include "src/analysis/prediction.h"

namespace coign {
namespace {

MachineId MachineOfClassification(const Distribution& distribution, ClassificationId id) {
  if (id == kNoClassification) {
    return kClientMachine;  // The driver (user/GUI thread) is on the client.
  }
  return distribution.MachineFor(id);
}

}  // namespace

double PredictCommunicationSeconds(const IccProfile& profile,
                                   const Distribution& distribution,
                                   const NetworkProfile& network) {
  double seconds = 0.0;
  for (const auto& [key, summary] : profile.calls()) {
    const MachineId src = MachineOfClassification(distribution, key.src);
    const MachineId dst = MachineOfClassification(distribution, key.dst);
    if (src == dst) {
      continue;
    }
    seconds += network.TrafficSeconds(
        summary.requests.total_count() + summary.replies.total_count(), summary.total_bytes());
  }
  return seconds;
}

ExecutionPrediction PredictExecutionTime(const IccProfile& profile,
                                         const Distribution& distribution,
                                         const NetworkProfile& network) {
  ExecutionPrediction prediction;
  prediction.compute_seconds = profile.total_compute_seconds();
  prediction.communication_seconds =
      PredictCommunicationSeconds(profile, distribution, network);
  return prediction;
}

}  // namespace coign
