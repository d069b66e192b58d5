// Multi-machine partitioning — the paper's future-work extension.
//
// "The problem of partitioning applications across three or more machines
// is provably NP-hard [13]. Numerous heuristic algorithms exist for
// multi-way graph cutting." (paper §2) This engine applies the isolation
// heuristic (src/mincut/multiway.h) to the same concrete graph the
// two-way engine builds: one terminal per machine, API pins mapped to the
// caller-specified machines, non-remotable pairs still welded together.

#ifndef COIGN_SRC_ANALYSIS_MULTIWAY_H_
#define COIGN_SRC_ANALYSIS_MULTIWAY_H_

#include <utility>
#include <vector>

#include "src/graph/concrete_graph.h"
#include "src/graph/distribution.h"
#include "src/net/network_profiler.h"
#include "src/profile/icc_profile.h"
#include "src/support/status.h"

namespace coign {

struct MultiwayOptions {
  // Number of machines; machine 0 is the client (GUI + driver).
  int machine_count = 3;
  // Machine that GUI-pinned classifications are forced to.
  MachineId gui_machine = 0;
  // Machine that storage/ODBC-pinned classifications are forced to
  // (typically the last machine: the database/file server).
  MachineId storage_machine = 2;
  // Programmer/administrator pins (absolute constraints, paper §4.3) — the
  // usual way intermediate tiers acquire anchors.
  std::vector<std::pair<ClassificationId, MachineId>> extra_pins;
};

struct MultiwayAnalysisResult {
  Distribution distribution;  // Classification → machine in [0, k).
  double crossing_seconds = 0.0;      // Predicted inter-machine communication.
  std::vector<size_t> classifications_per_machine;
  std::vector<uint64_t> instances_per_machine;
};

// Partitions the profile's classifications across `machine_count` machines.
Result<MultiwayAnalysisResult> AnalyzeMultiway(const IccProfile& profile,
                                               const NetworkProfile& network,
                                               const MultiwayOptions& options);

}  // namespace coign

#endif  // COIGN_SRC_ANALYSIS_MULTIWAY_H_
