#include "src/analysis/multiway.h"

#include "src/analysis/prediction.h"
#include "src/com/class_registry.h"
#include "src/graph/constraints.h"
#include "src/graph/icc_graph.h"
#include "src/mincut/multiway.h"

namespace coign {

Result<MultiwayAnalysisResult> AnalyzeMultiway(const IccProfile& profile,
                                               const NetworkProfile& network,
                                               const MultiwayOptions& options) {
  if (options.machine_count < 2) {
    return InvalidArgumentError("multiway partitioning needs at least two machines");
  }
  if (options.gui_machine < 0 || options.gui_machine >= options.machine_count ||
      options.storage_machine < 0 || options.storage_machine >= options.machine_count) {
    return InvalidArgumentError("pin machines out of range");
  }
  if (profile.empty()) {
    return FailedPreconditionError("cannot analyze an empty profile");
  }

  const int k = options.machine_count;
  const std::vector<ClassificationId> ids = profile.SortedClassificationIds();
  const int node_count = k + static_cast<int>(ids.size());

  std::unordered_map<ClassificationId, int> index;
  for (size_t i = 0; i < ids.size(); ++i) {
    index.emplace(ids[i], k + static_cast<int>(i));
  }
  auto node_of = [&](ClassificationId id) -> int {
    if (id == kNoClassification) {
      return options.gui_machine;  // The driver lives with the GUI.
    }
    auto it = index.find(id);
    return it == index.end() ? options.gui_machine : it->second;
  };

  const AbstractIccGraph abstract = AbstractIccGraph::FromProfile(profile);
  EdgeList edges;
  for (const AbstractIccGraph::PairKey& pair : abstract.SortedPairs()) {
    const AbstractIccGraph::Edge& edge = abstract.edges().at(pair);
    const int a = node_of(pair.a);
    const int b = node_of(pair.b);
    if (a == b) {
      continue;
    }
    // Quantization boundary for the multiway path: seconds -> CapUnits
    // once per edge, same rule as the two-way engine.
    edges.emplace_back(a, b, SecondsToCapUnits(EdgeSeconds(edge, network)));
    if (edge.MustColocate()) {
      edges.emplace_back(a, b, kInfiniteCapacity);
    }
  }

  // Programmer/administrator pins.
  for (const auto& [id, machine] : options.extra_pins) {
    if (machine < 0 || machine >= k) {
      return InvalidArgumentError("extra pin machine out of range");
    }
    auto it = index.find(id);
    if (it != index.end()) {
      edges.emplace_back(machine, it->second, kInfiniteCapacity);
    }
  }

  // API pins.
  for (ClassificationId id : ids) {
    const ClassificationInfo* info = profile.FindClassification(id);
    if (info->api_usage & kApiGui) {
      edges.emplace_back(options.gui_machine, index.at(id), kInfiniteCapacity);
    } else if (info->api_usage & (kApiStorage | kApiOdbc)) {
      edges.emplace_back(options.storage_machine, index.at(id), kInfiniteCapacity);
    }
  }

  std::vector<int> terminals(static_cast<size_t>(k));
  for (int t = 0; t < k; ++t) {
    terminals[static_cast<size_t>(t)] = t;
  }
  const MultiwayCutResult cut = MultiwayCutIsolation(node_count, edges, terminals);
  if (cut.total_weight == kInfiniteCapacity) {
    return FailedPreconditionError("multiway constraints unsatisfiable");
  }

  MultiwayAnalysisResult result;
  result.classifications_per_machine.assign(static_cast<size_t>(k), 0);
  result.instances_per_machine.assign(static_cast<size_t>(k), 0);
  for (size_t i = 0; i < ids.size(); ++i) {
    const int machine = cut.assignment[static_cast<size_t>(k) + i];
    result.distribution.placement[ids[i]] = machine;
    result.classifications_per_machine[static_cast<size_t>(machine)] += 1;
    const ClassificationInfo* info = profile.FindClassification(ids[i]);
    result.instances_per_machine[static_cast<size_t>(machine)] += info->instance_count;
  }
  result.distribution.default_machine = options.gui_machine;
  result.crossing_seconds =
      PredictCommunicationSeconds(profile, result.distribution, network);
  return result;
}

}  // namespace coign
