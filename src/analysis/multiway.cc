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

  // The two-way engine's concrete graph without its pins, renumbered:
  // machine t is terminal t, the client terminal (the driver and any
  // undeclared endpoint) becomes the GUI machine, and classification node
  // i >= 2 becomes k + i - 2. Nothing lands on the server terminal, which
  // only pins use. Its edges and the pins below are staged straight into
  // the network the isolation heuristic partitions.
  const int k = options.machine_count;
  const ConcreteGraph concrete = ConcreteGraph::Build(AbstractIccGraph::FromProfile(profile),
                                                      network, LocationConstraints());
  const std::vector<ClassificationId>& ids = concrete.classifications();
  const int node_count = k + static_cast<int>(ids.size());
  auto renumbered = [&](int node) {
    return node == ConcreteGraph::kClientNode ? options.gui_machine : k + node - 2;
  };
  CompactFlowNetwork flow(node_count);
  for (const ConcreteEdge& edge : concrete.edges()) {
    flow.AddEdge(renumbered(edge.a), renumbered(edge.b), edge.Capacity());
  }

  // Programmer/administrator pins.
  for (const auto& [id, machine] : options.extra_pins) {
    if (machine < 0 || machine >= k) {
      return InvalidArgumentError("extra pin machine out of range");
    }
    const int node = concrete.NodeOf(id);
    if (node >= 0) {
      flow.AddEdge(machine, renumbered(node), kInfiniteCapacity);
    }
  }

  // API pins.
  for (size_t i = 0; i < ids.size(); ++i) {
    const ClassificationInfo* info = profile.FindClassification(ids[i]);
    const int node = k + static_cast<int>(i);
    if (info->api_usage & kApiGui) {
      flow.AddEdge(options.gui_machine, node, kInfiniteCapacity);
    } else if (info->api_usage & (kApiStorage | kApiOdbc)) {
      flow.AddEdge(options.storage_machine, node, kInfiniteCapacity);
    }
  }

  std::vector<int> terminals(static_cast<size_t>(k));
  for (int t = 0; t < k; ++t) {
    terminals[static_cast<size_t>(t)] = t;
  }
  const MultiwayCutResult cut = MultiwayCutIsolation(flow, terminals);
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
