#include "src/analysis/engine.h"

#include <algorithm>

#include "src/mincut/incremental.h"
#include "src/mincut/relabel_to_front.h"

namespace coign {
namespace {

// Per-edge capacity in exact units — the quantization boundary (see the
// comment at the cut in Analyze below).
CapUnits EdgeCapacity(const ConcreteEdge& edge) {
  return edge.constraint ? kInfiniteCapacity : SecondsToCapUnits(edge.seconds);
}

// The CSR network for a concrete graph, one undirected edge per concrete
// edge.
CompactFlowNetwork BuildFlowNetwork(const ConcreteGraph& concrete) {
  CompactFlowNetwork network(concrete.node_count());
  for (const ConcreteEdge& edge : concrete.edges()) {
    network.AddEdge(edge.a, edge.b, EdgeCapacity(edge));
  }
  network.Finalize();
  return network;
}

}  // namespace

Result<AnalysisResult> ProfileAnalysisEngine::Analyze(const IccProfile& profile,
                                                      const NetworkProfile& network) const {
  return Analyze(profile, network, nullptr);
}

Result<AnalysisResult> ProfileAnalysisEngine::Analyze(const IccProfile& profile,
                                                      const NetworkProfile& network,
                                                      MinCutSession* session) const {
  if (profile.empty()) {
    return FailedPreconditionError("cannot analyze an empty profile");
  }

  // Constraints: static API analysis + programmer-supplied extras.
  LocationConstraints constraints = options_.derive_api_constraints
                                        ? LocationConstraints::FromProfile(profile)
                                        : LocationConstraints();
  for (const auto& [id, machine] : options_.extra_constraints.absolute()) {
    constraints.PinAbsolute(id, machine);
  }
  for (const auto& [a, b] : options_.extra_constraints.colocated()) {
    constraints.Colocate(a, b);
  }

  const AbstractIccGraph abstract = AbstractIccGraph::FromProfile(profile);
  const ConcreteGraph concrete = ConcreteGraph::Build(abstract, network, constraints);

  // The quantization boundary: predicted seconds become integer CapUnits
  // here, exactly once per edge (rounding rule and error bound documented
  // at SecondsToCapUnits; EdgeCapacity above applies it). Everything
  // below the boundary — all cut algorithms, the cut value, infeasibility
  // detection — is exact 64-bit arithmetic; everything above (prediction,
  // reports) stays in seconds.
  CutResult cut;
  if (options_.algorithm == CutAlgorithm::kPushRelabel) {
    IncrementalMinCut solver;
    solver.Reset(BuildFlowNetwork(concrete), ConcreteGraph::kClientNode,
                 ConcreteGraph::kServerNode);
    cut = solver.Solve();
    if (session != nullptr) {
      session->stats_.Accumulate(solver.last_stats());
    }
  } else {
    cut = MinCutRelabelToFront(BuildFlowNetwork(concrete), ConcreteGraph::kClientNode,
                               ConcreteGraph::kServerNode);
  }

  if (cut.cut_value == kInfiniteCapacity) {
    return FailedPreconditionError(
        "constraints are unsatisfiable: a constraint edge crosses every cut");
  }

  AnalysisResult result;
  result.cut_value_units = cut.cut_value;
  result.total_comm_seconds = concrete.TotalCommunicationSeconds();

  // Build the classification → machine map from the cut sides.
  for (int node = 2; node < concrete.node_count(); ++node) {
    const ClassificationId id = concrete.ClassificationAt(node);
    const bool on_client = cut.in_source_side[static_cast<size_t>(node)];
    result.distribution.placement[id] = on_client ? kClientMachine : kServerMachine;
    const ClassificationInfo* info = profile.FindClassification(id);
    const uint64_t instances = info != nullptr ? info->instance_count : 0;
    if (on_client) {
      ++result.client_classifications;
      result.client_instances += instances;
    } else {
      ++result.server_classifications;
      result.server_instances += instances;
    }
  }
  result.distribution.default_machine = kClientMachine;

  // Crossing communication edges and the exact predicted communication time
  // (recomputed from the concrete edges: the flow value is equal, but this
  // also yields the per-edge report).
  for (const ConcreteEdge& edge : concrete.edges()) {
    if (edge.constraint) {
      continue;
    }
    const bool a_client = cut.in_source_side[static_cast<size_t>(edge.a)];
    const bool b_client = cut.in_source_side[static_cast<size_t>(edge.b)];
    if (a_client == b_client) {
      continue;
    }
    result.predicted_comm_seconds += edge.seconds;
    CutEdgeReport report;
    const int client_node = a_client ? edge.a : edge.b;
    const int server_node = a_client ? edge.b : edge.a;
    report.client_side = client_node >= 2 ? concrete.ClassificationAt(client_node)
                                          : kNoClassification;
    report.server_side = server_node >= 2 ? concrete.ClassificationAt(server_node)
                                          : kNoClassification;
    report.seconds = edge.seconds;
    result.cut_edges.push_back(report);
  }
  std::sort(result.cut_edges.begin(), result.cut_edges.end(),
            [](const CutEdgeReport& x, const CutEdgeReport& y) {
              return x.seconds > y.seconds;
            });

  for (const auto& [pair, edge] : abstract.edges()) {
    if (edge.MustColocate()) {
      ++result.non_remotable_pairs;
    }
  }
  return result;
}

}  // namespace coign
