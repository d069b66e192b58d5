#include "src/analysis/engine.h"

#include <algorithm>

#include "src/mincut/incremental.h"
#include "src/mincut/relabel_to_front.h"

namespace coign {
namespace {

// The CSR network for a concrete graph, one undirected edge per concrete
// edge.
CompactFlowNetwork BuildFlowNetwork(const ConcreteGraph& concrete) {
  CompactFlowNetwork network(concrete.node_count());
  for (const ConcreteEdge& edge : concrete.edges()) {
    network.AddEdge(edge.a, edge.b, edge.Capacity());
  }
  network.Finalize();
  return network;
}

size_t NonRemotablePairs(const AbstractIccGraph& abstract) {
  return static_cast<size_t>(
      std::count_if(abstract.edges().begin(), abstract.edges().end(),
                    [](const AbstractIccGraph::Edge& edge) { return edge.MustColocate(); }));
}

// The post-solve assembly every result comes from, whichever way its cut
// was found: placement and instance counts per side, the crossing
// communication edges (heaviest first) and the predicted communication
// time, recomputed from the concrete edges.
AnalysisResult Assemble(const IccProfile& profile, const ConcreteGraph& concrete,
                        const std::vector<bool>& client_side, CapUnits cut_value,
                        size_t non_remotable_pairs) {
  AnalysisResult result;
  result.cut_value_units = cut_value;
  result.total_comm_seconds = concrete.TotalCommunicationSeconds();

  // Build the classification → machine map from the cut sides.
  for (int node = 2; node < concrete.node_count(); ++node) {
    const ClassificationId id = concrete.ClassificationAt(node);
    const bool on_client = client_side[static_cast<size_t>(node)];
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

  for (const ConcreteEdge& edge : concrete.edges()) {
    if (edge.constraint) {
      continue;
    }
    const bool a_client = client_side[static_cast<size_t>(edge.a)];
    const bool b_client = client_side[static_cast<size_t>(edge.b)];
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
  result.non_remotable_pairs = non_remotable_pairs;
  return result;
}

}  // namespace

Result<AnalysisResult> ProfileAnalysisEngine::Analyze(const IccProfile& profile,
                                                      const NetworkProfile& network) const {
  return Analyze(profile, network, nullptr);
}

LocationConstraints ProfileAnalysisEngine::Constraints(const IccProfile& profile) const {
  // Static API analysis + programmer-supplied extras.
  LocationConstraints constraints = options_.derive_api_constraints
                                        ? LocationConstraints::FromProfile(profile)
                                        : LocationConstraints();
  for (const auto& [id, machine] : options_.extra_constraints.absolute()) {
    constraints.PinAbsolute(id, machine);
  }
  for (const auto& [a, b] : options_.extra_constraints.colocated()) {
    constraints.Colocate(a, b);
  }
  return constraints;
}

Result<AnalysisResult> ProfileAnalysisEngine::Analyze(const IccProfile& profile,
                                                      const NetworkProfile& network,
                                                      MinCutSession* session) const {
  if (profile.empty()) {
    return FailedPreconditionError("cannot analyze an empty profile");
  }

  const LocationConstraints constraints = Constraints(profile);
  const AbstractIccGraph abstract = AbstractIccGraph::FromProfile(profile);
  const ConcreteGraph concrete = ConcreteGraph::Build(abstract, network, constraints);

  // The quantization boundary: predicted seconds become integer CapUnits
  // here, exactly once per edge (ConcreteEdge::Capacity; rounding rule and
  // error bound documented at SecondsToCapUnits). Everything below the
  // boundary — all cut algorithms, the cut value, infeasibility
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
    return FailedPreconditionError(kUnsatisfiableConstraints);
  }
  return Assemble(profile, concrete, cut.in_source_side, cut.cut_value,
                  NonRemotablePairs(abstract));
}

Result<CutEnvelope> ProfileAnalysisEngine::Envelope(const IccProfile& profile) const {
  if (profile.empty()) {
    return FailedPreconditionError("cannot analyze an empty profile");
  }
  const AbstractIccGraph abstract = AbstractIccGraph::FromProfile(profile);
  // Pricing is irrelevant here: the search prices the edges' exact
  // traffic itself.
  return CutEnvelope::Solve(ConcreteGraph::Build(abstract, NetworkProfile{}, Constraints(profile)),
                            NonRemotablePairs(abstract));
}

AnalysisResult ProfileAnalysisEngine::AnalyzeSegment(const IccProfile& profile,
                                                     const CutEnvelope& envelope,
                                                     size_t segment,
                                                     const NetworkProfile& network) const {
  ConcreteGraph concrete = envelope.graph();
  concrete.Price(network);
  const std::vector<bool>& client_side = envelope.segments()[segment].client_side;
  // The cut's value at this network, from the same quantized capacities a
  // solve here would use: the maximum flow equals it whenever the
  // segment's cut is minimum at this network.
  CapUnits cut_value = 0;
  for (const ConcreteEdge& edge : concrete.edges()) {
    if (client_side[static_cast<size_t>(edge.a)] != client_side[static_cast<size_t>(edge.b)]) {
      cut_value = SatAdd(cut_value, edge.Capacity());
    }
  }
  return Assemble(profile, concrete, client_side, cut_value, envelope.non_remotable_pairs_);
}

}  // namespace coign
