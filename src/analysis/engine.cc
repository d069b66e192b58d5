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

// The assembly every result comes from, whichever way its cut was found:
// placement and instance counts per side, then one pass over the edges
// that prices each at `network` and sums the crossing ones into the
// predicted communication time, the cut's exact value and the crossing
// edge reports (heaviest first). An edge is priced through a priced copy,
// so its capacity is ConcreteEdge::Capacity()'s, the one quantization
// site: on a solved graph the crossing capacities sum to the maximum flow
// exactly. A feasible side crosses no constraint edge.
AnalysisResult Assemble(const IccProfile& profile, const ConcreteGraph& graph,
                        const NetworkProfile& network, const std::vector<bool>& client_side,
                        size_t non_remotable_pairs) {
  AnalysisResult result;

  // Build the classification → machine map from the cut sides.
  for (int node = 2; node < graph.node_count(); ++node) {
    const ClassificationId id = graph.ClassificationAt(node);
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

  for (const ConcreteEdge& unpriced : graph.edges()) {
    if (unpriced.constraint) {
      continue;
    }
    ConcreteEdge edge = unpriced;
    edge.seconds = network.TrafficSeconds(edge.messages, edge.bytes);
    result.total_comm_seconds += edge.seconds;
    const bool a_client = client_side[static_cast<size_t>(edge.a)];
    const bool b_client = client_side[static_cast<size_t>(edge.b)];
    if (a_client == b_client) {
      continue;
    }
    result.cut_value_units = SatAdd(result.cut_value_units, edge.Capacity());
    result.predicted_comm_seconds += edge.seconds;
    CutEdgeReport report;
    const int client_node = a_client ? edge.a : edge.b;
    const int server_node = a_client ? edge.b : edge.a;
    report.client_side = client_node >= 2 ? graph.ClassificationAt(client_node)
                                          : kNoClassification;
    report.server_side = server_node >= 2 ? graph.ClassificationAt(server_node)
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
  // here, by the one rounding site (ConcreteEdge::Capacity; rounding rule
  // and error bound documented at SecondsToCapUnits), which Assemble
  // reads the cut's value through as well. Everything below the
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
  return Assemble(profile, concrete, network, cut.in_source_side, NonRemotablePairs(abstract));
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
  return Assemble(profile, envelope.graph(), network, envelope.segments()[segment].client_side,
                  envelope.non_remotable_pairs_);
}

}  // namespace coign
