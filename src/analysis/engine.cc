#include "src/analysis/engine.h"

#include <algorithm>

#include "src/mincut/relabel_to_front.h"

namespace coign {
namespace {

// Per-edge capacity in exact units — the quantization boundary (see the
// comment at the cut in Analyze below).
CapUnits EdgeCapacity(const ConcreteEdge& edge) {
  return edge.constraint ? kInfiniteCapacity : SecondsToCapUnits(edge.seconds);
}

// The CSR network for a concrete graph, one undirected edge per concrete
// edge (edge id == concrete edge index, which the session's delta path
// relies on).
CompactFlowNetwork BuildFlowNetwork(const ConcreteGraph& concrete) {
  CompactFlowNetwork network(concrete.node_count());
  for (const ConcreteEdge& edge : concrete.edges()) {
    network.AddEdge(edge.a, edge.b, EdgeCapacity(edge));
  }
  network.Finalize();
  return network;
}

struct GraphSignatures {
  uint64_t topology = 0;  // Node count + edge endpoints.
  uint64_t full = 0;      // Topology + exact capacities.
};

GraphSignatures FingerprintConcrete(const ConcreteGraph& concrete) {
  uint64_t hash = 14695981039346656037ull;
  const auto mix = [&hash](uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (byte * 8)) & 0xff;
      hash *= 1099511628211ull;
    }
  };
  GraphSignatures signatures;
  mix(static_cast<uint64_t>(concrete.node_count()));
  for (const ConcreteEdge& edge : concrete.edges()) {
    mix(static_cast<uint64_t>(edge.a));
    mix(static_cast<uint64_t>(edge.b));
  }
  signatures.topology = hash;
  for (const ConcreteEdge& edge : concrete.edges()) {
    mix(static_cast<uint64_t>(EdgeCapacity(edge)));
  }
  signatures.full = hash;
  return signatures;
}

}  // namespace

CutResult ProfileAnalysisEngine::SolveWithSession(const ConcreteGraph& concrete,
                                                  MinCutSession* session) const {
  const GraphSignatures signatures = FingerprintConcrete(concrete);
  if (session->has_cut_ && signatures.full == session->graph_fingerprint_) {
    // Unchanged window: the previous cut is the answer. Counts as a
    // warm-start hit whose entire flow was reused.
    ++session->stats_.warm_start_hits;
    if (session->last_cut_.cut_value != kInfiniteCapacity) {
      session->stats_.flow_reused_units =
          SatAdd(session->stats_.flow_reused_units, session->last_cut_.cut_value);
    }
    return session->last_cut_;
  }
  if (!session->has_cut_ || signatures.topology != session->topology_signature_) {
    // New or re-shaped graph: build the network afresh.
    session->incremental_.Reset(BuildFlowNetwork(concrete), ConcreteGraph::kClientNode,
                                ConcreteGraph::kServerNode);
    session->topology_signature_ = signatures.topology;
  } else {
    // Same topology, drifted capacities: stage deltas against the
    // retained flow.
    const auto& edges = concrete.edges();
    for (size_t i = 0; i < edges.size(); ++i) {
      session->incremental_.SetEdgeCapacity(static_cast<int>(i), EdgeCapacity(edges[i]));
    }
  }
  const CutResult cut = session->incremental_.Solve();
  session->stats_.Accumulate(session->incremental_.last_stats());
  session->graph_fingerprint_ = signatures.full;
  session->last_cut_ = cut;
  session->has_cut_ = true;
  return cut;
}

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
    // Production path. A caller-provided session warm-starts across
    // calls; without one the solve is cold.
    MinCutSession local_session;
    cut = SolveWithSession(concrete, session != nullptr ? session : &local_session);
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
