#include "src/graph/concrete_graph.h"

#include <algorithm>

namespace coign {

void ConcreteGraph::AddEdge(int a, int b, uint64_t messages, uint64_t bytes, double seconds,
                            bool constraint) {
  if (a == b) {
    return;
  }
  edges_.push_back(ConcreteEdge{a, b, messages, bytes, seconds, constraint});
}

int ConcreteGraph::NodeOf(ClassificationId id) const {
  const auto it = std::lower_bound(node_ids_.begin(), node_ids_.end(), id);
  return it == node_ids_.end() || *it != id ? -1 : static_cast<int>(it - node_ids_.begin()) + 2;
}

ConcreteGraph ConcreteGraph::Build(const AbstractIccGraph& abstract,
                                   const NetworkProfile& network,
                                   const LocationConstraints& constraints) {
  ConcreteGraph graph;

  // Dense node numbering: classifications sorted by id, offset by the two
  // terminals.
  graph.node_ids_ = abstract.nodes();

  // The application driver (user, GUI thread) and any undeclared endpoint
  // are the client terminal.
  auto node_of = [&graph](ClassificationId id) -> int {
    const int node = graph.NodeOf(id);
    return node < 0 ? kClientNode : node;
  };

  // Communication edges.
  for (const AbstractIccGraph::Edge& edge : abstract.edges()) {
    const int a = node_of(edge.a);
    const int b = node_of(edge.b);
    if (a == b) {
      continue;
    }
    graph.AddEdge(a, b, edge.messages, edge.bytes,
                  network.TrafficSeconds(edge.messages, edge.bytes), /*constraint=*/false);
    if (edge.MustColocate()) {
      // Non-remotable interface between the endpoints: they cannot be
      // split, whatever the traffic volume.
      graph.AddEdge(a, b, 0, 0, 0.0, /*constraint=*/true);
    }
  }

  // Absolute pins (API analysis + programmer).
  for (const auto& [id, machine] : constraints.absolute()) {
    const int node = graph.NodeOf(id);
    if (node < 0) {
      continue;
    }
    const int terminal = (machine == kServerMachine) ? kServerNode : kClientNode;
    graph.AddEdge(terminal, node, 0, 0, 0.0, /*constraint=*/true);
  }

  // Pairwise colocation.
  for (const auto& [a, b] : constraints.colocated()) {
    graph.AddEdge(node_of(a), node_of(b), 0, 0, 0.0, /*constraint=*/true);
  }
  return graph;
}

}  // namespace coign
