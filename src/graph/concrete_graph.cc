#include "src/graph/concrete_graph.h"

#include <algorithm>

namespace coign {

double EdgeSeconds(uint64_t messages, uint64_t bytes, const NetworkProfile& network) {
  return static_cast<double>(messages) * network.per_message_seconds +
         static_cast<double>(bytes) * network.seconds_per_byte;
}

double EdgeSeconds(const AbstractIccGraph::Edge& edge, const NetworkProfile& network) {
  return EdgeSeconds(edge.messages.total_count(), edge.messages.total_bytes(), network);
}

void ConcreteGraph::AddEdge(int a, int b, uint64_t messages, uint64_t bytes, bool constraint) {
  if (a == b) {
    return;
  }
  edges_.push_back(ConcreteEdge{a, b, messages, bytes, 0.0, constraint});
}

void ConcreteGraph::Price(const NetworkProfile& network) {
  for (ConcreteEdge& edge : edges_) {
    if (!edge.constraint) {
      edge.seconds = EdgeSeconds(edge.messages, edge.bytes, network);
    }
  }
}

Result<int> ConcreteGraph::IndexOf(ClassificationId id) const {
  auto it = index_.find(id);
  if (it == index_.end()) {
    return NotFoundError("classification not in concrete graph");
  }
  return it->second;
}

double ConcreteGraph::TotalCommunicationSeconds() const {
  double total = 0.0;
  for (const ConcreteEdge& edge : edges_) {
    if (!edge.constraint) {
      total += edge.seconds;
    }
  }
  return total;
}

ConcreteGraph ConcreteGraph::Build(const AbstractIccGraph& abstract,
                                   const NetworkProfile& network,
                                   const LocationConstraints& constraints) {
  ConcreteGraph graph;

  // Dense node numbering: classifications sorted by id, offset by the two
  // terminals.
  graph.node_ids_ = abstract.profile().SortedClassificationIds();
  for (size_t i = 0; i < graph.node_ids_.size(); ++i) {
    graph.index_.emplace(graph.node_ids_[i], static_cast<int>(i) + 2);
  }

  auto node_of = [&graph](ClassificationId id) -> int {
    if (id == kNoClassification) {
      // The application driver (user, GUI thread) is the client terminal.
      return kClientNode;
    }
    auto it = graph.index_.find(id);
    return it == graph.index_.end() ? kClientNode : it->second;
  };

  // Communication edges.
  for (const AbstractIccGraph::PairKey& pair : abstract.SortedPairs()) {
    const AbstractIccGraph::Edge& edge = abstract.edges().at(pair);
    const int a = node_of(pair.a);
    const int b = node_of(pair.b);
    if (a == b) {
      continue;
    }
    graph.AddEdge(a, b, edge.messages.total_count(), edge.messages.total_bytes(),
                  /*constraint=*/false);
    if (edge.MustColocate()) {
      // Non-remotable interface between the endpoints: they cannot be
      // split, whatever the traffic volume.
      graph.AddEdge(a, b, 0, 0, /*constraint=*/true);
    }
  }

  // Absolute pins (API analysis + programmer).
  for (const auto& [id, machine] : constraints.absolute()) {
    auto it = graph.index_.find(id);
    if (it == graph.index_.end()) {
      continue;
    }
    const int terminal = (machine == kServerMachine) ? kServerNode : kClientNode;
    graph.AddEdge(terminal, it->second, 0, 0, /*constraint=*/true);
  }

  // Pairwise colocation.
  for (const auto& [a, b] : constraints.colocated()) {
    graph.AddEdge(node_of(a), node_of(b), 0, 0, /*constraint=*/true);
  }

  graph.Price(network);
  return graph;
}

}  // namespace coign
