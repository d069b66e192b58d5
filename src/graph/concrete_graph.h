// The concrete communication-time graph (paper §2).
//
// "The abstract ICC graph is combined with a network profile to create a
// concrete graph of potential communication time on the network." Nodes 0
// and 1 are the client and server terminals; classifications occupy dense
// indices from 2. A communication edge keeps the exact messages and bytes
// that would cross the wire if its endpoints split, and the seconds they
// cost on one network (NetworkProfile::TrafficSeconds): pricing is the
// only network-dependent step, so the cut envelope re-prices the same
// edges in exact integers. Constraint edges (API pins, programmer pins,
// colocation, non-remotable interfaces) carry `constraint = true` and no
// traffic of their own; Capacity() maps them to the min-cut layer's
// un-cuttable sentinel so no minimum cut can violate them.

#ifndef COIGN_SRC_GRAPH_CONCRETE_GRAPH_H_
#define COIGN_SRC_GRAPH_CONCRETE_GRAPH_H_

#include <cstdint>
#include <vector>

#include "src/graph/constraints.h"
#include "src/graph/icc_graph.h"
#include "src/mincut/compact_flow_network.h"
#include "src/net/network_profiler.h"

namespace coign {

struct ConcreteEdge {
  int a = 0;
  int b = 0;
  // One-way messages and payload bytes exchanged if a and b split. Always
  // 0 on constraint edges (flag is authoritative).
  uint64_t messages = 0;
  uint64_t bytes = 0;
  double seconds = 0.0;   // Predicted communication time of that traffic.
  bool constraint = false;  // True for un-cuttable constraint edges.

  // The edge's min-cut capacity: the quantization boundary, where
  // predicted seconds become exact integer CapUnits once per edge (rule
  // and error bound at SecondsToCapUnits). Constraint edges get the
  // un-cuttable sentinel.
  CapUnits Capacity() const {
    return constraint ? kInfiniteCapacity : SecondsToCapUnits(seconds);
  }
};

class ConcreteGraph {
 public:
  static constexpr int kClientNode = 0;
  static constexpr int kServerNode = 1;

  // Builds the concrete graph from the abstract graph, a fitted network
  // profile, and location constraints. Each communication edge's seconds
  // are the TrafficSeconds of its traffic under `network`.
  static ConcreteGraph Build(const AbstractIccGraph& abstract, const NetworkProfile& network,
                             const LocationConstraints& constraints);

  int node_count() const { return static_cast<int>(node_ids_.size()) + 2; }
  const std::vector<ConcreteEdge>& edges() const { return edges_; }

  // Classification at a dense node index (>= 2).
  ClassificationId ClassificationAt(int node) const { return node_ids_[node - 2]; }
  // Dense index of a classification (binary search), or -1 if it is not
  // a node.
  int NodeOf(ClassificationId id) const;

  // All classification ids in dense order (ascending).
  const std::vector<ClassificationId>& classifications() const { return node_ids_; }

 private:
  void AddEdge(int a, int b, uint64_t messages, uint64_t bytes, double seconds,
               bool constraint);

  std::vector<ClassificationId> node_ids_;  // Dense index - 2 → classification.
  std::vector<ConcreteEdge> edges_;
};

}  // namespace coign

#endif  // COIGN_SRC_GRAPH_CONCRETE_GRAPH_H_
