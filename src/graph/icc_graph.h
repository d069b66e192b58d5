// The abstract inter-component communication graph (paper §2).
//
// "The profile analysis engine combines component communication profiles
// and component location constraints to create an abstract ICC graph of the
// application." Abstract means network-independent: edges carry message
// and byte totals, not seconds (the fitted network model is affine, so the
// totals are all any network needs to price them). Nodes are instance
// classifications; the application driver (GUI thread, the user) is the
// pseudo-node kNoClassification and always lives on the client.
//
// A profile keeps its call rows in pair-major order (icc_profile.h), the
// order of this graph's edges, so building the graph sorts nothing: it
// folds each run of adjacent rows of one pair into that pair's edge.

#ifndef COIGN_SRC_GRAPH_ICC_GRAPH_H_
#define COIGN_SRC_GRAPH_ICC_GRAPH_H_

#include <cstdint>
#include <vector>

#include "src/profile/icc_profile.h"

namespace coign {

class AbstractIccGraph {
 public:
  // The traffic of one undirected classification pair, a < b.
  // kNoClassification is the largest id, so the driver end is always b.
  struct Edge {
    ClassificationId a = kNoClassification;
    ClassificationId b = kNoClassification;
    // One-way messages exchanged between the endpoints (each call
    // contributes its request and its reply) and their payload bytes.
    uint64_t messages = 0;
    uint64_t bytes = 0;
    // Calls on this pair that crossed a non-remotable interface or carried
    // opaque parameters: the endpoints must be colocated.
    uint64_t non_remotable_calls = 0;

    bool MustColocate() const { return non_remotable_calls > 0; }
  };

  // One pass over the profile's pair-major call rows, folding each pair's
  // adjacent keys into its edge.
  static AbstractIccGraph FromProfile(const IccProfile& profile);

  // The profile's classification ids, ascending, whether or not they call.
  const std::vector<ClassificationId>& nodes() const { return nodes_; }
  // One edge per pair with at least one call key between them (even if
  // its traffic is 0), sorted by (a, b). Self-calls are dropped.
  const std::vector<Edge>& edges() const { return edges_; }

 private:
  std::vector<ClassificationId> nodes_;
  std::vector<Edge> edges_;
};

}  // namespace coign

#endif  // COIGN_SRC_GRAPH_ICC_GRAPH_H_
