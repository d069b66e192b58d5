#include "src/graph/icc_graph.h"

#include <algorithm>

namespace coign {

AbstractIccGraph AbstractIccGraph::FromProfile(const IccProfile& profile) {
  AbstractIccGraph graph;
  graph.nodes_ = profile.SortedClassificationIds();
  std::vector<Edge>& edges = graph.edges_;
  edges.reserve(profile.calls().size());
  // Pair-major rows: each pair's call keys are adjacent, pairs ascending.
  for (const auto& [key, summary] : profile.calls()) {
    if (key.src == key.dst) {
      continue;  // Intra-classification calls never cross the wire.
    }
    const ClassificationId a = std::min(key.src, key.dst);
    const ClassificationId b = std::max(key.src, key.dst);
    if (edges.empty() || edges.back().a != a || edges.back().b != b) {
      edges.push_back(Edge{a, b, 0, 0, 0});
    }
    Edge& edge = edges.back();
    edge.messages += summary.requests.total_count() + summary.replies.total_count();
    edge.bytes += summary.total_bytes();
    edge.non_remotable_calls += summary.non_remotable_calls;
  }
  return graph;
}

}  // namespace coign
