#include "src/graph/icc_graph.h"

#include <algorithm>

namespace coign {

AbstractIccGraph AbstractIccGraph::FromProfile(const IccProfile& profile) {
  AbstractIccGraph graph;
  graph.nodes_ = profile.SortedClassificationIds();
  std::vector<Edge>& edges = graph.edges_;
  edges.reserve(profile.calls().size());
  for (const auto& [key, summary] : profile.calls()) {
    if (key.src == key.dst) {
      continue;  // Intra-classification calls never cross the wire.
    }
    edges.push_back(Edge{std::min(key.src, key.dst), std::max(key.src, key.dst),
                         summary.requests.total_count() + summary.replies.total_count(),
                         summary.total_bytes(), summary.non_remotable_calls});
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& x, const Edge& y) {
    return x.a != y.a ? x.a < y.a : x.b < y.b;
  });
  // Fold each pair's call keys, now adjacent, into one edge.
  size_t pairs = 0;
  for (const Edge& edge : edges) {
    Edge* last = pairs > 0 ? &edges[pairs - 1] : nullptr;
    if (last != nullptr && last->a == edge.a && last->b == edge.b) {
      last->messages += edge.messages;
      last->bytes += edge.bytes;
      last->non_remotable_calls += edge.non_remotable_calls;
    } else {
      edges[pairs++] = edge;
    }
  }
  edges.resize(pairs);
  return graph;
}

}  // namespace coign
