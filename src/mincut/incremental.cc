#include "src/mincut/incremental.h"

#include <cassert>
#include <utility>

namespace coign {

void SentinelGroups::Reset(int node_count) {
  parent_.resize(static_cast<size_t>(node_count));
  for (int node = 0; node < node_count; ++node) {
    parent_[static_cast<size_t>(node)] = node;
  }
  group_.resize(static_cast<size_t>(node_count));
  count_ = 0;
}

int SentinelGroups::Find(int node) {
  while (parent_[static_cast<size_t>(node)] != node) {
    int& parent = parent_[static_cast<size_t>(node)];
    parent = parent_[static_cast<size_t>(parent)];  // Path halving.
    node = parent;
  }
  return node;
}

void SentinelGroups::Join(int a, int b) {
  a = Find(a);
  b = Find(b);
  if (a < b) {
    parent_[static_cast<size_t>(b)] = a;
  } else if (b < a) {
    parent_[static_cast<size_t>(a)] = b;
  }
}

void SentinelGroups::Seal() {
  count_ = 0;
  for (int node = 0; node < static_cast<int>(parent_.size()); ++node) {
    // A root is its group's lowest node, so it is numbered before any
    // other member is reached.
    const int root = Find(node);
    group_[static_cast<size_t>(node)] =
        root == node ? count_++ : group_[static_cast<size_t>(root)];
  }
}

std::vector<bool> SentinelGroups::Lift(const std::vector<bool>& group_side) const {
  std::vector<bool> side(group_.size());
  for (size_t node = 0; node < group_.size(); ++node) {
    side[node] = group_side[static_cast<size_t>(group_[node])];
  }
  return side;
}

void IncrementalMinCut::Reset(CompactFlowNetwork network, int source, int sink) {
  assert(network.finalized());
  network_ = std::move(network);
  source_ = source;
  sink_ = sink;
}

CutResult IncrementalMinCut::Solve() {
  const int n = network_.node_count();
  groups_.Reset(n);
  for (const CompactFlowNetwork::Edge& edge : network_.edges()) {
    if (!edge.directed && edge.capacity == kInfiniteCapacity) {
      groups_.Join(edge.from, edge.to);
    }
  }
  groups_.Seal();
  const int source = groups_.of(source_);
  const int sink = groups_.of(sink_);
  if (source == sink) {
    // Every cut splits the terminals' group and so crosses a sentinel; the
    // source alone is one such cut.
    stats_ = MinCutSolveStats{};
    CutResult cut{kInfiniteCapacity, std::vector<bool>(static_cast<size_t>(n), false)};
    cut.in_source_side[static_cast<size_t>(source_)] = true;
    return cut;
  }
  CompactFlowNetwork* solved = &network_;  // Nothing glued: its own quotient.
  if (groups_.count() < n) {
    quotient_ = CompactFlowNetwork(groups_.count());
    for (const CompactFlowNetwork::Edge& edge : network_.edges()) {
      const int a = groups_.of(edge.from);
      const int b = groups_.of(edge.to);
      if (a == b) {
        continue;
      }
      if (edge.directed) {
        quotient_.AddArc(a, b, edge.capacity);
      } else {
        quotient_.AddEdge(a, b, edge.capacity);
      }
    }
    quotient_.Finalize();
    solved = &quotient_;
  }
  const CapUnits flow = solver_.Solve(*solved, source, sink);
  stats_ = solver_.last_stats();
  CutResult cut = solved->ExtractCut(source, flow);
  cut.in_source_side = groups_.Lift(cut.in_source_side);
  return cut;
}

}  // namespace coign
