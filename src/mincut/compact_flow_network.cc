#include "src/mincut/compact_flow_network.h"

#include <cassert>

namespace coign {

CompactFlowNetwork::CompactFlowNetwork(int node_count) : node_count_(node_count) {
  assert(node_count >= 0);
}

int CompactFlowNetwork::Stage(int from, int to, CapUnits capacity, bool directed) {
  assert(!finalized_);
  assert(from >= 0 && from < node_count_);
  assert(to >= 0 && to < node_count_);
  assert(capacity >= 0);
  edges_.push_back(StagedEdge{from, to, capacity, directed});
  return static_cast<int>(edges_.size()) - 1;
}

int CompactFlowNetwork::AddArc(int from, int to, CapUnits capacity) {
  return Stage(from, to, capacity, /*directed=*/true);
}

int CompactFlowNetwork::AddEdge(int a, int b, CapUnits capacity) {
  return Stage(a, b, capacity, /*directed=*/false);
}

void CompactFlowNetwork::Finalize() {
  if (finalized_) {
    return;
  }
  finalized_ = true;
  const size_t n = static_cast<size_t>(node_count_);
  first_out_.assign(n + 1, 0);
  // Each staged edge contributes one arc at its tail and one at its head.
  // Placing them by a stable counting sort over the staged order keeps
  // each node's arcs in edge-insertion order — the scan order every
  // solver, and cut_edges extraction, follows.
  for (const StagedEdge& edge : edges_) {
    ++first_out_[static_cast<size_t>(edge.from) + 1];
    ++first_out_[static_cast<size_t>(edge.to) + 1];
  }
  for (size_t v = 0; v < n; ++v) {
    first_out_[v + 1] += first_out_[v];
  }
  arcs_.assign(edges_.size() * 2, CompactArc{});
  edge_forward_.assign(edges_.size(), 0);
  std::vector<int> next_slot(first_out_.begin(), first_out_.end() - 1);
  for (size_t i = 0; i < edges_.size(); ++i) {
    const StagedEdge& edge = edges_[i];
    const int forward = next_slot[static_cast<size_t>(edge.from)]++;
    const int backward = next_slot[static_cast<size_t>(edge.to)]++;
    arcs_[static_cast<size_t>(forward)].to = edge.to;
    arcs_[static_cast<size_t>(forward)].reverse = backward;
    arcs_[static_cast<size_t>(forward)].capacity = edge.capacity;
    arcs_[static_cast<size_t>(backward)].to = edge.from;
    arcs_[static_cast<size_t>(backward)].reverse = forward;
    arcs_[static_cast<size_t>(backward)].capacity = edge.directed ? 0 : edge.capacity;
    edge_forward_[i] = forward;
  }
}

void CompactFlowNetwork::SetEdgeCapacity(int edge_id, CapUnits capacity) {
  assert(finalized_);
  assert(edge_id >= 0 && edge_id < edge_count());
  assert(capacity >= 0);
  StagedEdge& edge = edges_[static_cast<size_t>(edge_id)];
  edge.capacity = capacity;
  CompactArc& forward = arcs_[static_cast<size_t>(edge_forward_[static_cast<size_t>(edge_id)])];
  forward.capacity = capacity;
  if (!edge.directed) {
    arcs_[static_cast<size_t>(forward.reverse)].capacity = capacity;
  }
}

CapUnits CompactFlowNetwork::EdgeCapacity(int edge_id) const {
  assert(edge_id >= 0 && edge_id < edge_count());
  return edges_[static_cast<size_t>(edge_id)].capacity;
}

int CutResult::SourceSideCount() const {
  int count = 0;
  for (bool b : in_source_side) {
    count += b ? 1 : 0;
  }
  return count;
}

void CompactFlowNetwork::ResetFlow() {
  for (CompactArc& arc : arcs_) {
    arc.flow = 0;
  }
}

CutResult CompactFlowNetwork::ExtractCut(int source, CapUnits flow_value) const {
  assert(finalized_);
  CutResult result;
  result.cut_value = flow_value;
  result.in_source_side.assign(static_cast<size_t>(node_count_), false);
  std::vector<int> stack = {source};
  result.in_source_side[static_cast<size_t>(source)] = true;
  while (!stack.empty()) {
    const int node = stack.back();
    stack.pop_back();
    const int end = first_out(node + 1);
    for (int a = first_out(node); a < end; ++a) {
      const CompactArc& arc = arcs_[static_cast<size_t>(a)];
      if (arc.Residual() > 0 && !result.in_source_side[static_cast<size_t>(arc.to)]) {
        result.in_source_side[static_cast<size_t>(arc.to)] = true;
        stack.push_back(arc.to);
      }
    }
  }
  bool sentinel_crossing = false;
  for (int node = 0; node < node_count_; ++node) {
    if (!result.in_source_side[static_cast<size_t>(node)]) {
      continue;
    }
    const int end = first_out(node + 1);
    for (int a = first_out(node); a < end; ++a) {
      const CompactArc& arc = arcs_[static_cast<size_t>(a)];
      if (arc.capacity > 0 && !result.in_source_side[static_cast<size_t>(arc.to)]) {
        result.cut_edges.emplace_back(node, arc.to);
        if (arc.capacity == kInfiniteCapacity) {
          sentinel_crossing = true;
        }
      }
    }
  }
  // A sentinel arc crossing the partition means the constraint set is
  // infeasible: every s-t cut severs a pin. Promote to the sentinel
  // exactly, so every solver reports infeasibility identically. (A
  // sentinel arc can only be saturated — and thus end up crossing — when
  // the max flow itself reached the sentinel, so this is a no-op except
  // on infeasible inputs or genuinely saturated flows.)
  if (sentinel_crossing) {
    result.cut_value = kInfiniteCapacity;
  }
  return result;
}

}  // namespace coign
