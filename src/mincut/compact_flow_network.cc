#include "src/mincut/compact_flow_network.h"

#include <cassert>

namespace coign {

CompactFlowNetwork::CompactFlowNetwork(int node_count) : node_count_(node_count) {
  assert(node_count >= 0);
}

void CompactFlowNetwork::Stage(int from, int to, CapUnits capacity, bool directed) {
  assert(!finalized_);
  assert(from >= 0 && from < node_count_);
  assert(to >= 0 && to < node_count_);
  assert(capacity >= 0);
  edges_.push_back(Edge{from, to, capacity, directed});
}

void CompactFlowNetwork::AddArc(int from, int to, CapUnits capacity) {
  Stage(from, to, capacity, /*directed=*/true);
}

void CompactFlowNetwork::AddEdge(int a, int b, CapUnits capacity) {
  Stage(a, b, capacity, /*directed=*/false);
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
  // solver follows.
  for (const Edge& edge : edges_) {
    ++first_out_[static_cast<size_t>(edge.from) + 1];
    ++first_out_[static_cast<size_t>(edge.to) + 1];
  }
  for (size_t v = 0; v < n; ++v) {
    first_out_[v + 1] += first_out_[v];
  }
  arcs_.assign(edges_.size() * 2, CompactArc{});
  std::vector<int> next_slot(first_out_.begin(), first_out_.end() - 1);
  for (const Edge& edge : edges_) {
    const int forward = next_slot[static_cast<size_t>(edge.from)]++;
    const int backward = next_slot[static_cast<size_t>(edge.to)]++;
    arcs_[static_cast<size_t>(forward)].to = edge.to;
    arcs_[static_cast<size_t>(forward)].reverse = backward;
    arcs_[static_cast<size_t>(forward)].capacity = edge.capacity;
    arcs_[static_cast<size_t>(backward)].to = edge.from;
    arcs_[static_cast<size_t>(backward)].reverse = forward;
    arcs_[static_cast<size_t>(backward)].capacity = edge.directed ? 0 : edge.capacity;
  }
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
  CutResult cut;
  cut.cut_value = flow_value;
  std::vector<bool>& side = cut.in_source_side;
  side.assign(static_cast<size_t>(node_count_), false);
  // Heads of saturated sentinel arcs out of the side. A sentinel arc with
  // residual left reaches its head, so only these can cross the cut.
  std::vector<int> sentinel_heads;
  std::vector<int> stack = {source};
  side[static_cast<size_t>(source)] = true;
  while (!stack.empty()) {
    const int node = stack.back();
    stack.pop_back();
    const int end = first_out(node + 1);
    for (int a = first_out(node); a < end; ++a) {
      const CompactArc& arc = arcs_[static_cast<size_t>(a)];
      if (arc.Residual() <= 0) {
        if (arc.capacity == kInfiniteCapacity) {
          sentinel_heads.push_back(arc.to);
        }
      } else if (!side[static_cast<size_t>(arc.to)]) {
        side[static_cast<size_t>(arc.to)] = true;
        stack.push_back(arc.to);
      }
    }
  }
  // A sentinel arc crossing the partition means the constraint set is
  // infeasible: every s-t cut severs a pin. Promote to the sentinel
  // exactly, so every solver reports infeasibility identically. (A
  // sentinel arc can only be saturated — and thus end up crossing — when
  // the max flow itself reached the sentinel, so this is a no-op except
  // on infeasible inputs or genuinely saturated flows.)
  for (int head : sentinel_heads) {
    if (!side[static_cast<size_t>(head)]) {
      cut.cut_value = kInfiniteCapacity;
      break;
    }
  }
  return cut;
}

}  // namespace coign
