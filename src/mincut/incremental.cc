#include "src/mincut/incremental.h"

#include <algorithm>
#include <cassert>

namespace coign {

void IncrementalMinCut::Reset(CompactFlowNetwork network, int source, int sink) {
  assert(network.finalized());
  assert(source != sink);
  assert(source >= 0 && source < network.node_count());
  assert(sink >= 0 && sink < network.node_count());
  network_ = std::move(network);
  network_.ResetFlow();
  source_ = source;
  sink_ = sink;
  has_network_ = true;
  has_flow_ = false;
  last_infeasible_ = false;
  dirty_edges_.clear();
}

void IncrementalMinCut::SetEdgeCapacity(int edge_id, CapUnits capacity) {
  assert(has_network_);
  if (network_.EdgeCapacity(edge_id) == capacity) {
    return;
  }
  network_.SetEdgeCapacity(edge_id, capacity);
  dirty_edges_.push_back(edge_id);
}

bool IncrementalMinCut::RepairFlow() {
  // Saturated flow values make derived excess unreliable (SatAdd can have
  // absorbed units); only possible on sentinel-capacity graphs. Punt.
  const int arc_count = network_.arc_count();
  for (int a = 0; a < arc_count; ++a) {
    const CapUnits flow = network_.arc(a).flow;
    if (flow == kInfiniteCapacity || flow == -kInfiniteCapacity) {
      return false;
    }
  }

  // Clip over-capacity flow on the decreased arcs. Antisymmetry means at
  // most one direction of a pair carries positive flow, and all values
  // here are strictly inside the finite range, so plain arithmetic is
  // exact.
  bool clipped = false;
  for (const int edge_id : dirty_edges_) {
    const int forward = network_.EdgeForwardArc(edge_id);
    const int indices[2] = {forward, network_.arc(forward).reverse};
    for (const int index : indices) {
      CompactArc& arc = network_.arc(index);
      if (arc.flow > arc.capacity) {
        network_.arc(arc.reverse).flow = -arc.capacity;
        arc.flow = arc.capacity;
        clipped = true;
      }
    }
  }
  if (!clipped) {
    return true;  // Pure increases: the retained flow is still feasible.
  }

  // Derived per-node balance (inflow minus outflow). For the retained
  // maximum flow this was 0 at every non-terminal node; clipping d units
  // off an arc leaves +d at its tail (ordinary preflow excess, fine) and
  // -d at its head (a deficit that must be cancelled before the solver
  // can resume).
  const int n = network_.node_count();
  balance_.assign(static_cast<size_t>(n), 0);
  for (int v = 0; v < n; ++v) {
    const int end = network_.first_out(v + 1);
    CapUnits balance = 0;
    for (int a = network_.first_out(v); a < end; ++a) {
      // Every |flow| is finite (guard above), but a sum of sentinel-scale
      // flows can still leave the exact range; such a flow is not soundly
      // repairable.
      balance = SatSub(balance, network_.arc(a).flow);
      if (balance == kInfiniteCapacity || balance == -kInfiniteCapacity) {
        return false;
      }
    }
    balance_[static_cast<size_t>(v)] = balance;
  }

  deficit_queue_.clear();
  for (int v = 0; v < n; ++v) {
    if (v != source_ && v != sink_ && balance_[static_cast<size_t>(v)] < 0) {
      deficit_queue_.push_back(v);
    }
  }

  // Cancel each deficit by draining the node's own positive-flow
  // out-arcs: the node forwarded units it no longer receives, so its
  // outflow exceeds its inflow by exactly the deficit and enough
  // drainable flow always exists. Draining may move the deficit one hop
  // downstream (re-queued); terminals absorb imbalance. A deficit chased
  // around a positive-flow cycle shrinks the cycle's flow every lap, so
  // this terminates — but laps can be numerous on adversarial inputs, so
  // a generous operation budget bounds the walk and overruns fall back
  // to a cold solve (performance lost, exactness kept).
  size_t budget = 4 * static_cast<size_t>(arc_count) + 64 * dirty_edges_.size() + 256;
  while (!deficit_queue_.empty()) {
    const int v = deficit_queue_.back();
    deficit_queue_.pop_back();
    CapUnits deficit = -balance_[static_cast<size_t>(v)];
    if (deficit <= 0) {
      continue;
    }
    const int begin = network_.first_out(v);
    const int end = network_.first_out(v + 1);
    for (int a = begin; a < end && deficit > 0; ++a) {
      CompactArc& arc = network_.arc(a);
      if (arc.flow <= 0 || arc.to == v) {
        continue;  // Draining a self-loop cannot move the balance.
      }
      if (budget-- == 0) {
        return false;
      }
      const CapUnits amount = std::min(deficit, arc.flow);
      arc.flow -= amount;
      network_.arc(arc.reverse).flow += amount;
      deficit -= amount;
      balance_[static_cast<size_t>(v)] += amount;
      CapUnits& downstream = balance_[static_cast<size_t>(arc.to)];
      const bool was_deficit = downstream < 0;
      downstream = SatSub(downstream, amount);
      if (downstream == -kInfiniteCapacity) {
        return false;  // Same sentinel-scale bound as the balances above.
      }
      if (!was_deficit && downstream < 0 && arc.to != source_ && arc.to != sink_) {
        deficit_queue_.push_back(arc.to);
      }
    }
    if (deficit > 0) {
      // Outflow ran out before the deficit did — impossible for a flow
      // that was consistent before clipping; treat defensively.
      return false;
    }
  }
  return true;
}

CutResult IncrementalMinCut::Solve() {
  assert(has_network_);
  last_stats_ = MinCutSolveStats{};
  bool warm = has_flow_ && !last_infeasible_;
  if (warm) {
    warm = RepairFlow();
  }
  if (!warm) {
    // Cold solve (first cut, or repair declined). Also wipes any partial
    // repair state.
    network_.ResetFlow();
  } else {
    ++last_stats_.warm_start_hits;
    // Sink inflow surviving the repair — flow the warm start did not
    // have to recompute.
    CapUnits inflow = 0;
    const int end = network_.first_out(sink_ + 1);
    for (int a = network_.first_out(sink_); a < end; ++a) {
      inflow = SatSub(inflow, network_.arc(a).flow);
    }
    if (inflow > 0) {
      last_stats_.flow_reused_units = inflow;
    }
  }
  dirty_edges_.clear();

  const CapUnits flow = solver_.Solve(network_, source_, sink_);
  const MinCutSolveStats& solve = solver_.last_stats();
  last_stats_.pushes += solve.pushes;
  last_stats_.relabels += solve.relabels;
  last_stats_.global_relabels += solve.global_relabels;
  last_stats_.gap_relabels += solve.gap_relabels;
  total_stats_.Accumulate(last_stats_);

  CutResult cut = network_.ExtractCut(source_, flow);
  has_flow_ = true;
  last_infeasible_ = cut.cut_value == kInfiniteCapacity;
  return cut;
}

}  // namespace coign
