#include "src/mincut/relabel_to_front.h"

#include <algorithm>
#include <cassert>
#include <vector>

namespace coign {
namespace {

// CLRS lift-to-front push-relabel, in exact CapUnits arithmetic.
//
// The float era needed a capacity clamp here: saturating a constraint pin
// in the initial preflow gave a node excess 1e30, and any later push of a
// small finite amount was absorbed outright (1e30 - 1e-3 == 1e30), which
// manufactured excess from nothing and could keep Discharge busy forever.
// Integer arithmetic removes the failure mode at the root — every push
// moves exactly `amount` units out of the sender — so the clamp is gone
// and sentinel capacities flow through the algorithm unmodified.
//
// Stored excess uses SatAdd, which can lose excess at a node fed by two
// sentinel arcs (kInf + kInf saturates to kInf). That is benign for the
// result: the sink's excess — the returned flow value — only saturates
// when the true max flow itself reaches the sentinel (an all-sentinel s-t
// path), which is exactly the infeasibility answer we want; excess lost
// elsewhere is surplus that could only have drained back to the source.
// Termination is unaffected: the relabel bound (heights < 2n, O(V^2)
// relabels) and the saturating/nonsaturating push bounds are height
// arguments that do not depend on excess values being conserved.
class RelabelToFront {
 public:
  RelabelToFront(CompactFlowNetwork& network, int source, int sink)
      : network_(network),
        source_(source),
        sink_(sink),
        n_(network.node_count()),
        height_(static_cast<size_t>(n_), 0),
        excess_(static_cast<size_t>(n_), 0),
        current_arc_(static_cast<size_t>(n_), 0) {
    for (int v = 0; v < n_; ++v) {
      current_arc_[static_cast<size_t>(v)] = network_.first_out(v);
    }
  }

  CapUnits Run() {
    InitializePreflow();
    // The discharge list: all vertices except source and sink, initially
    // in ascending order. Intrusive array-backed doubly-linked list (node
    // id -> prev/next), so building and reordering it performs no
    // per-node heap allocations — this runs once per cut, and online
    // repartitioning with --cold-cuts re-cuts every epoch.
    std::vector<int> next(static_cast<size_t>(n_), -1);
    std::vector<int> prev(static_cast<size_t>(n_), -1);
    int head = -1;
    int tail = -1;
    for (int v = 0; v < n_; ++v) {
      if (v == source_ || v == sink_) {
        continue;
      }
      if (head == -1) {
        head = v;
      } else {
        next[static_cast<size_t>(tail)] = v;
        prev[static_cast<size_t>(v)] = tail;
      }
      tail = v;
    }
    int it = head;
    while (it != -1) {
      const int u = it;
      const int old_height = height_[static_cast<size_t>(u)];
      Discharge(u);
      if (height_[static_cast<size_t>(u)] > old_height && u != head) {
        // Lift-to-front: a relabeled vertex moves to the head of the list
        // and the scan restarts from it. (Identical visit order to the
        // former std::list erase/push_front/begin sequence; a vertex
        // already at the head stays put either way.)
        const int p = prev[static_cast<size_t>(u)];
        const int q = next[static_cast<size_t>(u)];
        next[static_cast<size_t>(p)] = q;
        if (q != -1) {
          prev[static_cast<size_t>(q)] = p;
        } else {
          tail = p;
        }
        prev[static_cast<size_t>(u)] = -1;
        next[static_cast<size_t>(u)] = head;
        prev[static_cast<size_t>(head)] = u;
        head = u;
      }
      it = next[static_cast<size_t>(u)];
    }
    return excess_[static_cast<size_t>(sink_)];
  }

 private:
  void InitializePreflow() {
    height_[static_cast<size_t>(source_)] = n_;
    const int end = network_.first_out(source_ + 1);
    for (int a = network_.first_out(source_); a < end; ++a) {
      CompactArc& arc = network_.arc(a);
      const CapUnits amount = arc.Residual();
      if (amount <= 0) {
        continue;
      }
      arc.flow = SatAdd(arc.flow, amount);
      CompactArc& reverse = network_.arc(arc.reverse);
      reverse.flow = SatSub(reverse.flow, amount);
      excess_[static_cast<size_t>(arc.to)] =
          SatAdd(excess_[static_cast<size_t>(arc.to)], amount);
      excess_[static_cast<size_t>(source_)] =
          SatSub(excess_[static_cast<size_t>(source_)], amount);
    }
  }

  void Push(int u, CompactArc& arc) {
    const CapUnits amount = std::min(excess_[static_cast<size_t>(u)], arc.Residual());
    arc.flow = SatAdd(arc.flow, amount);
    CompactArc& reverse = network_.arc(arc.reverse);
    reverse.flow = SatSub(reverse.flow, amount);
    excess_[static_cast<size_t>(u)] -= amount;  // Exact: amount <= excess.
    excess_[static_cast<size_t>(arc.to)] =
        SatAdd(excess_[static_cast<size_t>(arc.to)], amount);
  }

  void Lift(int u) {
    int min_height = 2 * n_;
    const int end = network_.first_out(u + 1);
    for (int a = network_.first_out(u); a < end; ++a) {
      const CompactArc& arc = network_.arc(a);
      if (arc.Residual() > 0) {
        min_height = std::min(min_height, height_[static_cast<size_t>(arc.to)]);
      }
    }
    height_[static_cast<size_t>(u)] = min_height + 1;
  }

  void Discharge(int u) {
    while (excess_[static_cast<size_t>(u)] > 0) {
      if (current_arc_[static_cast<size_t>(u)] >= network_.first_out(u + 1)) {
        Lift(u);
        current_arc_[static_cast<size_t>(u)] = network_.first_out(u);
        continue;
      }
      CompactArc& arc = network_.arc(current_arc_[static_cast<size_t>(u)]);
      if (arc.Residual() > 0 &&
          height_[static_cast<size_t>(u)] == height_[static_cast<size_t>(arc.to)] + 1) {
        Push(u, arc);
      } else {
        ++current_arc_[static_cast<size_t>(u)];
      }
    }
  }

  CompactFlowNetwork& network_;
  const int source_;
  const int sink_;
  const int n_;
  std::vector<int> height_;
  std::vector<CapUnits> excess_;
  std::vector<int> current_arc_;  // Global arc index, per node.
};

}  // namespace

CutResult MinCutRelabelToFront(const CompactFlowNetwork& original, int source, int sink) {
  assert(original.finalized());
  assert(source != sink);
  assert(source >= 0 && source < original.node_count());
  assert(sink >= 0 && sink < original.node_count());

  // All mutation — preflow and relabeling — happens on this per-call
  // copy, so the entry point is safe to call from many threads at once.
  CompactFlowNetwork network = original;
  network.ResetFlow();
  RelabelToFront algorithm(network, source, sink);
  const CapUnits flow = algorithm.Run();
  return network.ExtractCut(source, flow);
}

}  // namespace coign
