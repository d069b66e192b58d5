#include "src/mincut/push_relabel.h"

#include <algorithm>
#include <cassert>

namespace coign {

void MinCutSolveStats::Accumulate(const MinCutSolveStats& other) {
  pushes += other.pushes;
  relabels += other.relabels;
  global_relabels += other.global_relabels;
  gap_relabels += other.gap_relabels;
}

namespace {

// Heights live in [0, 2n + 1] for a conserving preflow; a little headroom
// absorbs the saturation-anomaly cases (see the excess note in
// relabel_to_front.cc) without out-of-bounds bucket access.
int HeightLimit(int n) { return 2 * n + 4; }

}  // namespace

void PushRelabelSolver::Activate(int node) {
  if (in_bucket_[static_cast<size_t>(node)]) {
    return;
  }
  const int h = height_[static_cast<size_t>(node)];
  in_bucket_[static_cast<size_t>(node)] = true;
  bucket_next_[static_cast<size_t>(node)] = bucket_head_[static_cast<size_t>(h)];
  bucket_head_[static_cast<size_t>(h)] = node;
  highest_active_ = std::max(highest_active_, h);
}

int PushRelabelSolver::PopHighestActive() {
  while (highest_active_ >= 0) {
    const int node = bucket_head_[static_cast<size_t>(highest_active_)];
    if (node < 0) {
      --highest_active_;
      continue;
    }
    bucket_head_[static_cast<size_t>(highest_active_)] = bucket_next_[static_cast<size_t>(node)];
    in_bucket_[static_cast<size_t>(node)] = false;
    // A gap lift may have moved the node since it was bucketed; the entry
    // is lazily revalidated here instead of eagerly re-linked.
    if (height_[static_cast<size_t>(node)] != highest_active_) {
      if (excess_[static_cast<size_t>(node)] > 0) {
        Activate(node);
      }
      continue;
    }
    if (excess_[static_cast<size_t>(node)] <= 0) {
      continue;
    }
    return node;
  }
  return -1;
}

void PushRelabelSolver::GlobalRelabel(const CompactFlowNetwork& net, int source, int sink) {
  ++last_stats_.global_relabels;
  const int limit = HeightLimit(n_);
  height_.assign(static_cast<size_t>(n_), limit);
  bfs_queue_.clear();

  // Pass 1: exact residual distance to the sink. A node u is one step
  // closer than w when the arc u -> w has residual — scanning w's
  // out-arcs, that is the residual of the paired reverse arc.
  height_[static_cast<size_t>(sink)] = 0;
  bfs_queue_.push_back(sink);
  for (size_t head = 0; head < bfs_queue_.size(); ++head) {
    const int w = bfs_queue_[head];
    const int d = height_[static_cast<size_t>(w)];
    const int end = net.first_out(w + 1);
    for (int a = net.first_out(w); a < end; ++a) {
      const int u = net.arc(a).to;
      if (u == source || height_[static_cast<size_t>(u)] != limit) {
        continue;
      }
      if (net.arc(net.arc(a).reverse).Residual() > 0) {
        height_[static_cast<size_t>(u)] = d + 1;
        bfs_queue_.push_back(u);
      }
    }
  }

  // Pass 2: sink-disconnected nodes drain back to the source; their
  // height is n plus the exact residual distance to the source.
  height_[static_cast<size_t>(source)] = n_;
  bfs_queue_.clear();
  bfs_queue_.push_back(source);
  for (size_t head = 0; head < bfs_queue_.size(); ++head) {
    const int w = bfs_queue_[head];
    const int d = height_[static_cast<size_t>(w)];
    const int end = net.first_out(w + 1);
    for (int a = net.first_out(w); a < end; ++a) {
      const int u = net.arc(a).to;
      if (height_[static_cast<size_t>(u)] != limit) {
        continue;
      }
      if (net.arc(net.arc(a).reverse).Residual() > 0) {
        height_[static_cast<size_t>(u)] = d + 1;
        bfs_queue_.push_back(u);
      }
    }
  }
  // Nodes unreached by both passes keep `limit`: they are residually
  // disconnected from both terminals, carry no excess (an excess-holding
  // node always has a positive-residual out-arc chain), and stay idle.

  // Heights changed wholesale: rebuild the per-height census, the active
  // buckets, and the current-arc pointers.
  height_count_.assign(static_cast<size_t>(limit) + 1, 0);
  bucket_head_.assign(static_cast<size_t>(limit) + 1, -1);
  in_bucket_.assign(static_cast<size_t>(n_), false);
  bucket_next_.assign(static_cast<size_t>(n_), -1);
  highest_active_ = 0;
  for (int v = 0; v < n_; ++v) {
    current_arc_[static_cast<size_t>(v)] = net.first_out(v);
    if (v == source || v == sink) {
      continue;
    }
    ++height_count_[static_cast<size_t>(height_[static_cast<size_t>(v)])];
    if (excess_[static_cast<size_t>(v)] > 0) {
      Activate(v);
    }
  }
}

CapUnits PushRelabelSolver::Solve(CompactFlowNetwork& net, int source, int sink) {
  assert(net.finalized());
  assert(source != sink);
  assert(source >= 0 && source < net.node_count());
  assert(sink >= 0 && sink < net.node_count());
  n_ = net.node_count();
  last_stats_ = MinCutSolveStats{};
  current_arc_.assign(static_cast<size_t>(n_), 0);
  net.ResetFlow();
  excess_.assign(static_cast<size_t>(n_), 0);

  // Saturate the source's out-arcs. This must happen *before* the global
  // relabel: saturation creates residual arcs back to the source, and
  // heights are only valid if the distance BFS saw them.
  {
    const int end = net.first_out(source + 1);
    for (int a = net.first_out(source); a < end; ++a) {
      CompactArc& arc = net.arc(a);
      const CapUnits amount = arc.Residual();
      if (amount <= 0) {
        continue;
      }
      ++last_stats_.pushes;
      arc.flow = SatAdd(arc.flow, amount);
      CompactArc& reverse = net.arc(arc.reverse);
      reverse.flow = SatSub(reverse.flow, amount);
      excess_[static_cast<size_t>(arc.to)] = SatAdd(excess_[static_cast<size_t>(arc.to)], amount);
      excess_[static_cast<size_t>(source)] =
          SatSub(excess_[static_cast<size_t>(source)], amount);
    }
  }

  // Exact initial heights + active buckets (built from current excess).
  GlobalRelabel(net, source, sink);

  const int limit = HeightLimit(n_);
  // One global relabel per ~n relabels keeps labels near-exact without
  // dominating the push work.
  const uint64_t global_interval = static_cast<uint64_t>(std::max(n_, 32));
  uint64_t relabels_since_global = 0;

  int u;
  while ((u = PopHighestActive()) != -1) {
    // Discharge u: push along admissible current arcs, relabel when the
    // arc list is exhausted, until its excess is gone.
    bool rebucketed = false;
    while (excess_[static_cast<size_t>(u)] > 0) {
      const int arcs_end = net.first_out(u + 1);
      if (current_arc_[static_cast<size_t>(u)] >= arcs_end) {
        // Relabel: one above the lowest residual neighbor.
        int min_height = limit;
        for (int a = net.first_out(u); a < arcs_end; ++a) {
          if (net.arc(a).Residual() > 0) {
            min_height = std::min(min_height, height_[static_cast<size_t>(net.arc(a).to)]);
          }
        }
        const int old_height = height_[static_cast<size_t>(u)];
        if (min_height + 1 == old_height) {
          // An admissible arc exists after all — the current-arc pointer
          // went stale across a gap lift of a neighbor. Rescan instead
          // of a no-op relabel.
          current_arc_[static_cast<size_t>(u)] = net.first_out(u);
          continue;
        }
        assert(min_height + 1 > old_height);
        assert(min_height < limit);
        ++last_stats_.relabels;
        ++relabels_since_global;
        const int new_height = min_height + 1;
        --height_count_[static_cast<size_t>(old_height)];
        ++height_count_[static_cast<size_t>(new_height)];
        height_[static_cast<size_t>(u)] = new_height;
        current_arc_[static_cast<size_t>(u)] = net.first_out(u);
        if (height_count_[static_cast<size_t>(old_height)] == 0 && old_height < n_) {
          // Gap: no node left at old_height, so nothing between
          // old_height and n can reach the sink in the residual graph.
          // Lift the whole band to n + 1 (drain-back territory).
          for (int v = 0; v < n_; ++v) {
            if (v == source || v == sink) {
              continue;
            }
            const int h = height_[static_cast<size_t>(v)];
            if (h > old_height && h < n_) {
              --height_count_[static_cast<size_t>(h)];
              ++height_count_[static_cast<size_t>(n_) + 1];
              height_[static_cast<size_t>(v)] = n_ + 1;
              current_arc_[static_cast<size_t>(v)] = net.first_out(v);
              ++last_stats_.gap_relabels;
            }
          }
          if (height_[static_cast<size_t>(u)] != new_height) {
            // u itself was in the lifted band; re-enter the bucket loop
            // so highest-label selection stays honest.
            Activate(u);
            rebucketed = true;
            break;
          }
        }
        if (relabels_since_global >= global_interval) {
          relabels_since_global = 0;
          GlobalRelabel(net, source, sink);
          // Buckets were rebuilt (u included, if still in excess).
          rebucketed = true;
          break;
        }
        continue;
      }
      CompactArc& arc = net.arc(current_arc_[static_cast<size_t>(u)]);
      if (arc.Residual() > 0 &&
          height_[static_cast<size_t>(u)] == height_[static_cast<size_t>(arc.to)] + 1) {
        const CapUnits amount = std::min(excess_[static_cast<size_t>(u)], arc.Residual());
        ++last_stats_.pushes;
        arc.flow = SatAdd(arc.flow, amount);
        CompactArc& reverse = net.arc(arc.reverse);
        reverse.flow = SatSub(reverse.flow, amount);
        excess_[static_cast<size_t>(u)] -= amount;  // Exact: amount <= excess.
        excess_[static_cast<size_t>(arc.to)] =
            SatAdd(excess_[static_cast<size_t>(arc.to)], amount);
        if (arc.to != source && arc.to != sink && excess_[static_cast<size_t>(arc.to)] > 0) {
          Activate(arc.to);
        }
      } else {
        ++current_arc_[static_cast<size_t>(u)];
      }
    }
    if (!rebucketed && excess_[static_cast<size_t>(u)] > 0) {
      Activate(u);
    }
  }
  // No non-terminal node holds excess: the preflow is a maximum flow, and
  // the sink's derived excess is its value.
  return excess_[static_cast<size_t>(sink)];
}

}  // namespace coign
