// Highest-label push-relabel max-flow on CompactFlowNetwork.
//
// This is the production solver behind CutAlgorithm::kPushRelabel; the
// paper's CLRS relabel-to-front and the test-only Edmonds-Karp stay as
// differential oracles (see tests/mincut_equivalence_test.cc). Two
// heuristics make it fast on the repeated-cut workloads:
//
//  * Gap relabeling: when no node remains at height h < n, every node at
//    height h < height < n is unreachable from the sink in the residual
//    graph and is lifted straight to n + 1 (drain-back territory),
//    skipping its doomed one-step relabels.
//  * Periodic global relabeling: an exact backward BFS recomputes every
//    height as the true residual distance to the sink (or n + distance to
//    the source for sink-disconnected nodes), repairing the label decay
//    that plain push-relabel suffers on long runs.
//
// The solver runs the combined two-phase form: it keeps discharging until
// no non-terminal node holds excess, so the final flow is a genuine
// maximum *flow* (conservation everywhere), not just a saturated preflow.
// That is what makes partitions byte-identical across solvers: for a
// maximum flow the set of source-residual-reachable nodes is the same
// unique minimal min cut regardless of which algorithm produced the flow.
//
// All arithmetic is the same exact CapUnits/saturating-sentinel scheme as
// relabel_to_front.cc (see the excess-saturation note there — the height
// argument for termination does not depend on excess conservation).
//
// The solver accepts a network whose arcs already carry a feasible flow
// with non-negative derived excess at every non-terminal node, and
// resumes from it — that is the warm-start entry used by
// IncrementalMinCut. A zero flow state degenerates to the classic cold
// solve. Scratch buffers persist across Solve() calls, so a long-lived
// solver performs no per-cut allocations once warmed up.

#ifndef COIGN_SRC_MINCUT_PUSH_RELABEL_H_
#define COIGN_SRC_MINCUT_PUSH_RELABEL_H_

#include <cstdint>
#include <vector>

#include "src/mincut/compact_flow_network.h"

namespace coign {

// Work counters for one or more solves. Drives the mincut.* metrics.
struct MinCutSolveStats {
  uint64_t pushes = 0;
  uint64_t relabels = 0;
  uint64_t global_relabels = 0;
  uint64_t gap_relabels = 0;        // Nodes lifted by the gap heuristic.
  uint64_t warm_start_hits = 0;     // Solves resumed from a prior flow.
  CapUnits flow_reused_units = 0;   // Sink inflow already present at warm start.

  void Accumulate(const MinCutSolveStats& other);
};

class PushRelabelSolver {
 public:
  PushRelabelSolver() = default;

  // Augments the network's current flow to a maximum flow and returns its
  // value (the sink's derived excess). Precondition: the current flow is
  // capacity-feasible and antisymmetric, and every non-terminal node's
  // derived excess (inflow minus outflow) is >= 0. Zero flow trivially
  // qualifies.
  CapUnits Solve(CompactFlowNetwork& net, int source, int sink);

  // Counters for the most recent Solve() call.
  const MinCutSolveStats& last_stats() const { return last_stats_; }

 private:
  void ComputeExcess(const CompactFlowNetwork& net);
  void GlobalRelabel(const CompactFlowNetwork& net, int source, int sink);
  void Activate(int node);
  int PopHighestActive();

  MinCutSolveStats last_stats_;

  // Scratch, sized on demand and reused across solves.
  std::vector<int> height_;
  std::vector<CapUnits> excess_;
  std::vector<int> current_arc_;
  std::vector<int> height_count_;   // Non-terminal nodes per height.
  std::vector<int> bucket_head_;    // Active-node buckets by height.
  std::vector<int> bucket_next_;
  std::vector<bool> in_bucket_;
  std::vector<int> bfs_queue_;
  int highest_active_ = 0;
  int n_ = 0;
};

// Cold-solve convenience entry with the same signature as
// MinCutRelabelToFront, for the differential oracles and the parameterized
// algorithm tests. Solves from zero flow on a per-call working copy of the
// finalized `network`.
CutResult MinCutPushRelabel(const CompactFlowNetwork& network, int source, int sink);

}  // namespace coign

#endif  // COIGN_SRC_MINCUT_PUSH_RELABEL_H_
