// Highest-label push-relabel max-flow on CompactFlowNetwork.
//
// This is the production solver. Its one production caller is
// IncrementalMinCut (incremental.h), which runs it on a network's sentinel
// quotient for every production cut: CutAlgorithm::kPushRelabel, the cut
// envelope's probes and MultiwayCutIsolation's isolating cuts. The
// paper's CLRS relabel-to-front and the test-only Edmonds-Karp stay as
// differential oracles on the whole network (see
// tests/mincut_equivalence_test.cc). Two heuristics make it fast on the
// repeated-cut workloads:
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
// Every Solve() starts from zero flow. Scratch buffers persist across
// Solve() calls, so a long-lived solver performs no per-cut allocations
// after its first solve of a given size.

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
  // Always 0: no solve resumes from a prior flow. Kept only because the
  // benchmark's online workload still assigns it.
  uint64_t warm_start_hits = 0;

  void Accumulate(const MinCutSolveStats& other);
};

class PushRelabelSolver {
 public:
  PushRelabelSolver() = default;

  // Resets the network's flow to zero, pushes it to a maximum flow, and
  // returns its value (the sink's excess). Any flow the network carried
  // before the call is discarded.
  CapUnits Solve(CompactFlowNetwork& net, int source, int sink);

  // Counters for the most recent Solve() call.
  const MinCutSolveStats& last_stats() const { return last_stats_; }

 private:
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

}  // namespace coign

#endif  // COIGN_SRC_MINCUT_PUSH_RELABEL_H_
