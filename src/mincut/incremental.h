// The production min-cut entry the analysis engine uses: one cold
// push-relabel solve of one finalized CompactFlowNetwork, plus the cut
// extraction. Nothing here is incremental any more; the name stays
// because the benchmark's analyze replay (coignbench/workload_analyze.cc)
// times this exact cold solve by it.
//
// Solve() runs the solver to a full maximum flow and reports the unique
// minimal source side (the residual-reachable set), so the result is
// identical to every other exact solver's, relabel-to-front included.

#ifndef COIGN_SRC_MINCUT_INCREMENTAL_H_
#define COIGN_SRC_MINCUT_INCREMENTAL_H_

#include "src/mincut/compact_flow_network.h"
#include "src/mincut/push_relabel.h"

namespace coign {

class IncrementalMinCut {
 public:
  IncrementalMinCut() = default;

  // Installs a finalized network to cut between `source` and `sink`.
  // Solver scratch is kept, so re-seating on a new graph of similar size
  // does not reallocate.
  void Reset(CompactFlowNetwork network, int source, int sink);

  // Cold push-relabel from zero flow, then the cut. Calling it again
  // re-solves from zero.
  CutResult Solve();

  // Solver work of the most recent Solve().
  const MinCutSolveStats& last_stats() const { return solver_.last_stats(); }

 private:
  CompactFlowNetwork network_;
  PushRelabelSolver solver_;
  int source_ = 0;
  int sink_ = 1;
};

}  // namespace coign

#endif  // COIGN_SRC_MINCUT_INCREMENTAL_H_
