// The one production min-cut entry: one cold push-relabel solve of one
// finalized CompactFlowNetwork, on the network's sentinel quotient, plus
// the cut extraction. Every production cut comes through here: the
// analysis engine's two-machine cuts (Analyze and the cut envelope's
// probes) and each isolating cut of MultiwayCutIsolation (multiway.h).
// Nothing here is incremental any more; the name stays because the
// benchmark's analyze replay (coignbench/workload_analyze.cc) times this
// exact cold solve by it.
//
// The quotient. Location constraints reach the flow network as undirected
// kInfiniteCapacity edges, and they glue most of a real profile's nodes
// into a few groups: the Octarine o_newdoc + o_oldwp3 graph's 909 nodes
// and 2,036 edges become 32 groups joined by 48 cuttable edges. Solve()
// union-finds the groups (SentinelGroups), drops every edge inside a
// group, keeps the rest between the groups' representatives (parallel
// edges stay parallel, directed arcs stay directed) and push-relabels that
// quotient. The API also takes AddArc(a, b, kInfiniteCapacity), and such a
// directed sentinel arc glues nothing: a cut may put its head on the
// source side and its tail on the sink side, so its endpoints stay apart.
// MultiwayCutIsolation's super-sink arcs are such arcs. A network with no
// undirected sentinel is solved as it is; one whose sentinels glue only a
// few nodes pays for a quotient almost as large as itself (DESIGN.md §14,
// "Weakly glued networks").
//
// Lifting. A cut that splits a group crosses an undirected sentinel edge,
// so every finite cut keeps each group whole, and the finite cuts of the
// network and of its quotient are the same cuts at the same values. The
// minimal minimum cut (the residual-reachable side of any maximum flow) is
// therefore the quotient's minimal minimum cut with each group expanded.
// Solve() extracts the cut from the quotient it solved and lifts only the
// side, group by group; it never rescans the installed network. The
// sentinel check needs no rescan either: an undirected sentinel never
// crosses a lifted side, and a directed sentinel arc crosses it exactly
// when its copy in the quotient crosses the quotient's side. So every
// feasible CutResult is exactly what solving the whole network returns,
// and the cut value is the same on every input. Terminals in one group
// cannot be separated by a finite cut: Solve() returns exactly
// kInfiniteCapacity for them without a solve.

#ifndef COIGN_SRC_MINCUT_INCREMENTAL_H_
#define COIGN_SRC_MINCUT_INCREMENTAL_H_

#include <vector>

#include "src/mincut/compact_flow_network.h"
#include "src/mincut/push_relabel.h"

namespace coign {

// Nodes glued together by undirected sentinel edges, numbered densely in
// order of each group's lowest node. The one contraction helper: Solve()
// glues a network's undirected sentinel edges, and the cut envelope's
// ContractConstraints (envelope.h) a concrete graph's constraint edges.
class SentinelGroups {
 public:
  // `node_count` singleton groups.
  void Reset(int node_count);
  // Glues the groups of a and b.
  void Join(int a, int b);
  // Numbers the groups; call after the last Join and before of/Lift.
  void Seal();

  int count() const { return count_; }
  // The group of `node`, in [0, count()).
  int of(int node) const { return group_[static_cast<size_t>(node)]; }
  // A side per node from a side per group.
  std::vector<bool> Lift(const std::vector<bool>& group_side) const;

 private:
  int Find(int node);

  std::vector<int> parent_;  // Union-find; every root is its group's lowest node.
  std::vector<int> group_;
  int count_ = 0;
};

class IncrementalMinCut {
 public:
  IncrementalMinCut() = default;

  // Installs a finalized network to cut between `source` and `sink`.
  // Solver scratch is kept, so re-seating on a new graph of similar size
  // does not reallocate.
  void Reset(CompactFlowNetwork network, int source, int sink);

  // Cold push-relabel of the quotient from zero flow, then its cut with
  // the side lifted to the installed network's nodes. Calling it again
  // re-solves from zero.
  CutResult Solve();

  // Solver work of the most recent Solve(); all zero when its terminals
  // shared a group.
  const MinCutSolveStats& last_stats() const { return stats_; }

 private:
  CompactFlowNetwork network_;
  CompactFlowNetwork quotient_;
  SentinelGroups groups_;
  PushRelabelSolver solver_;
  MinCutSolveStats stats_;
  int source_ = 0;
  int sink_ = 1;
};

}  // namespace coign

#endif  // COIGN_SRC_MINCUT_INCREMENTAL_H_
