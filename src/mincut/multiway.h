// Multiway cut via the isolation heuristic — the paper's future-work
// direction ("the problem of partitioning applications across three or more
// machines is provably NP-hard [13]; numerous heuristic algorithms exist").
//
// Dahlhaus et al.'s classic 2(1-1/k)-approximation: compute an isolating
// minimum cut for each terminal (terminal vs all other terminals merged
// into a super-sink), discard the most expensive one, and take the union of
// the rest. Nodes claimed by no isolating cut stay with the discarded
// terminal. Each isolating cut is solved by the production push-relabel
// solver; on feasible inputs its source side is the unique minimal minimum
// cut, so the assignment does not depend on the max-flow algorithm.

#ifndef COIGN_SRC_MINCUT_MULTIWAY_H_
#define COIGN_SRC_MINCUT_MULTIWAY_H_

#include <functional>
#include <tuple>
#include <vector>

#include "src/mincut/compact_flow_network.h"

namespace coign {

struct MultiwayCutResult {
  // Exact sum (saturating at kInfiniteCapacity) of crossing edge weights.
  CapUnits total_weight = 0;
  // assignment[node] = index into `terminals` of the side the node landed on.
  std::vector<int> assignment;
};

// Undirected weighted edges (a, b, weight) in CapUnits.
using EdgeList = std::vector<std::tuple<int, int, CapUnits>>;

// Partitions `node_count` nodes among the terminals. `edges` are undirected
// (a, b, weight). Each terminal must be a distinct valid node.
MultiwayCutResult MultiwayCutIsolation(int node_count, const EdgeList& edges,
                                       const std::vector<int>& terminals);

}  // namespace coign

#endif  // COIGN_SRC_MINCUT_MULTIWAY_H_
