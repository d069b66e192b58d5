// Differential oracles for the min-cut stack, linked only by the tests and
// bench_micro_mincut — never by the coign binary or any production library.
//
// Edmonds-Karp is the textbook verification baseline: an independent
// max-flow algorithm (shortest augmenting paths instead of push-relabel)
// over the same CSR network, in the same exact CapUnits arithmetic. The
// brute-force reference never routes a unit of flow at all: it enumerates
// every s-t partition. Every solver must agree with both by integer
// equality.

#ifndef COIGN_TESTS_ORACLES_MINCUT_ORACLES_H_
#define COIGN_TESTS_ORACLES_MINCUT_ORACLES_H_

#include <vector>

#include "src/mincut/compact_flow_network.h"

namespace coign {

// Edmonds-Karp maximum flow and the induced minimum cut. Arcs are scanned
// in CSR order. `network` must be finalized and is not modified: the solve
// starts from zero flow on a per-call working copy.
CutResult MinCutEdmondsKarp(const CompactFlowNetwork& network, int source, int sink);

// Exact minimum cut by partition enumeration: for every subset S with the
// source in S and the sink outside, the capacity of the stored arcs leaving
// S (undirected edges contribute their arc in the crossing direction;
// AddArc's zero-capacity reverse stubs add nothing). Saturating addition
// makes the infeasible case — every cut crosses a sentinel — come out as
// exactly kInfiniteCapacity, matching the solvers' promotion rule.
// Exponential in the non-terminal node count; keep graphs <= ~12 nodes.
CapUnits ReferenceMinCut(const CompactFlowNetwork& network, int source, int sink);

// Capacity of the stored arcs leaving `source_side`, recomputed exactly —
// the max-flow/min-cut certificate for a reported partition.
CapUnits PartitionCapacity(const CompactFlowNetwork& network,
                           const std::vector<bool>& source_side);

}  // namespace coign

#endif  // COIGN_TESTS_ORACLES_MINCUT_ORACLES_H_
