// The lift-to-front (relabel-to-front) minimum-cut algorithm.
//
// "Coign employs the lift-to-front minimum-cut graph-cutting algorithm [9]
// to choose a distribution with minimal communication time." Reference [9]
// is Cormen, Leiserson & Rivest, whose push-relabel variant discharges
// vertices from a topologically maintained list, moving relabeled vertices
// to the front. O(V^3), exact.

#ifndef COIGN_SRC_MINCUT_RELABEL_TO_FRONT_H_
#define COIGN_SRC_MINCUT_RELABEL_TO_FRONT_H_

#include "src/mincut/compact_flow_network.h"

namespace coign {

// Computes a maximum s-t flow with relabel-to-front push-relabel and
// returns the induced minimum cut. Arithmetic is exact (CapUnits), so the
// cut value always equals the production push-relabel solver's on the same
// input and, on feasible inputs, so does the partition (the unique minimal
// minimum cut). `network` must be finalized and is not modified: the solve
// starts from zero flow on a per-call working copy, so concurrent cuts —
// even over the same network — are safe. source != sink.
CutResult MinCutRelabelToFront(const CompactFlowNetwork& network, int source, int sink);

}  // namespace coign

#endif  // COIGN_SRC_MINCUT_RELABEL_TO_FRONT_H_
