#include "src/mincut/multiway.h"

#include <cassert>
#include <utility>

#include "src/mincut/incremental.h"

namespace coign {

MultiwayCutResult MultiwayCutIsolation(const CompactFlowNetwork& network,
                                       const std::vector<int>& terminals) {
  const size_t k = terminals.size();
  assert(k >= 2);
  const int node_count = network.node_count();

  // Isolating cut for each terminal: terminal as source, a super-sink wired
  // to every other terminal with infinite capacity. Each side is true for
  // the nodes with the terminal (the super-sink's entry is never read).
  std::vector<CutResult> cuts(k);
  IncrementalMinCut solver;
  for (size_t t = 0; t < k; ++t) {
    CompactFlowNetwork isolating(node_count + 1);
    const int super_sink = node_count;
    for (const CompactFlowNetwork::Edge& edge : network.edges()) {
      assert(!edge.directed);
      isolating.AddEdge(edge.from, edge.to, edge.capacity);
    }
    for (size_t other = 0; other < k; ++other) {
      if (other != t) {
        isolating.AddArc(terminals[other], super_sink, kInfiniteCapacity);
      }
    }
    isolating.Finalize();
    solver.Reset(std::move(isolating), terminals[t], super_sink);
    cuts[t] = solver.Solve();
  }

  // Discard the heaviest isolating cut; its terminal keeps the leftovers.
  size_t discarded = 0;
  for (size_t t = 1; t < k; ++t) {
    if (cuts[t].cut_value > cuts[discarded].cut_value) {
      discarded = t;
    }
  }

  MultiwayCutResult result;
  result.assignment.assign(static_cast<size_t>(node_count), static_cast<int>(discarded));
  for (size_t t = 0; t < k; ++t) {
    if (t == discarded) {
      continue;
    }
    for (int node = 0; node < node_count; ++node) {
      if (cuts[t].in_source_side[static_cast<size_t>(node)]) {
        result.assignment[static_cast<size_t>(node)] = static_cast<int>(t);
      }
    }
  }
  // Terminals always belong to themselves (isolating cuts guarantee this,
  // but be explicit for the discarded terminal).
  for (size_t t = 0; t < k; ++t) {
    result.assignment[static_cast<size_t>(terminals[t])] = static_cast<int>(t);
  }

  // Total weight of edges whose endpoints ended up apart. Saturating: a
  // crossing sentinel edge pins the total at exactly kInfiniteCapacity.
  for (const CompactFlowNetwork::Edge& edge : network.edges()) {
    if (result.assignment[static_cast<size_t>(edge.from)] !=
        result.assignment[static_cast<size_t>(edge.to)]) {
      result.total_weight = SatAdd(result.total_weight, edge.capacity);
    }
  }
  return result;
}

}  // namespace coign
