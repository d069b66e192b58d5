#include "src/mincut/multiway.h"

#include <algorithm>
#include <cassert>

#include "src/mincut/push_relabel.h"

namespace coign {

MultiwayCutResult MultiwayCutIsolation(int node_count, const EdgeList& edges,
                                       const std::vector<int>& terminals) {
  const size_t k = terminals.size();
  assert(k >= 2);

  // Isolating cut for each terminal: terminal as source, a super-sink wired
  // to every other terminal with infinite capacity.
  struct Isolating {
    CapUnits value = 0;
    std::vector<bool> side;  // True = with the terminal.
  };
  std::vector<Isolating> cuts(k);

  PushRelabelSolver solver;
  for (size_t t = 0; t < k; ++t) {
    CompactFlowNetwork network(node_count + 1);
    const int super_sink = node_count;
    for (const auto& [a, b, weight] : edges) {
      network.AddEdge(a, b, weight);
    }
    for (size_t other = 0; other < k; ++other) {
      if (other != t) {
        network.AddArc(terminals[other], super_sink, kInfiniteCapacity);
      }
    }
    network.Finalize();
    const CapUnits flow = solver.Solve(network, terminals[t], super_sink);
    const CutResult cut = network.ExtractCut(terminals[t], flow);
    cuts[t].value = cut.cut_value;
    cuts[t].side = cut.in_source_side;
    cuts[t].side.resize(static_cast<size_t>(node_count));  // Drop the super-sink.
  }

  // Discard the heaviest isolating cut; its terminal keeps the leftovers.
  size_t discarded = 0;
  for (size_t t = 1; t < k; ++t) {
    if (cuts[t].value > cuts[discarded].value) {
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
      if (cuts[t].side[static_cast<size_t>(node)]) {
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
  for (const auto& [a, b, weight] : edges) {
    if (result.assignment[static_cast<size_t>(a)] != result.assignment[static_cast<size_t>(b)]) {
      result.total_weight = SatAdd(result.total_weight, weight);
    }
  }
  return result;
}

}  // namespace coign
