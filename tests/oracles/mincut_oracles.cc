#include "tests/oracles/mincut_oracles.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <deque>

namespace coign {

CutResult MinCutEdmondsKarp(const CompactFlowNetwork& original, int source, int sink) {
  assert(original.finalized());
  assert(source != sink);
  // Augmentation mutates only this per-call copy.
  CompactFlowNetwork network = original;
  network.ResetFlow();
  CapUnits total_flow = 0;
  const int n = network.node_count();

  while (true) {
    // BFS for the shortest augmenting path.
    std::vector<int> parent_node(static_cast<size_t>(n), -1);
    std::vector<int> parent_arc(static_cast<size_t>(n), -1);
    std::deque<int> queue = {source};
    parent_node[static_cast<size_t>(source)] = source;
    while (!queue.empty() && parent_node[static_cast<size_t>(sink)] < 0) {
      const int u = queue.front();
      queue.pop_front();
      const int end = network.first_out(u + 1);
      for (int a = network.first_out(u); a < end; ++a) {
        const CompactArc& arc = network.arc(a);
        if (arc.Residual() > 0 && parent_node[static_cast<size_t>(arc.to)] < 0) {
          parent_node[static_cast<size_t>(arc.to)] = u;
          parent_arc[static_cast<size_t>(arc.to)] = a;
          queue.push_back(arc.to);
        }
      }
    }
    if (parent_node[static_cast<size_t>(sink)] < 0) {
      break;  // No augmenting path remains.
    }

    // Bottleneck along the path. A path of all-sentinel arcs bottlenecks
    // at kInfiniteCapacity itself; the augment below then saturates those
    // arcs exactly, so the loop still terminates on infeasible inputs.
    CapUnits bottleneck = kInfiniteCapacity;
    for (int v = sink; v != source; v = parent_node[static_cast<size_t>(v)]) {
      bottleneck = std::min(bottleneck, network.arc(parent_arc[static_cast<size_t>(v)]).Residual());
    }
    assert(bottleneck > 0);

    // Augment. Per-arc updates are exact (flow + bottleneck <= capacity on
    // the bottleneck arc, and every arc's flow stays within its capacity);
    // only the running total can saturate, which is the desired sentinel.
    for (int v = sink; v != source; v = parent_node[static_cast<size_t>(v)]) {
      CompactArc& arc = network.arc(parent_arc[static_cast<size_t>(v)]);
      arc.flow = SatAdd(arc.flow, bottleneck);
      CompactArc& reverse = network.arc(arc.reverse);
      reverse.flow = SatSub(reverse.flow, bottleneck);
    }
    total_flow = SatAdd(total_flow, bottleneck);
  }

  return network.ExtractCut(source, total_flow);
}

CapUnits ReferenceMinCut(const CompactFlowNetwork& network, int source, int sink) {
  assert(network.finalized());
  const int n = network.node_count();
  std::vector<int> inner;
  for (int v = 0; v < n; ++v) {
    if (v != source && v != sink) {
      inner.push_back(v);
    }
  }
  CapUnits best = kInfiniteCapacity;
  const uint64_t subsets = uint64_t{1} << inner.size();
  std::vector<bool> in_s(static_cast<size_t>(n), false);
  for (uint64_t mask = 0; mask < subsets; ++mask) {
    std::fill(in_s.begin(), in_s.end(), false);
    in_s[static_cast<size_t>(source)] = true;
    for (size_t i = 0; i < inner.size(); ++i) {
      if ((mask >> i) & 1) {
        in_s[static_cast<size_t>(inner[i])] = true;
      }
    }
    best = std::min(best, PartitionCapacity(network, in_s));
  }
  return best;
}

CapUnits PartitionCapacity(const CompactFlowNetwork& network,
                           const std::vector<bool>& source_side) {
  CapUnits total = 0;
  for (int node = 0; node < network.node_count(); ++node) {
    if (!source_side[static_cast<size_t>(node)]) {
      continue;
    }
    const int end = network.first_out(node + 1);
    for (int a = network.first_out(node); a < end; ++a) {
      const CompactArc& arc = network.arc(a);
      if (!source_side[static_cast<size_t>(arc.to)]) {
        total = SatAdd(total, arc.capacity);
      }
    }
  }
  return total;
}

}  // namespace coign
