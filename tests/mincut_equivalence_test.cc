// Differential fuzz oracle for the minimum-cut stack: on every generated
// graph, relabel-to-front (the paper's lift-to-front reference),
// Edmonds-Karp (the verification baseline), the highest-label
// push-relabel production solver — cold AND warm-started from a fuzzed
// capacity perturbation — and an exhaustive reference min-cut
// (independent of any flow algorithm) must agree on the cut value
// EXACTLY — integer equality in CapUnits, no epsilon, no ulp slack. Cuts themselves may differ when several minimum
// cuts exist, but both returned partitions must separate the terminals and
// both cut values must equal the capacity actually crossing the returned
// partition.
//
// The generator deliberately produces adversarial shapes: tied cuts (many
// equal-value minimum cuts from tiny integer capacities), near-equal
// capacities (huge bases ± 1 unit, where any float arithmetic would lose
// the low bits), sentinel constraint edges up to fully infeasible
// pure-sentinel s-t paths, degenerate 2-node graphs, and disconnected
// terminals. A failing graph is shrunk to a minimal repro — greedy edge
// removal while the disagreement persists, mirroring the fault harness's
// SmallestFailingPrefix — and printed as an AddEdge/AddArc transcript.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "src/mincut/compact_flow_network.h"
#include "src/mincut/incremental.h"
#include "src/mincut/push_relabel.h"
#include "src/mincut/relabel_to_front.h"
#include "src/support/rng.h"
#include "tests/oracles/mincut_oracles.h"

namespace coign {
namespace {

// The CI gate (and the issue's acceptance bar) is >= 500 seeded graphs.
constexpr int kGraphs = 520;

// ---------------------------------------------------------------------------
// Graph specification: a flat edge list, so shrinking is list surgery.

struct SpecEdge {
  int a = 0;
  int b = 0;
  CapUnits capacity = 0;
  bool directed = false;
};

struct GraphSpec {
  int node_count = 2;
  int source = 0;
  int sink = 1;
  std::vector<SpecEdge> edges;
};

CompactFlowNetwork BuildNetwork(const GraphSpec& spec) {
  CompactFlowNetwork network(spec.node_count);
  for (const SpecEdge& edge : spec.edges) {
    if (edge.directed) {
      network.AddArc(edge.a, edge.b, edge.capacity);
    } else {
      network.AddEdge(edge.a, edge.b, edge.capacity);
    }
  }
  network.Finalize();
  return network;
}

std::string Describe(const GraphSpec& spec) {
  std::ostringstream out;
  out << "CompactFlowNetwork network(" << spec.node_count << ");  // source="
      << spec.source << " sink=" << spec.sink << "\n";
  for (const SpecEdge& edge : spec.edges) {
    out << "network." << (edge.directed ? "AddArc" : "AddEdge") << "(" << edge.a
        << ", " << edge.b << ", ";
    if (edge.capacity == kInfiniteCapacity) {
      out << "kInfiniteCapacity";
    } else {
      out << edge.capacity;
    }
    out << ");\n";
  }
  return out.str();
}

// ---------------------------------------------------------------------------
// Adversarial generator. Five families, cycled by seed so every family
// gets >= 100 of the >= 500 graphs.

constexpr int kFamilies = 5;

const char* FamilyName(int family) {
  switch (family) {
    case 0: return "tied-cuts";
    case 1: return "near-equal";
    case 2: return "sentinel-heavy";
    case 3: return "degenerate";
    default: return "general-mix";
  }
}

GraphSpec GenGraph(uint64_t seed) {
  Rng rng(seed);
  const int family = static_cast<int>(seed % kFamilies);
  GraphSpec spec;

  if (family == 3) {
    // Degenerate shapes: 2-node graphs (empty, single finite edge, single
    // sentinel edge, antiparallel arcs) and disconnected islands.
    const int shape = static_cast<int>(rng.UniformInt(0, 4));
    switch (shape) {
      case 0:
        spec.node_count = 2;  // No edges at all: cut must be exactly 0.
        break;
      case 1:
        spec.node_count = 2;
        spec.edges.push_back({0, 1, rng.UniformInt(1, 1'000'000), false});
        break;
      case 2:
        spec.node_count = 2;  // Pure sentinel edge: infeasible by itself.
        spec.edges.push_back({0, 1, kInfiniteCapacity, false});
        break;
      case 3:
        spec.node_count = 2;  // Antiparallel directed arcs, unequal.
        spec.edges.push_back({0, 1, rng.UniformInt(1, 100), true});
        spec.edges.push_back({1, 0, rng.UniformInt(1, 100), true});
        break;
      default:
        // Disconnected: source island {0,2}, sink island {1,3}.
        spec.node_count = 4;
        spec.edges.push_back({0, 2, rng.UniformInt(1, 1'000'000), false});
        spec.edges.push_back({1, 3, rng.UniformInt(1, 1'000'000), false});
        if (rng.Bernoulli(0.5)) {
          spec.edges.push_back({2, 3, 0, false});  // Zero-capacity bridge.
        }
        break;
    }
    return spec;
  }

  const int inner = static_cast<int>(rng.UniformInt(2, 10));
  spec.node_count = inner + 2;
  const int n = spec.node_count;

  auto capacity = [&rng, family]() -> CapUnits {
    switch (family) {
      case 0:
        // Tied cuts: tiny integers manufacture many equal minimum cuts.
        return rng.UniformInt(1, 4);
      case 1: {
        // Near-equal: a huge common base with +-1 deltas. Any double
        // arithmetic would round these to the same value (2^52 < base);
        // exact arithmetic must keep them apart.
        constexpr CapUnits base = CapUnits{1} << 53;
        return base + rng.UniformInt(-1, 1);
      }
      case 2:
        // Sentinel-heavy: frequent constraint pins, sometimes chaining
        // into a fully infeasible pure-sentinel s-t path.
        if (rng.Bernoulli(0.25)) {
          return kInfiniteCapacity;
        }
        return rng.UniformInt(1, 1'000'000);
      default:
        // General mix: wide dynamic range plus occasional pins and ties.
        if (rng.Bernoulli(0.06)) {
          return kInfiniteCapacity;
        }
        return rng.Bernoulli(0.3) ? rng.UniformInt(1, 4)
                                  : rng.UniformInt(1, 50'000'000'000'000);
    }
  };

  // Every inner node touches at least one terminal or earlier node, so
  // the graph is connected in expectation-relevant ways.
  for (int node = 2; node < n; ++node) {
    const int anchor = static_cast<int>(rng.UniformInt(0, node - 1));
    spec.edges.push_back({anchor, node, capacity(), false});
  }
  // Extra random edges, density ~2 per node; some asymmetric traffic.
  const int extra = 2 * inner;
  for (int i = 0; i < extra; ++i) {
    const int a = static_cast<int>(rng.UniformInt(0, n - 1));
    const int b = static_cast<int>(rng.UniformInt(0, n - 1));
    if (a == b) {
      continue;
    }
    spec.edges.push_back({a, b, capacity(), !rng.Bernoulli(0.8)});
  }
  // Make sure both terminals have any incident capacity at all.
  spec.edges.push_back(
      {0, static_cast<int>(rng.UniformInt(2, n - 1)), capacity(), false});
  spec.edges.push_back(
      {1, static_cast<int>(rng.UniformInt(2, n - 1)), capacity(), false});
  return spec;
}

// ---------------------------------------------------------------------------
// The differential check and the shrinker.

struct Disagreement {
  bool failed = false;
  std::string what;
};

// Deterministic capacity perturbation for the warm-start leg: the session
// first solves the graph at these capacities, then receives the true
// capacities as a delta batch — so every fuzz graph exercises the
// flow-repair path with a mix of increases, decreases, zeroings, and
// sentinel transitions before the final warm cut is compared.
CapUnits PerturbedCapacity(size_t index, CapUnits capacity) {
  switch (index % 4) {
    case 0: return capacity;                    // Unchanged edge.
    case 1: return capacity / 2;                // The delta is an increase.
    case 2: return SatAdd(capacity, capacity);  // The delta is a decrease.
    default: return 0;                          // Edge appears from nothing.
  }
}

Disagreement CheckGraph(const GraphSpec& spec) {
  Disagreement result;
  const CompactFlowNetwork network = BuildNetwork(spec);
  const CutResult lift = MinCutRelabelToFront(network, spec.source, spec.sink);
  const CutResult baseline = MinCutEdmondsKarp(network, spec.source, spec.sink);
  const CutResult highest = MinCutPushRelabel(network, spec.source, spec.sink);
  const CapUnits reference = ReferenceMinCut(network, spec.source, spec.sink);

  // Warm leg: cold-solve perturbed capacities, then apply the true
  // capacities as deltas and re-solve warm.
  CompactFlowNetwork compact(spec.node_count);
  std::vector<int> edge_ids;
  edge_ids.reserve(spec.edges.size());
  for (size_t i = 0; i < spec.edges.size(); ++i) {
    const SpecEdge& edge = spec.edges[i];
    const CapUnits perturbed = PerturbedCapacity(i, edge.capacity);
    edge_ids.push_back(edge.directed ? compact.AddArc(edge.a, edge.b, perturbed)
                                     : compact.AddEdge(edge.a, edge.b, perturbed));
  }
  compact.Finalize();
  IncrementalMinCut session;
  session.Reset(std::move(compact), spec.source, spec.sink);
  session.Solve();
  for (size_t i = 0; i < spec.edges.size(); ++i) {
    session.SetEdgeCapacity(edge_ids[i], spec.edges[i].capacity);
  }
  const CutResult warm = session.Solve();

  std::ostringstream why;
  if (lift.cut_value != baseline.cut_value) {
    why << "RTF " << lift.cut_value << " != EK " << baseline.cut_value << "; ";
  }
  if (lift.cut_value != reference) {
    why << "RTF " << lift.cut_value << " != reference " << reference << "; ";
  }
  if (baseline.cut_value != reference) {
    why << "EK " << baseline.cut_value << " != reference " << reference << "; ";
  }
  if (highest.cut_value != reference) {
    why << "PR " << highest.cut_value << " != reference " << reference << "; ";
  }
  if (warm.cut_value != reference) {
    why << "PR-warm " << warm.cut_value << " != reference " << reference << "; ";
  }
  auto check_partition = [&](const char* name, const CutResult& cut) {
    if (static_cast<int>(cut.in_source_side.size()) != network.node_count() ||
        !cut.in_source_side[static_cast<size_t>(spec.source)] ||
        cut.in_source_side[static_cast<size_t>(spec.sink)]) {
      why << name << " returned a non-separating partition; ";
      return;
    }
    // Max-flow/min-cut certificate: the capacity crossing the returned
    // partition equals the reported cut value, exactly.
    const CapUnits crossing = PartitionCapacity(network, cut.in_source_side);
    if (crossing != cut.cut_value) {
      why << name << " partition crosses " << crossing << " but reports "
          << cut.cut_value << "; ";
    }
  };
  check_partition("RTF", lift);
  check_partition("EK", baseline);
  check_partition("PR", highest);
  check_partition("PR-warm", warm);
  // Partition identity, not just value equality: on feasible graphs every
  // solver extracts the residual-reachable set of a genuine maximum flow,
  // which is the unique *minimal* minimum cut — so the byte-level
  // partition must match even when several minimum cuts exist (the
  // tied-cuts family). Infeasible graphs are excluded: a saturated
  // "flow" is not a maximum flow, the uniqueness argument lapses, and the
  // engine rejects the cut before any partition is used anyway.
  if (reference != kInfiniteCapacity) {
    if (highest.in_source_side != lift.in_source_side) {
      why << "PR partition differs from RTF; ";
    }
    if (warm.in_source_side != lift.in_source_side) {
      why << "PR-warm partition differs from RTF; ";
    }
  }
  result.what = why.str();
  result.failed = !result.what.empty();
  return result;
}

// Greedy delta-debugging over the edge list, in the spirit of the fault
// harness's SmallestFailingPrefix: repeatedly drop any single edge whose
// removal preserves the disagreement, until no single removal does. The
// minimal repro and its remaining disagreement are what a developer sees.
GraphSpec ShrinkFailingGraph(GraphSpec spec) {
  bool shrunk = true;
  while (shrunk && !spec.edges.empty()) {
    shrunk = false;
    for (size_t i = 0; i < spec.edges.size(); ++i) {
      GraphSpec candidate = spec;
      candidate.edges.erase(candidate.edges.begin() + static_cast<long>(i));
      if (CheckGraph(candidate).failed) {
        spec = std::move(candidate);
        shrunk = true;
        break;
      }
    }
  }
  return spec;
}

TEST(MinCutDifferentialFuzzTest, BothAlgorithmsMatchTheReferenceOracleExactly) {
  int infeasible = 0;
  for (int i = 0; i < kGraphs; ++i) {
    const uint64_t seed = 0x5eed0000u + static_cast<uint64_t>(i);
    const GraphSpec spec = GenGraph(seed);
    const Disagreement check = CheckGraph(spec);
    if (check.failed) {
      const GraphSpec minimal = ShrinkFailingGraph(spec);
      const Disagreement residual = CheckGraph(minimal);
      FAIL() << "graph " << i << " (seed " << seed << ", family "
             << FamilyName(static_cast<int>(seed % kFamilies)) << ") disagrees: "
             << check.what << "\nminimal repro (" << minimal.edges.size()
             << " of " << spec.edges.size() << " edges): " << residual.what
             << "\n" << Describe(minimal);
    }
    if (ReferenceMinCut(BuildNetwork(spec), spec.source, spec.sink) == kInfiniteCapacity) {
      ++infeasible;
    }
  }
  // The adversarial families must actually produce infeasible (sentinel
  // crossing) inputs, or the hardest agreement case went untested.
  EXPECT_GT(infeasible, 10);
}

TEST(MinCutDifferentialFuzzTest, ShrinkerProducesAMinimalRepro) {
  // Drive the shrinker with a synthetic "bug": treat any graph whose cut
  // value differs from 7 as failing, seeded by a graph with a known cut of
  // 9 plus noise edges. The shrinker must keep failing and end at a local
  // minimum (no single edge removable without losing the failure).
  GraphSpec spec;
  spec.node_count = 4;
  spec.edges.push_back({0, 2, 9, false});
  spec.edges.push_back({2, 1, 9, false});
  spec.edges.push_back({0, 3, 2, false});   // Noise: removable.
  spec.edges.push_back({3, 1, 0, false});   // Noise: removable.
  auto fails = [](const GraphSpec& g) {
    return MinCutEdmondsKarp(BuildNetwork(g), g.source, g.sink).cut_value != 7;
  };
  ASSERT_TRUE(fails(spec));

  GraphSpec shrunk = spec;
  bool changed = true;
  while (changed && !shrunk.edges.empty()) {
    changed = false;
    for (size_t i = 0; i < shrunk.edges.size(); ++i) {
      GraphSpec candidate = shrunk;
      candidate.edges.erase(candidate.edges.begin() + static_cast<long>(i));
      if (fails(candidate)) {
        shrunk = std::move(candidate);
        changed = true;
        break;
      }
    }
  }
  EXPECT_TRUE(fails(shrunk));
  // 0 edges gives cut 0 != 7, still "failing" — the greedy loop must reach
  // the empty minimal repro for this synthetic predicate.
  EXPECT_TRUE(shrunk.edges.empty());
}

TEST(MinCutDifferentialFuzzTest, ReplaysDeterministically) {
  // The generator itself is part of the test's determinism contract.
  auto fingerprint = [](uint64_t seed) {
    const GraphSpec spec = GenGraph(seed);
    return MinCutRelabelToFront(BuildNetwork(spec), spec.source, spec.sink).cut_value;
  };
  EXPECT_EQ(fingerprint(11), fingerprint(11));
  EXPECT_EQ(fingerprint(12), fingerprint(12));
}

TEST(MinCutDifferentialFuzzTest, NearEqualCapacitiesStayExact) {
  // Two parallel two-edge paths whose capacities differ by one unit at a
  // magnitude (2^53) where double arithmetic cannot represent the
  // difference: the cut must pick the smaller side exactly. This is the
  // family-1 failure mode pinned as a unit test.
  constexpr CapUnits base = CapUnits{1} << 53;
  CompactFlowNetwork network(4);
  network.AddArc(0, 2, base + 1);
  network.AddArc(2, 1, base);      // This path's bottleneck: base.
  network.AddArc(0, 3, base);
  network.AddArc(3, 1, base - 1);  // This path's bottleneck: base - 1.
  network.Finalize();
  const CutResult lift = MinCutRelabelToFront(network, 0, 1);
  const CutResult baseline = MinCutEdmondsKarp(network, 0, 1);
  EXPECT_EQ(lift.cut_value, 2 * base - 1);
  EXPECT_EQ(baseline.cut_value, 2 * base - 1);
}

}  // namespace
}  // namespace coign
