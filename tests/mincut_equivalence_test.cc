// Differential fuzz oracle for the minimum-cut stack: on every generated
// graph, relabel-to-front (the paper's lift-to-front reference),
// Edmonds-Karp (the verification baseline), the highest-label
// push-relabel solver on the whole network, the production
// IncrementalMinCut Reset + Solve path the analysis engine takes (the same
// solver on the network's sentinel quotient) and an exhaustive reference
// min-cut (independent of any flow algorithm) must agree on the cut value
// EXACTLY — integer equality in CapUnits, no epsilon, no ulp slack. Every
// returned partition must separate the terminals and every cut value must
// equal the capacity actually crossing the returned partition. On
// feasible graphs both push-relabel legs must also return relabel-to-
// front's partition: the unique minimal minimum cut.
//
// The generator deliberately produces adversarial shapes: tied cuts (many
// equal-value minimum cuts from tiny integer capacities), near-equal
// capacities (huge bases ± 1 unit, where any float arithmetic would lose
// the low bits), sentinel constraint edges up to fully infeasible
// pure-sentinel s-t paths, degenerate 2-node graphs, disconnected
// terminals, and sentinel-glued groups for the quotient. A failing graph
// is shrunk to a minimal repro — greedy edge removal while the
// disagreement persists, mirroring the fault harness's
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

// The CI gate is >= 500 seeded graphs from the five cycled families,
// plus the contraction family's own seeds.
constexpr int kGraphs = 520;
constexpr int kContractionGraphs = 100;

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
// gets >= 100 of the >= 500 graphs, and the contraction family on seeds
// of its own.

constexpr int kFamilies = 5;
constexpr int kContractionFamily = kFamilies;

const char* FamilyName(int family) {
  switch (family) {
    case 0: return "tied-cuts";
    case 1: return "near-equal";
    case 2: return "sentinel-heavy";
    case 3: return "degenerate";
    case 4: return "general-mix";
    default: return "contraction";
  }
}

// Groups glued by undirected sentinel chains, stars and cliques (the
// terminals in two of them), finite edges inside groups (which the
// quotient drops) and between them, parallel edges between groups (some
// pairs summing past the finite range), directed sentinel arcs between
// groups (which glue nothing) and, in some graphs, a long sentinel path
// that joins the terminals' groups through the others.
GraphSpec GenContractionGraph(uint64_t seed) {
  Rng rng(seed);
  GraphSpec spec;
  spec.node_count = static_cast<int>(rng.UniformInt(8, 14));
  const int group_count = static_cast<int>(rng.UniformInt(2, 4));
  std::vector<std::vector<int>> groups(static_cast<size_t>(group_count));
  groups[0].push_back(spec.source);
  groups[1].push_back(spec.sink);
  for (int node = 2; node < spec.node_count; ++node) {
    // Nodes 2 .. group_count - 1 seed the inner groups; the rest land
    // anywhere.
    const int group =
        node < group_count ? node : static_cast<int>(rng.UniformInt(0, group_count - 1));
    groups[static_cast<size_t>(group)].push_back(node);
  }
  auto finite = [&rng]() -> CapUnits {
    return rng.Bernoulli(0.3) ? rng.UniformInt(1, 4) : rng.UniformInt(1, 1'000'000);
  };
  auto member = [&rng](const std::vector<int>& group) {
    return group[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(group.size()) - 1))];
  };
  for (const std::vector<int>& group : groups) {
    const int64_t shape = rng.UniformInt(0, 2);  // Chain, star, clique.
    for (size_t i = 1; i < group.size(); ++i) {
      if (shape == 0) {
        spec.edges.push_back({group[i - 1], group[i], kInfiniteCapacity, false});
      } else if (shape == 1) {
        spec.edges.push_back({group[0], group[i], kInfiniteCapacity, false});
      } else {
        for (size_t j = 0; j < i; ++j) {
          spec.edges.push_back({group[j], group[i], kInfiniteCapacity, false});
        }
      }
    }
    if (group.size() > 1 && rng.Bernoulli(0.5)) {
      spec.edges.push_back({group.front(), group.back(), finite(), rng.Bernoulli(0.3)});
    }
  }
  // Finite edges between groups, some doubled onto the same group pair.
  const int links = static_cast<int>(rng.UniformInt(group_count, 3 * group_count));
  for (int i = 0; i < links; ++i) {
    const int64_t from = rng.UniformInt(0, group_count - 1);
    const int64_t to = (from + rng.UniformInt(1, group_count - 1)) % group_count;
    const std::vector<int>& a = groups[static_cast<size_t>(from)];
    const std::vector<int>& b = groups[static_cast<size_t>(to)];
    spec.edges.push_back({member(a), member(b), finite(), rng.Bernoulli(0.15)});
    if (rng.Bernoulli(0.3)) {
      spec.edges.push_back({member(b), member(a), finite(), false});
    }
  }
  // A parallel pair between two groups whose sum passes the finite range,
  // or one such edge alone, a finite cut of its own.
  if (rng.Bernoulli(0.35)) {
    const int64_t from = rng.UniformInt(0, group_count - 1);
    const int64_t to = (from + rng.UniformInt(1, group_count - 1)) % group_count;
    const int copies = rng.Bernoulli(0.6) ? 2 : 1;
    for (int copy = 0; copy < copies; ++copy) {
      spec.edges.push_back({member(groups[static_cast<size_t>(from)]),
                            member(groups[static_cast<size_t>(to)]),
                            kMaxFiniteCapacity / 2 + rng.UniformInt(1, 4), false});
    }
  }
  // A directed sentinel arc between groups, never from the source's group
  // straight into the sink's.
  if (rng.Bernoulli(0.5)) {
    const int64_t from = rng.UniformInt(0, group_count - 1);
    int64_t to = (from + rng.UniformInt(1, group_count - 1)) % group_count;
    if (from == 0 && to == 1) {
      to = group_count > 2 ? 2 : 0;
    }
    if (to != from) {
      spec.edges.push_back({member(groups[static_cast<size_t>(from)]),
                            member(groups[static_cast<size_t>(to)]), kInfiniteCapacity, true});
    }
  }
  // Terminals joined only through a long sentinel path over inner nodes.
  if (rng.Bernoulli(0.12)) {
    int previous = spec.source;
    for (int step = 0; step < 4; ++step) {
      const int next = static_cast<int>(rng.UniformInt(2, spec.node_count - 1));
      if (next != previous) {
        spec.edges.push_back({previous, next, kInfiniteCapacity, false});
        previous = next;
      }
    }
    spec.edges.push_back({previous, spec.sink, kInfiniteCapacity, false});
  }
  return spec;
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

Disagreement CheckGraph(const GraphSpec& spec) {
  Disagreement result;
  const CompactFlowNetwork network = BuildNetwork(spec);
  const CutResult lift = MinCutRelabelToFront(network, spec.source, spec.sink);
  const CutResult baseline = MinCutEdmondsKarp(network, spec.source, spec.sink);
  const CapUnits reference = ReferenceMinCut(network, spec.source, spec.sink);

  // The push-relabel solver alone, on the whole network.
  CompactFlowNetwork whole = network;
  PushRelabelSolver solver;
  const CapUnits whole_flow = solver.Solve(whole, spec.source, spec.sink);
  const CutResult highest = whole.ExtractCut(spec.source, whole_flow);

  // Engine leg: the analysis engine's production entry (the same solver on
  // the sentinel quotient), on a network it owns.
  IncrementalMinCut engine_cut;
  engine_cut.Reset(BuildNetwork(spec), spec.source, spec.sink);
  const CutResult engine = engine_cut.Solve();

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
  if (engine.cut_value != reference) {
    why << "PR-engine " << engine.cut_value << " != reference " << reference << "; ";
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
  check_partition("PR-engine", engine);
  // Partition identity, not just value equality: on feasible graphs every
  // solver extracts the residual-reachable set of a genuine maximum flow,
  // which is the unique *minimal* minimum cut — so the byte-level
  // partition must match even when several minimum cuts exist (the
  // tied-cuts family); a cut is its side, so its crossing edges match
  // with it. The engine leg gets there by lifting the quotient's minimal
  // minimum cut.
  // Infeasible graphs are excluded: a saturated "flow" is not a maximum
  // flow, the uniqueness argument lapses, and the engine rejects the cut
  // before any partition is used anyway.
  if (reference != kInfiniteCapacity) {
    if (highest.in_source_side != lift.in_source_side) {
      why << "PR partition differs from RTF; ";
    }
    if (engine.in_source_side != lift.in_source_side) {
      why << "PR-engine partition differs from RTF; ";
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

// Groups of nodes joined by undirected sentinel edges, by a flood fill
// that shares no code with the engine's union-find: group[node].
std::vector<int> SentinelGroupsOf(const GraphSpec& spec, int* count) {
  std::vector<int> group(static_cast<size_t>(spec.node_count), -1);
  *count = 0;
  for (int start = 0; start < spec.node_count; ++start) {
    if (group[static_cast<size_t>(start)] >= 0) {
      continue;
    }
    std::vector<int> stack = {start};
    group[static_cast<size_t>(start)] = *count;
    while (!stack.empty()) {
      const int node = stack.back();
      stack.pop_back();
      for (const SpecEdge& edge : spec.edges) {
        if (edge.directed || edge.capacity != kInfiniteCapacity ||
            (edge.a != node && edge.b != node)) {
          continue;
        }
        const int other = edge.a == node ? edge.b : edge.a;
        if (group[static_cast<size_t>(other)] < 0) {
          group[static_cast<size_t>(other)] = *count;
          stack.push_back(other);
        }
      }
    }
    ++*count;
  }
  return group;
}

TEST(MinCutDifferentialFuzzTest, BothAlgorithmsMatchTheReferenceOracleExactly) {
  int infeasible = 0;  // Of the kGraphs five-family graphs.
  int contraction_feasible = 0;
  int contraction_below_half = 0;  // Feasible, fewer groups than n / 2.
  int joined_through_a_path = 0;   // Terminals share a group, no direct edge.
  for (int i = 0; i < kGraphs + kContractionGraphs; ++i) {
    const bool contraction = i >= kGraphs;
    const uint64_t seed = contraction ? 0xc0de0000u + static_cast<uint64_t>(i - kGraphs)
                                      : 0x5eed0000u + static_cast<uint64_t>(i);
    const int family = contraction ? kContractionFamily : static_cast<int>(seed % kFamilies);
    const GraphSpec spec = contraction ? GenContractionGraph(seed) : GenGraph(seed);
    const Disagreement check = CheckGraph(spec);
    if (check.failed) {
      const GraphSpec minimal = ShrinkFailingGraph(spec);
      const Disagreement residual = CheckGraph(minimal);
      FAIL() << "graph " << i << " (seed " << seed << ", family "
             << FamilyName(family) << ") disagrees: "
             << check.what << "\nminimal repro (" << minimal.edges.size()
             << " of " << spec.edges.size() << " edges): " << residual.what
             << "\n" << Describe(minimal);
    }
    const bool feasible =
        ReferenceMinCut(BuildNetwork(spec), spec.source, spec.sink) != kInfiniteCapacity;
    if (!contraction) {
      infeasible += feasible ? 0 : 1;
      continue;
    }
    int groups = 0;
    const std::vector<int> group = SentinelGroupsOf(spec, &groups);
    if (feasible) {
      ++contraction_feasible;
      contraction_below_half += 2 * groups < spec.node_count ? 1 : 0;
    }
    const bool direct = std::any_of(spec.edges.begin(), spec.edges.end(), [&](const SpecEdge& e) {
      return e.capacity == kInfiniteCapacity && ((e.a == spec.source && e.b == spec.sink) ||
                                                 (e.a == spec.sink && e.b == spec.source));
    });
    if (group[static_cast<size_t>(spec.source)] == group[static_cast<size_t>(spec.sink)] &&
        !direct) {
      ++joined_through_a_path;
    }
  }
  // The five adversarial families must themselves produce infeasible
  // (sentinel crossing) inputs, or the hardest agreement case went
  // untested; the contraction family's are not counted here.
  EXPECT_GT(infeasible, 10);
  // The contraction family is not vacuous: most of its feasible graphs
  // solve a quotient of under half their nodes, and some are infeasible
  // only because a sentinel path puts both terminals in one group.
  EXPECT_GT(2 * contraction_below_half, contraction_feasible);
  EXPECT_GT(contraction_feasible, kContractionGraphs / 2);
  EXPECT_GT(joined_through_a_path, 0);
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
