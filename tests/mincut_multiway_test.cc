#include "src/mincut/multiway.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/mincut/push_relabel.h"
#include "src/support/rng.h"

namespace coign {
namespace {

CapUnits AssignmentWeight(const CompactFlowNetwork& network, const std::vector<int>& assignment) {
  CapUnits weight = 0;
  for (const CompactFlowNetwork::Edge& edge : network.edges()) {
    if (assignment[static_cast<size_t>(edge.from)] != assignment[static_cast<size_t>(edge.to)]) {
      weight = SatAdd(weight, edge.capacity);
    }
  }
  return weight;
}

TEST(MultiwayCutTest, TwoTerminalsMatchesExactMinCutStructure) {
  // Triangle-ish: node 2 clearly belongs with terminal 1.
  CompactFlowNetwork network(3);
  network.AddEdge(0, 2, 10);
  network.AddEdge(2, 1, 50);
  const MultiwayCutResult result = MultiwayCutIsolation(network, {0, 1});
  EXPECT_EQ(result.assignment[0], 0);
  EXPECT_EQ(result.assignment[1], 1);
  EXPECT_EQ(result.assignment[2], 1);
  EXPECT_EQ(result.total_weight, 10);
}

TEST(MultiwayCutTest, ThreeClusters) {
  // Three tight clusters, one terminal each, thin inter-cluster links.
  // Nodes: 0-2 cluster A, 3-5 cluster B, 6-8 cluster C. Weights in units
  // (the old fixture scaled by 10 to stay integral).
  CompactFlowNetwork network(9);
  auto clique = [&network](int base) {
    network.AddEdge(base, base + 1, 100);
    network.AddEdge(base + 1, base + 2, 100);
    network.AddEdge(base, base + 2, 100);
  };
  clique(0);
  clique(3);
  clique(6);
  network.AddEdge(2, 3, 5);
  network.AddEdge(5, 6, 5);
  network.AddEdge(8, 0, 5);

  const MultiwayCutResult result = MultiwayCutIsolation(network, {0, 3, 6});
  // Each cluster stays whole with its terminal.
  for (int v = 0; v < 3; ++v) {
    EXPECT_EQ(result.assignment[static_cast<size_t>(v)], 0) << v;
  }
  for (int v = 3; v < 6; ++v) {
    EXPECT_EQ(result.assignment[static_cast<size_t>(v)], 1) << v;
  }
  for (int v = 6; v < 9; ++v) {
    EXPECT_EQ(result.assignment[static_cast<size_t>(v)], 2) << v;
  }
  EXPECT_EQ(result.total_weight, 15);
  EXPECT_EQ(result.total_weight, AssignmentWeight(network, result.assignment));
}

TEST(MultiwayCutTest, TerminalsAlwaysKeepTheirOwnSide) {
  CompactFlowNetwork network(3);
  network.AddEdge(0, 1, 100);
  network.AddEdge(1, 2, 100);
  network.AddEdge(0, 2, 100);
  const MultiwayCutResult result = MultiwayCutIsolation(network, {0, 1, 2});
  EXPECT_EQ(result.assignment[0], 0);
  EXPECT_EQ(result.assignment[1], 1);
  EXPECT_EQ(result.assignment[2], 2);
}

TEST(MultiwayCutTest, IsolatedNodesLandWithDiscardedTerminal) {
  // Node 3 has no edges; the heuristic leaves it with the terminal whose
  // isolating cut was discarded. Whatever the side, the weight is stable.
  CompactFlowNetwork network(4);
  network.AddEdge(0, 1, 1);
  const MultiwayCutResult result = MultiwayCutIsolation(network, {0, 1, 2});
  EXPECT_EQ(result.assignment.size(), 4u);
  EXPECT_EQ(result.total_weight, AssignmentWeight(network, result.assignment));
}

TEST(MultiwayCutTest, CrossingSentinelEdgeSaturatesTotalWeight) {
  // Terminals 0 and 1 pinned together by a sentinel edge: the heuristic
  // must still terminate and report exactly kInfiniteCapacity so the
  // analysis layer can detect the unsatisfiable pin with ==.
  CompactFlowNetwork network(3);
  network.AddEdge(0, 1, kInfiniteCapacity);
  network.AddEdge(0, 2, 3);
  network.AddEdge(2, 1, 3);
  const MultiwayCutResult result = MultiwayCutIsolation(network, {0, 1});
  EXPECT_EQ(result.total_weight, kInfiniteCapacity);
}

// Property: the isolation heuristic is within 2(1 - 1/k) of any partition
// we can find by brute force on small random instances. Cut weights are
// exact integers; only the approximation ratio itself needs doubles.
class MultiwayPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MultiwayPropertyTest, WithinApproximationBoundOfBruteForce) {
  Rng rng(GetParam());
  const int n = 7;
  const std::vector<int> terminals = {0, 1, 2};
  CompactFlowNetwork network(n);
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      if (rng.Bernoulli(0.6)) {
        network.AddEdge(a, b, rng.UniformInt(1, 5'000'000));
      }
    }
  }
  const MultiwayCutResult result = MultiwayCutIsolation(network, terminals);
  EXPECT_EQ(result.total_weight, AssignmentWeight(network, result.assignment));

  // Brute force over the 3^(n-3) assignments of free nodes.
  CapUnits best = kInfiniteCapacity;
  std::vector<int> assignment(n);
  assignment[0] = 0;
  assignment[1] = 1;
  assignment[2] = 2;
  const int free_nodes = n - 3;
  int combos = 1;
  for (int i = 0; i < free_nodes; ++i) {
    combos *= 3;
  }
  for (int mask = 0; mask < combos; ++mask) {
    int m = mask;
    for (int i = 0; i < free_nodes; ++i) {
      assignment[static_cast<size_t>(3 + i)] = m % 3;
      m /= 3;
    }
    best = std::min(best, AssignmentWeight(network, assignment));
  }
  const double bound = 2.0 * (1.0 - 1.0 / 3.0);
  EXPECT_LE(static_cast<double>(result.total_weight),
            static_cast<double>(best) * bound);
  EXPECT_GE(result.total_weight, best);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiwayPropertyTest,
                         ::testing::Range(uint64_t{2000}, uint64_t{2012}));

// ---------------------------------------------------------------------------
// Differential family: the production path (each isolating cut through
// IncrementalMinCut, which solves the sentinel quotient) against the
// isolation heuristic on each whole isolating network.

// The heuristic with push-relabel on each whole isolating network and the
// side read off its residual graph, test-local so that the quotient path
// has an independent reference.
MultiwayCutResult WholeNetworkIsolation(const CompactFlowNetwork& network,
                                        const std::vector<int>& terminals) {
  const int n = network.node_count();
  const size_t k = terminals.size();
  std::vector<CutResult> cuts(k);
  PushRelabelSolver solver;
  for (size_t t = 0; t < k; ++t) {
    CompactFlowNetwork isolating(n + 1);
    for (const CompactFlowNetwork::Edge& edge : network.edges()) {
      isolating.AddEdge(edge.from, edge.to, edge.capacity);
    }
    for (size_t other = 0; other < k; ++other) {
      if (other != t) {
        isolating.AddArc(terminals[other], n, kInfiniteCapacity);
      }
    }
    isolating.Finalize();
    const CapUnits flow = solver.Solve(isolating, terminals[t], n);
    cuts[t] = isolating.ExtractCut(terminals[t], flow);
  }
  size_t discarded = 0;
  for (size_t t = 1; t < k; ++t) {
    if (cuts[t].cut_value > cuts[discarded].cut_value) {
      discarded = t;
    }
  }
  MultiwayCutResult result;
  result.assignment.assign(static_cast<size_t>(n), static_cast<int>(discarded));
  for (size_t t = 0; t < k; ++t) {
    for (int node = 0; t != discarded && node < n; ++node) {
      if (cuts[t].in_source_side[static_cast<size_t>(node)]) {
        result.assignment[static_cast<size_t>(node)] = static_cast<int>(t);
      }
    }
  }
  for (size_t t = 0; t < k; ++t) {
    result.assignment[static_cast<size_t>(terminals[t])] = static_cast<int>(t);
  }
  result.total_weight = AssignmentWeight(network, result.assignment);
  return result;
}

// Groups of nodes joined by undirected sentinel edges, by a flood fill
// that shares no code with the engine's union-find: group[node].
std::vector<int> SentinelGroupsOf(const CompactFlowNetwork& network, int* count) {
  const int n = network.node_count();
  std::vector<std::vector<int>> glued(static_cast<size_t>(n));
  for (const CompactFlowNetwork::Edge& edge : network.edges()) {
    if (edge.capacity == kInfiniteCapacity) {
      glued[static_cast<size_t>(edge.from)].push_back(edge.to);
      glued[static_cast<size_t>(edge.to)].push_back(edge.from);
    }
  }
  std::vector<int> group(static_cast<size_t>(n), -1);
  *count = 0;
  for (int start = 0; start < n; ++start) {
    if (group[static_cast<size_t>(start)] >= 0) {
      continue;
    }
    std::vector<int> stack = {start};
    group[static_cast<size_t>(start)] = *count;
    while (!stack.empty()) {
      const int node = stack.back();
      stack.pop_back();
      for (int next : glued[static_cast<size_t>(node)]) {
        if (group[static_cast<size_t>(next)] < 0) {
          group[static_cast<size_t>(next)] = *count;
          stack.push_back(next);
        }
      }
    }
    ++*count;
  }
  return group;
}

// An API-style instance: terminals 0..k-1 for k in [3, 5]; each free node
// has a home machine (probability 0.8) or none. A node with a home is
// pinned to it by an undirected sentinel (an API pin) with probability
// 0.7, and any node may be welded by an undirected sentinel to an earlier
// free node with the same home (a non-remotable pair); finite traffic
// edges join random pairs. Every fifth graph also pins one free node to
// two terminals, which glues them.
CompactFlowNetwork IsolationGraph(uint64_t seed, std::vector<int>* terminals) {
  Rng rng(seed);
  const int k = static_cast<int>(rng.UniformInt(3, 5));
  const int n = k + static_cast<int>(rng.UniformInt(6, 36));
  terminals->clear();
  for (int t = 0; t < k; ++t) {
    terminals->push_back(t);
  }
  CompactFlowNetwork network(n);
  // Free nodes by home; index k is "no home".
  std::vector<std::vector<int>> by_home(static_cast<size_t>(k) + 1);
  for (int node = k; node < n; ++node) {
    int home = k;
    if (rng.Bernoulli(0.8)) {
      home = static_cast<int>(rng.UniformInt(0, k - 1));
      if (rng.Bernoulli(0.7)) {
        network.AddEdge(home, node, kInfiniteCapacity);
      }
    }
    std::vector<int>& same_home = by_home[static_cast<size_t>(home)];
    if (!same_home.empty() && rng.Bernoulli(0.6)) {
      const int partner = same_home[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(same_home.size()) - 1))];
      network.AddEdge(partner, node, kInfiniteCapacity);
    }
    same_home.push_back(node);
  }
  for (int e = 0; e < 2 * n; ++e) {
    const int a = static_cast<int>(rng.UniformInt(0, n - 1));
    const int b = static_cast<int>(rng.UniformInt(0, n - 1));
    if (a != b) {
      network.AddEdge(a, b, rng.UniformInt(1, 5'000'000));
    }
  }
  if (seed % 5 == 0) {
    const int node = static_cast<int>(rng.UniformInt(k, n - 1));
    const int first = static_cast<int>(rng.UniformInt(0, k - 1));
    network.AddEdge(first, node, kInfiniteCapacity);
    network.AddEdge((first + 1) % k, node, kInfiniteCapacity);
  }
  return network;
}

TEST(MultiwayCutTest, QuotientPathMatchesWholeNetworkIsolation) {
  constexpr uint64_t kGraphs = 240;
  int feasible = 0;
  int infeasible = 0;
  int glued_below_half = 0;
  std::vector<int> terminals;
  for (uint64_t seed = 1; seed <= kGraphs; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    const CompactFlowNetwork network = IsolationGraph(seed, &terminals);
    int groups = 0;
    const std::vector<int> group = SentinelGroupsOf(network, &groups);
    std::vector<int> terminal_groups;
    for (int terminal : terminals) {
      terminal_groups.push_back(group[static_cast<size_t>(terminal)]);
    }
    std::sort(terminal_groups.begin(), terminal_groups.end());
    const bool glues_terminals =
        std::adjacent_find(terminal_groups.begin(), terminal_groups.end()) !=
        terminal_groups.end();

    const MultiwayCutResult quotient = MultiwayCutIsolation(network, terminals);
    const MultiwayCutResult whole = WholeNetworkIsolation(network, terminals);
    if (glues_terminals) {
      // Some pin path joins two terminals: every assignment severs it.
      ++infeasible;
      EXPECT_EQ(quotient.total_weight, kInfiniteCapacity);
      EXPECT_EQ(whole.total_weight, kInfiniteCapacity);
      continue;
    }
    ++feasible;
    if (2 * groups < network.node_count()) {
      ++glued_below_half;
    }
    // Every isolating cut is the unique minimal minimum cut, so the
    // quotient path and the whole network agree node for node.
    EXPECT_EQ(quotient.assignment, whole.assignment);
    EXPECT_EQ(quotient.total_weight, whole.total_weight);
    EXPECT_LT(quotient.total_weight, kInfiniteCapacity);
    EXPECT_EQ(quotient.total_weight, AssignmentWeight(network, quotient.assignment));
  }
  EXPECT_GT(infeasible, static_cast<int>(kGraphs / 10));
  EXPECT_GT(feasible, static_cast<int>(kGraphs / 2));
  // Not vacuous: the quotient is smaller than half the network on most
  // feasible graphs.
  EXPECT_GT(4 * glued_below_half, 3 * feasible)
      << glued_below_half << " of " << feasible << " feasible graphs glue below half their nodes";
}

}  // namespace
}  // namespace coign
