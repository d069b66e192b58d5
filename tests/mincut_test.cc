#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "src/mincut/compact_flow_network.h"
#include "src/mincut/incremental.h"
#include "src/mincut/push_relabel.h"
#include "src/mincut/relabel_to_front.h"
#include "src/support/rng.h"
#include "tests/oracles/mincut_oracles.h"

namespace coign {
namespace {

using CutFn = CutResult (*)(const CompactFlowNetwork&, int, int);

// The production cut: push-relabel on the network's sentinel quotient.
CutResult ProductionCut(const CompactFlowNetwork& network, int source, int sink) {
  IncrementalMinCut cut;
  cut.Reset(network, source, sink);
  return cut.Solve();
}

// The push-relabel solver alone, on a copy of the whole network.
CutResult WholeNetworkPushRelabel(const CompactFlowNetwork& network, int source, int sink) {
  CompactFlowNetwork working = network;
  PushRelabelSolver solver;
  const CapUnits flow = solver.Solve(working, source, sink);
  return working.ExtractCut(source, flow);
}

// Edges whose endpoints the cut separates, counted off its side.
int CrossingEdges(const CompactFlowNetwork& network, const CutResult& cut) {
  int crossing = 0;
  for (const CompactFlowNetwork::Edge& edge : network.edges()) {
    if (cut.in_source_side[static_cast<size_t>(edge.from)] !=
        cut.in_source_side[static_cast<size_t>(edge.to)]) {
      ++crossing;
    }
  }
  return crossing;
}

struct AlgorithmParam {
  const char* name;
  CutFn fn;
};

class MinCutAlgorithmTest : public ::testing::TestWithParam<AlgorithmParam> {};

TEST_P(MinCutAlgorithmTest, SingleEdge) {
  CompactFlowNetwork network(2);
  network.AddEdge(0, 1, 5);
  network.Finalize();
  const CutResult cut = GetParam().fn(network, 0, 1);
  EXPECT_EQ(cut.cut_value, 5);
  EXPECT_TRUE(cut.in_source_side[0]);
  EXPECT_FALSE(cut.in_source_side[1]);
  EXPECT_EQ(CrossingEdges(network, cut), 1);
}

TEST_P(MinCutAlgorithmTest, DisconnectedTerminalsHaveZeroCut) {
  CompactFlowNetwork network(4);
  network.AddEdge(0, 2, 9);
  network.AddEdge(1, 3, 9);
  network.Finalize();
  const CutResult cut = GetParam().fn(network, 0, 1);
  EXPECT_EQ(cut.cut_value, 0);
  EXPECT_EQ(CrossingEdges(network, cut), 0);
}

TEST_P(MinCutAlgorithmTest, ClassicClrsExample) {
  // CLRS figure-style network: directed arcs.
  CompactFlowNetwork network(6);
  network.AddArc(0, 1, 16);
  network.AddArc(0, 2, 13);
  network.AddArc(1, 2, 10);
  network.AddArc(2, 1, 4);
  network.AddArc(1, 3, 12);
  network.AddArc(3, 2, 9);
  network.AddArc(2, 4, 14);
  network.AddArc(4, 3, 7);
  network.AddArc(3, 5, 20);
  network.AddArc(4, 5, 4);
  network.Finalize();
  const CutResult cut = GetParam().fn(network, 0, 5);
  EXPECT_EQ(cut.cut_value, 23);  // The textbook max flow.
}

TEST_P(MinCutAlgorithmTest, PathBottleneck) {
  // Capacities in units (3/2 of the old float fixture, scaled by 2 to
  // stay integral): the bottleneck edge decides the cut exactly.
  CompactFlowNetwork network(5);
  network.AddEdge(0, 1, 20);
  network.AddEdge(1, 2, 3);  // Bottleneck.
  network.AddEdge(2, 3, 20);
  network.AddEdge(3, 4, 20);
  network.Finalize();
  const CutResult cut = GetParam().fn(network, 0, 4);
  EXPECT_EQ(cut.cut_value, 3);
  EXPECT_TRUE(cut.in_source_side[1]);
  EXPECT_FALSE(cut.in_source_side[2]);
}

TEST_P(MinCutAlgorithmTest, InfiniteConstraintEdgeNeverCut) {
  // A "pinned" node wired to the source with kInfiniteCapacity must end up
  // on the source side even when all its other traffic points at the sink.
  CompactFlowNetwork network(3);
  network.AddEdge(0, 2, kInfiniteCapacity);  // Constraint: 2 stays with 0.
  network.AddEdge(2, 1, 100);                // Heavy traffic toward the sink.
  network.Finalize();
  const CutResult cut = GetParam().fn(network, 0, 1);
  EXPECT_EQ(cut.cut_value, 100);
  EXPECT_TRUE(cut.in_source_side[2]);
}

TEST_P(MinCutAlgorithmTest, StarGraphCutsCheaperSide) {
  // Node 2 talks 1 unit to the client and 3 to the server: it belongs on
  // the server side; the cut pays only the client edge.
  CompactFlowNetwork network(3);
  network.AddEdge(0, 2, 1);
  network.AddEdge(2, 1, 3);
  network.Finalize();
  const CutResult cut = GetParam().fn(network, 0, 1);
  EXPECT_EQ(cut.cut_value, 1);
  EXPECT_FALSE(cut.in_source_side[2]);
}

TEST_P(MinCutAlgorithmTest, InfeasibleSentinelPathReportsInfiniteCut) {
  // A pure-sentinel s-t path: every cut severs a constraint. Both
  // algorithms must report exactly kInfiniteCapacity — the analysis
  // engine's unsatisfiable-constraints signal — and terminate doing so
  // (the float era could spin here; exact arithmetic cannot).
  CompactFlowNetwork network(3);
  network.AddEdge(0, 2, kInfiniteCapacity);
  network.AddEdge(2, 1, kInfiniteCapacity);
  network.AddEdge(0, 1, 7);  // Finite traffic alongside the pins.
  network.Finalize();
  const CutResult cut = GetParam().fn(network, 0, 1);
  EXPECT_EQ(cut.cut_value, kInfiniteCapacity);
}

TEST_P(MinCutAlgorithmTest, ParallelSentinelArcsIntoOneNodeStayExact) {
  // Two sentinel arcs feeding node 3 saturate its stored excess in
  // push-relabel (kInf + kInf clamps); the surplus must drain back to the
  // source without disturbing the finite cut value.
  CompactFlowNetwork network(5);
  network.AddArc(0, 2, kInfiniteCapacity);
  network.AddArc(0, 3, kInfiniteCapacity);
  network.AddArc(2, 3, kInfiniteCapacity);
  network.AddArc(3, 4, 11);
  network.AddArc(4, 1, 6);
  network.Finalize();
  const CutResult cut = GetParam().fn(network, 0, 1);
  EXPECT_EQ(cut.cut_value, 6);
}

TEST_P(MinCutAlgorithmTest, SummedCapacitiesNearInt64MaxSaturateToSentinel) {
  // Three parallel finite edges each close to the finite maximum: the true
  // max flow exceeds int64 range, so the reported value must saturate to
  // exactly the sentinel in both algorithms rather than wrapping.
  CompactFlowNetwork network(5);
  network.AddArc(0, 2, kMaxFiniteCapacity - 2);
  network.AddArc(0, 3, kMaxFiniteCapacity - 2);
  network.AddArc(0, 4, kMaxFiniteCapacity - 2);
  network.AddArc(2, 1, kMaxFiniteCapacity - 2);
  network.AddArc(3, 1, kMaxFiniteCapacity - 2);
  network.AddArc(4, 1, kMaxFiniteCapacity - 2);
  network.Finalize();
  const CutResult cut = GetParam().fn(network, 0, 1);
  EXPECT_EQ(cut.cut_value, kInfiniteCapacity);
}

TEST_P(MinCutAlgorithmTest, NearMaxFiniteCapacitySingleEdgeIsExact) {
  // One edge just below the sentinel: the flow is huge but representable,
  // and the result must be bit-exact, not approximately large.
  CompactFlowNetwork network(3);
  network.AddArc(0, 2, kMaxFiniteCapacity - 1);
  network.AddArc(2, 1, kMaxFiniteCapacity - 7);
  network.Finalize();
  const CutResult cut = GetParam().fn(network, 0, 1);
  EXPECT_EQ(cut.cut_value, kMaxFiniteCapacity - 7);
}

INSTANTIATE_TEST_SUITE_P(Algorithms, MinCutAlgorithmTest,
                         ::testing::Values(AlgorithmParam{"RelabelToFront",
                                                          &MinCutRelabelToFront},
                                           AlgorithmParam{"EdmondsKarp", &MinCutEdmondsKarp},
                                           AlgorithmParam{"PushRelabel", &ProductionCut},
                                           AlgorithmParam{"WholeNetworkPushRelabel",
                                                          &WholeNetworkPushRelabel}),
                         [](const auto& info) { return info.param.name; });

// Saturating arithmetic unit tests: the sentinel is absorbing at both
// rails and ordinary values stay exact.
TEST(SaturatingArithmeticTest, AddSaturatesAtTheRails) {
  EXPECT_EQ(SatAdd(1, 2), 3);
  EXPECT_EQ(SatAdd(kInfiniteCapacity, 1), kInfiniteCapacity);
  EXPECT_EQ(SatAdd(kInfiniteCapacity, kInfiniteCapacity), kInfiniteCapacity);
  EXPECT_EQ(SatAdd(kMaxFiniteCapacity, 1), kInfiniteCapacity);
  EXPECT_EQ(SatAdd(kMaxFiniteCapacity, 0), kMaxFiniteCapacity);
  EXPECT_EQ(SatAdd(-kInfiniteCapacity, -1), -kInfiniteCapacity);
  EXPECT_EQ(SatAdd(-kInfiniteCapacity, kInfiniteCapacity), 0);
}

TEST(SaturatingArithmeticTest, SubSaturatesAtTheRails) {
  EXPECT_EQ(SatSub(5, 3), 2);
  EXPECT_EQ(SatSub(0, kInfiniteCapacity), -kInfiniteCapacity);
  EXPECT_EQ(SatSub(-2, kInfiniteCapacity), -kInfiniteCapacity);
  EXPECT_EQ(SatSub(kInfiniteCapacity, -1), kInfiniteCapacity);
  EXPECT_EQ(SatSub(kInfiniteCapacity, kInfiniteCapacity), 0);
  // The symmetric range: INT64_MIN is never produced.
  EXPECT_EQ(SatSub(-kInfiniteCapacity, 1), -kInfiniteCapacity);
}

TEST(SaturatingArithmeticTest, ResidualOfSentinelArcSaturates) {
  // A sentinel-capacity arc whose reverse owes sentinel-scale flow has a
  // residual beyond int64 range; it must clamp to the sentinel, not wrap.
  CompactArc arc;
  arc.capacity = kInfiniteCapacity;
  arc.flow = -kInfiniteCapacity;
  EXPECT_EQ(arc.Residual(), kInfiniteCapacity);
  arc.flow = kInfiniteCapacity;
  EXPECT_EQ(arc.Residual(), 0);
  arc.flow = 5;
  EXPECT_EQ(arc.Residual(), kInfiniteCapacity - 5);
}

CapUnits CutWeightOfPartition(const std::vector<std::tuple<int, int, CapUnits>>& edges,
                              const std::vector<bool>& source_side) {
  CapUnits weight = 0;
  for (const auto& [a, b, w] : edges) {
    if (source_side[static_cast<size_t>(a)] != source_side[static_cast<size_t>(b)]) {
      weight = SatAdd(weight, w);
    }
  }
  return weight;
}

// Property: on random graphs both algorithms find cuts with (a) equal
// value, (b) value equal to the partition weight they report, and (c) no
// cheaper single-node move (local optimality of a min cut). All equalities
// are exact — fixed-point capacities leave no room for epsilon.
class RandomGraphTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomGraphTest, AlgorithmsAgreeAndCutsAreConsistent) {
  Rng rng(GetParam());
  const int n = static_cast<int>(rng.UniformInt(4, 24));
  std::vector<std::tuple<int, int, CapUnits>> edges;
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      if (rng.Bernoulli(0.35)) {
        edges.emplace_back(a, b, rng.UniformInt(1, 10'000'000));
      }
    }
  }

  CompactFlowNetwork network(n);
  for (const auto& [a, b, w] : edges) {
    network.AddEdge(a, b, w);
  }
  network.Finalize();
  const CutResult rtf = MinCutRelabelToFront(network, 0, n - 1);
  const CutResult ek = MinCutEdmondsKarp(network, 0, n - 1);

  EXPECT_EQ(rtf.cut_value, ek.cut_value);

  // The reported flow value equals the partition's crossing weight.
  EXPECT_EQ(CutWeightOfPartition(edges, rtf.in_source_side), rtf.cut_value);
  EXPECT_EQ(CutWeightOfPartition(edges, ek.in_source_side), ek.cut_value);

  // No single node can move sides and lower the cut (necessary condition
  // for optimality; terminals stay put).
  for (int v = 1; v < n - 1; ++v) {
    std::vector<bool> flipped = rtf.in_source_side;
    flipped[static_cast<size_t>(v)] = !flipped[static_cast<size_t>(v)];
    EXPECT_GE(CutWeightOfPartition(edges, flipped), rtf.cut_value);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphTest,
                         ::testing::Range(uint64_t{1000}, uint64_t{1020}));

TEST(FlowNetworkTest, CutsDoNotMutateTheInputNetwork) {
  // The const& entry points work on per-call copies: repeated cuts over
  // the same network agree, and the caller's arcs keep zero flow.
  CompactFlowNetwork network(3);
  network.AddEdge(0, 1, 2);
  network.AddEdge(1, 2, 2);
  network.Finalize();
  const CutResult first = MinCutRelabelToFront(network, 0, 2);
  const CutResult second = MinCutRelabelToFront(network, 0, 2);
  EXPECT_EQ(first.cut_value, second.cut_value);
  for (int a = 0; a < network.arc_count(); ++a) {
    EXPECT_EQ(network.arc(a).flow, 0);
  }
  // Flow a caller left on the input (here, by a direct solver run) is
  // ignored: every solve starts from zero flow, a repeated one included.
  PushRelabelSolver solver;
  EXPECT_EQ(solver.Solve(network, 0, 2), first.cut_value);
  EXPECT_EQ(solver.Solve(network, 0, 2), first.cut_value);
  EXPECT_EQ(MinCutRelabelToFront(network, 0, 2).cut_value, first.cut_value);
  const CutResult pushed = ProductionCut(network, 0, 2);
  EXPECT_EQ(pushed.cut_value, first.cut_value);
  EXPECT_EQ(pushed.in_source_side, first.in_source_side);
}

TEST(FlowNetworkTest, ExtractCutStopsAtSaturatedEdges) {
  CompactFlowNetwork network(4);
  network.AddEdge(0, 1, 1);
  network.AddEdge(0, 2, 1);
  network.AddEdge(1, 3, 1);
  network.AddEdge(2, 3, 1);
  network.Finalize();
  const CutResult cut = MinCutRelabelToFront(network, 0, 3);
  EXPECT_EQ(cut.cut_value, 2);
  // Both unit-capacity source edges saturate; only the source remains on
  // the source side, and exactly those two edges cross.
  EXPECT_EQ(cut.SourceSideCount(), 1);
  EXPECT_EQ(CrossingEdges(network, cut), 2);
  for (const CompactFlowNetwork::Edge& edge : network.edges()) {
    if (cut.in_source_side[static_cast<size_t>(edge.from)] !=
        cut.in_source_side[static_cast<size_t>(edge.to)]) {
      EXPECT_EQ(edge.from, 0);
      EXPECT_TRUE(edge.to == 1 || edge.to == 2);
    }
  }
}

}  // namespace
}  // namespace coign
