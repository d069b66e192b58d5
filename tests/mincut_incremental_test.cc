// Mutation-fuzz oracle for the warm-start incremental min-cut session.
//
// Each case builds a live IncrementalMinCut session on a seeded graph and
// then drives it through a random sequence of capacity-delta batches —
// increases, decreases, zeroings, sentinel pins appearing and vanishing.
// After every batch the session's warm re-cut is checked by integer
// equality against a cold solve of the same capacities (push-relabel,
// relabel-to-front, Edmonds-Karp) and the exhaustive brute-force
// reference, plus the max-flow/min-cut certificate and byte-level
// partition identity on feasible steps.
//
// On failure the *delta sequence* is shrunk to a minimal repro: whole
// steps are dropped greedily, then individual deltas within the surviving
// steps, then edges of the base graph — always re-running the full
// sequence — and the result is printed as a replayable transcript.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/mincut/compact_flow_network.h"
#include "src/mincut/incremental.h"
#include "src/mincut/push_relabel.h"
#include "src/mincut/relabel_to_front.h"
#include "src/support/rng.h"
#include "tests/oracles/mincut_oracles.h"

namespace coign {
namespace {

constexpr int kCases = 160;
constexpr int kMaxSteps = 6;

struct SpecEdge {
  int a = 0;
  int b = 0;
  CapUnits capacity = 0;
  bool directed = false;
};

struct Delta {
  size_t edge = 0;
  CapUnits capacity = 0;
};

struct DeltaCase {
  int node_count = 2;
  int source = 0;
  int sink = 1;
  std::vector<SpecEdge> edges;
  std::vector<std::vector<Delta>> steps;
};

CompactFlowNetwork BuildNetwork(const DeltaCase& c, const std::vector<CapUnits>& capacities) {
  CompactFlowNetwork network(c.node_count);
  for (size_t i = 0; i < c.edges.size(); ++i) {
    if (c.edges[i].directed) {
      network.AddArc(c.edges[i].a, c.edges[i].b, capacities[i]);
    } else {
      network.AddEdge(c.edges[i].a, c.edges[i].b, capacities[i]);
    }
  }
  network.Finalize();
  return network;
}

std::string CapString(CapUnits capacity) {
  if (capacity == kInfiniteCapacity) {
    return "kInfiniteCapacity";
  }
  std::ostringstream out;
  out << capacity;
  return out.str();
}

std::string Describe(const DeltaCase& c) {
  std::ostringstream out;
  out << "CompactFlowNetwork network(" << c.node_count << ");  // source="
      << c.source << " sink=" << c.sink << "\n";
  for (const SpecEdge& edge : c.edges) {
    out << "network." << (edge.directed ? "AddArc" : "AddEdge") << "(" << edge.a
        << ", " << edge.b << ", " << CapString(edge.capacity) << ");\n";
  }
  for (size_t s = 0; s < c.steps.size(); ++s) {
    out << "// step " << s << ":\n";
    for (const Delta& delta : c.steps[s]) {
      out << "session.SetEdgeCapacity(ids[" << delta.edge << "], "
          << CapString(delta.capacity) << ");\n";
    }
    out << "session.Solve();\n";
  }
  return out.str();
}

struct Failure {
  bool failed = false;
  std::string what;
};

// Runs the whole case — cold base solve, then every delta step warm —
// checking each solve against the cold oracles and the reference.
Failure RunCase(const DeltaCase& c) {
  Failure result;
  std::ostringstream why;

  CompactFlowNetwork compact(c.node_count);
  std::vector<int> ids;
  ids.reserve(c.edges.size());
  for (const SpecEdge& edge : c.edges) {
    ids.push_back(edge.directed ? compact.AddArc(edge.a, edge.b, edge.capacity)
                                : compact.AddEdge(edge.a, edge.b, edge.capacity));
  }
  compact.Finalize();
  IncrementalMinCut session;
  session.Reset(std::move(compact), c.source, c.sink);

  std::vector<CapUnits> capacities;
  capacities.reserve(c.edges.size());
  for (const SpecEdge& edge : c.edges) {
    capacities.push_back(edge.capacity);
  }

  for (size_t step = 0; step <= c.steps.size(); ++step) {
    if (step > 0) {
      for (const Delta& delta : c.steps[step - 1]) {
        capacities[delta.edge] = delta.capacity;
        session.SetEdgeCapacity(ids[delta.edge], delta.capacity);
      }
    }
    const CutResult live = session.Solve();
    const CompactFlowNetwork network = BuildNetwork(c, capacities);
    const CutResult cold = MinCutPushRelabel(network, c.source, c.sink);
    const CutResult lift = MinCutRelabelToFront(network, c.source, c.sink);
    const CutResult baseline = MinCutEdmondsKarp(network, c.source, c.sink);
    const CapUnits reference = ReferenceMinCut(network, c.source, c.sink);

    const auto complain = [&why, step](const std::string& text) {
      why << "step " << step << ": " << text << "; ";
    };
    if (live.cut_value != reference) {
      complain("session " + std::to_string(live.cut_value) + " != reference " +
               std::to_string(reference));
    }
    if (cold.cut_value != reference) {
      complain("cold PR != reference");
    }
    if (lift.cut_value != reference) {
      complain("RTF != reference");
    }
    if (baseline.cut_value != reference) {
      complain("EK != reference");
    }
    if (static_cast<int>(live.in_source_side.size()) != c.node_count ||
        !live.in_source_side[static_cast<size_t>(c.source)] ||
        live.in_source_side[static_cast<size_t>(c.sink)]) {
      complain("session returned a non-separating partition");
    } else {
      const CapUnits crossing = PartitionCapacity(network, live.in_source_side);
      if (crossing != live.cut_value) {
        complain("session partition crosses " + std::to_string(crossing) +
                 " but reports " + std::to_string(live.cut_value));
      }
      // Unique-minimal-cut identity on feasible steps (see the matching
      // check in mincut_equivalence_test for why infeasible is excluded).
      if (reference != kInfiniteCapacity && live.in_source_side != lift.in_source_side) {
        complain("session partition differs from RTF");
      }
    }
  }
  result.what = why.str();
  result.failed = !result.what.empty();
  return result;
}

// Shrinks a failing case: drop whole steps, then single deltas, then base
// edges — keeping any change that still fails, until a fixed point.
DeltaCase ShrinkFailingCase(DeltaCase c) {
  bool shrunk = true;
  while (shrunk) {
    shrunk = false;
    for (size_t s = 0; s < c.steps.size(); ++s) {
      DeltaCase candidate = c;
      candidate.steps.erase(candidate.steps.begin() + static_cast<long>(s));
      if (RunCase(candidate).failed) {
        c = std::move(candidate);
        shrunk = true;
        break;
      }
    }
    if (shrunk) {
      continue;
    }
    for (size_t s = 0; s < c.steps.size() && !shrunk; ++s) {
      for (size_t d = 0; d < c.steps[s].size(); ++d) {
        DeltaCase candidate = c;
        candidate.steps[s].erase(candidate.steps[s].begin() + static_cast<long>(d));
        if (RunCase(candidate).failed) {
          c = std::move(candidate);
          shrunk = true;
          break;
        }
      }
    }
    if (shrunk) {
      continue;
    }
    for (size_t e = 0; e < c.edges.size() && !shrunk; ++e) {
      DeltaCase candidate = c;
      candidate.edges.erase(candidate.edges.begin() + static_cast<long>(e));
      // Re-point deltas at the shifted edge list; drop deltas that
      // targeted the removed edge.
      for (auto& step : candidate.steps) {
        std::vector<Delta> kept;
        for (const Delta& delta : step) {
          if (delta.edge == e) {
            continue;
          }
          Delta moved = delta;
          if (moved.edge > e) {
            --moved.edge;
          }
          kept.push_back(moved);
        }
        step = std::move(kept);
      }
      if (RunCase(candidate).failed) {
        c = std::move(candidate);
        shrunk = true;
      }
    }
  }
  return c;
}

CapUnits DriftCapacity(Rng& rng) {
  switch (rng.UniformInt(0, 5)) {
    case 0: return 0;                                    // Edge disappears.
    case 1: return rng.UniformInt(1, 4);                 // Tied-cut ties.
    case 2: return kInfiniteCapacity;                    // Pin appears.
    case 3: return (CapUnits{1} << 53) + rng.UniformInt(-1, 1);  // Near-equal.
    case 4: return rng.UniformInt(1, 1'000'000);
    default: return rng.UniformInt(1, 50'000'000'000'000);
  }
}

DeltaCase GenCase(uint64_t seed) {
  Rng rng(seed);
  DeltaCase c;
  const int inner = static_cast<int>(rng.UniformInt(2, 7));
  c.node_count = inner + 2;
  const int n = c.node_count;
  for (int node = 2; node < n; ++node) {
    const int anchor = static_cast<int>(rng.UniformInt(0, node - 1));
    c.edges.push_back({anchor, node, DriftCapacity(rng), false});
  }
  const int extra = 2 * inner;
  for (int i = 0; i < extra; ++i) {
    const int a = static_cast<int>(rng.UniformInt(0, n - 1));
    const int b = static_cast<int>(rng.UniformInt(0, n - 1));
    if (a == b) {
      continue;
    }
    c.edges.push_back({a, b, DriftCapacity(rng), !rng.Bernoulli(0.8)});
  }
  c.edges.push_back({0, static_cast<int>(rng.UniformInt(2, n - 1)), DriftCapacity(rng), false});
  c.edges.push_back({1, static_cast<int>(rng.UniformInt(2, n - 1)), DriftCapacity(rng), false});

  const int steps = static_cast<int>(rng.UniformInt(1, kMaxSteps));
  for (int s = 0; s < steps; ++s) {
    std::vector<Delta> step;
    const int deltas = static_cast<int>(rng.UniformInt(1, 3));
    for (int d = 0; d < deltas; ++d) {
      Delta delta;
      delta.edge = static_cast<size_t>(rng.UniformInt(0, static_cast<int>(c.edges.size()) - 1));
      delta.capacity = DriftCapacity(rng);
      step.push_back(delta);
    }
    c.steps.push_back(std::move(step));
  }
  return c;
}

TEST(MinCutIncrementalFuzzTest, WarmSolvesMatchColdAndReferenceOnEveryStep) {
  for (int i = 0; i < kCases; ++i) {
    const uint64_t seed = 0xde17a000u + static_cast<uint64_t>(i);
    const DeltaCase c = GenCase(seed);
    const Failure failure = RunCase(c);
    if (failure.failed) {
      const DeltaCase minimal = ShrinkFailingCase(c);
      const Failure residual = RunCase(minimal);
      FAIL() << "case " << i << " (seed " << seed << ") disagrees: " << failure.what
             << "\nminimal repro (" << minimal.edges.size() << " edges, "
             << minimal.steps.size() << " steps): " << residual.what << "\n"
             << Describe(minimal);
    }
  }
}

TEST(MinCutIncrementalFuzzTest, ShrinkerReducesStepsAndDeltas) {
  // Synthetic failure predicate: "fails" whenever the last solve differs
  // from 5. Base cut is 5; one noise step keeps it at 5 (removable); one
  // step drops the bottleneck to 2 (the culprit). The shrinker must strip
  // the noise and keep a 1-step, 1-delta repro.
  DeltaCase c;
  c.node_count = 4;
  c.edges.push_back({0, 2, 9, false});
  c.edges.push_back({2, 3, 5, false});
  c.edges.push_back({3, 1, 9, false});
  c.steps.push_back({{0, 8}});  // Noise: min stays 5.
  c.steps.push_back({{1, 2}, {0, 7}});  // Culprit is the first delta.
  auto fails = [](const DeltaCase& candidate) {
    std::vector<CapUnits> capacities;
    for (const SpecEdge& edge : candidate.edges) {
      capacities.push_back(edge.capacity);
    }
    for (const auto& step : candidate.steps) {
      for (const Delta& delta : step) {
        capacities[delta.edge] = delta.capacity;
      }
    }
    return MinCutEdmondsKarp(BuildNetwork(candidate, capacities), candidate.source,
                             candidate.sink)
               .cut_value != 5;
  };
  ASSERT_TRUE(fails(c));

  DeltaCase shrunk = c;
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t s = 0; s < shrunk.steps.size() && !changed; ++s) {
      DeltaCase candidate = shrunk;
      candidate.steps.erase(candidate.steps.begin() + static_cast<long>(s));
      if (fails(candidate)) {
        shrunk = std::move(candidate);
        changed = true;
      }
    }
    for (size_t s = 0; s < shrunk.steps.size() && !changed; ++s) {
      for (size_t d = 0; d < shrunk.steps[s].size() && !changed; ++d) {
        DeltaCase candidate = shrunk;
        candidate.steps[s].erase(candidate.steps[s].begin() + static_cast<long>(d));
        if (fails(candidate)) {
          shrunk = std::move(candidate);
          changed = true;
        }
      }
    }
  }
  ASSERT_EQ(shrunk.steps.size(), 1u);
  ASSERT_EQ(shrunk.steps[0].size(), 1u);
  EXPECT_EQ(shrunk.steps[0][0].edge, 1u);
  EXPECT_EQ(shrunk.steps[0][0].capacity, 2);
}

TEST(MinCutIncrementalFuzzTest, SessionReportsWarmStartsAndReusedFlow) {
  // A simple path graph: 0 -(9)- 2 -(5)- 3 -(9)- 1. Re-solving after a
  // mild drift must be warm and reuse the retained sink inflow.
  CompactFlowNetwork network(4);
  network.AddEdge(0, 2, 9);
  const int bottleneck = network.AddEdge(2, 3, 5);
  network.AddEdge(3, 1, 9);
  network.Finalize();
  IncrementalMinCut session;
  session.Reset(std::move(network), 0, 1);

  EXPECT_EQ(session.Solve().cut_value, 5);
  EXPECT_EQ(session.last_stats().warm_start_hits, 0u);  // First solve is cold.

  session.SetEdgeCapacity(bottleneck, 6);  // Pure increase: flow kept.
  EXPECT_EQ(session.Solve().cut_value, 6);
  EXPECT_EQ(session.last_stats().warm_start_hits, 1u);
  EXPECT_EQ(session.last_stats().flow_reused_units, 5);

  session.SetEdgeCapacity(bottleneck, 3);  // Decrease: clip + deficit cancel.
  EXPECT_EQ(session.Solve().cut_value, 3);
  EXPECT_EQ(session.last_stats().warm_start_hits, 1u);
  EXPECT_EQ(session.last_stats().flow_reused_units, 3);

  EXPECT_EQ(session.total_stats().warm_start_hits, 2u);
  EXPECT_GT(session.total_stats().pushes, 0u);
}

TEST(MinCutIncrementalFuzzTest, ReplaysDeterministically) {
  auto fingerprint = [](uint64_t seed) {
    const DeltaCase c = GenCase(seed);
    std::ostringstream out;
    out << Describe(c);
    return out.str();
  };
  EXPECT_EQ(fingerprint(77), fingerprint(77));
  EXPECT_NE(fingerprint(77), fingerprint(78));
}

}  // namespace
}  // namespace coign
