// Property tests for the single quantization boundary between the
// prediction layer (double seconds) and the min-cut layer (integer
// CapUnits). Two claims, both from the documented bound in
// compact_flow_network.h:
//
//  1. Round-tripping seconds -> CapUnits -> seconds moves any value by at
//     most 1 unit (1 ps) for times inside the analysis domain, so a cut
//     crossing E edges is perturbed by at most E picoseconds.
//  2. Cut *membership* is invariant under quantization whenever the gaps
//     between competing cut values exceed the bound — quantization can
//     never flip a placement decision on graphs with real capacity gaps.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <tuple>
#include <vector>

#include "src/mincut/compact_flow_network.h"
#include "src/mincut/relabel_to_front.h"
#include "src/support/rng.h"
#include "tests/oracles/mincut_oracles.h"

namespace coign {
namespace {

// 1 unit, per compact_flow_network.h.
constexpr double kPerEdgeBoundSeconds = 1e-12;

TEST(QuantizationTest, RoundTripStaysWithinOneUnitAcrossMagnitudes) {
  // Magnitudes from sub-nanosecond message costs to kiloseconds of bulk
  // transfer — everything the prediction model emits.
  Rng rng(20260808);
  for (int i = 0; i < 20000; ++i) {
    const double exponent = rng.UniformDouble(-10.0, 3.0);
    const double seconds = std::pow(10.0, exponent);
    const double round_trip = CapUnitsToSeconds(SecondsToCapUnits(seconds));
    EXPECT_LE(std::abs(round_trip - seconds), kPerEdgeBoundSeconds)
        << "seconds=" << seconds;
  }
  // Edge cases of the rule: non-positive and NaN clamp to zero; half-unit
  // values round away from zero; the finite range clamps at the top.
  EXPECT_EQ(SecondsToCapUnits(0.0), 0);
  EXPECT_EQ(SecondsToCapUnits(-1.0), 0);
  EXPECT_EQ(SecondsToCapUnits(std::nan("")), 0);
  EXPECT_EQ(SecondsToCapUnits(1.5e-12), 2);  // Half rounds away from zero.
  EXPECT_EQ(SecondsToCapUnits(0.4e-12), 0);
  EXPECT_EQ(SecondsToCapUnits(1e9), kMaxFiniteCapacity);  // Beyond the range.
}

TEST(QuantizationTest, PartitionValuePerturbedByAtMostOneUnitPerEdge) {
  // Build random double-weighted graphs, quantize once (as the engine
  // does), cut exactly, and check the partition's exact value in seconds
  // against the same partition's unquantized double sum: the difference
  // must be below crossing_edges x 1 ps.
  Rng rng(77001);
  for (int g = 0; g < 60; ++g) {
    const int n = static_cast<int>(rng.UniformInt(4, 12));
    std::vector<std::tuple<int, int, double>> edges;
    for (int a = 0; a < n; ++a) {
      for (int b = a + 1; b < n; ++b) {
        if (rng.Bernoulli(0.5)) {
          // Spread magnitudes: microseconds to tens of seconds.
          edges.emplace_back(a, b,
                             std::pow(10.0, rng.UniformDouble(-6.0, 1.5)));
        }
      }
    }
    CompactFlowNetwork network(n);
    for (const auto& [a, b, w] : edges) {
      network.AddEdge(a, b, SecondsToCapUnits(w));
    }
    network.Finalize();
    const CutResult cut = MinCutEdmondsKarp(network, 0, n - 1);

    double unquantized = 0.0;
    int crossing = 0;
    for (const auto& [a, b, w] : edges) {
      if (cut.in_source_side[static_cast<size_t>(a)] !=
          cut.in_source_side[static_cast<size_t>(b)]) {
        unquantized += w;
        ++crossing;
      }
    }
    const double exact = CapUnitsToSeconds(cut.cut_value);
    // The double sum itself carries rounding error; give it an extra unit
    // of slack on top of the documented per-edge bound.
    EXPECT_LE(std::abs(exact - unquantized),
              (crossing + 1) * kPerEdgeBoundSeconds)
        << "graph=" << g << " crossing=" << crossing;
  }
}

TEST(QuantizationTest, CutMembershipInvariantWhenGapsExceedTheBound) {
  // Superincreasing weights (distinct powers of two, in microseconds)
  // make every partition's crossing value unique, with gaps of at least
  // 1 us — nine orders of magnitude above the quantization bound. The cut
  // of the quantized-from-double network must match the cut of the
  // exactly-scaled integer network edge for edge and node for node, even
  // with sub-bound jitter injected before quantization.
  Rng rng(88002);
  for (int g = 0; g < 40; ++g) {
    const int n = static_cast<int>(rng.UniformInt(4, 9));
    std::vector<std::tuple<int, int, int>> edges;  // (a, b, power).
    int power = 0;
    for (int a = 0; a < n; ++a) {
      for (int b = a + 1; b < n; ++b) {
        if (rng.Bernoulli(0.55)) {
          edges.emplace_back(a, b, power++);
        }
      }
    }

    CompactFlowNetwork quantized(n);
    CompactFlowNetwork exact(n);
    for (const auto& [a, b, p] : edges) {
      const double micros = static_cast<double>(int64_t{1} << p);
      // Jitter below the representable quantization step: must not matter.
      const double seconds = micros * 1e-6 + rng.UniformDouble(-4e-13, 4e-13);
      quantized.AddEdge(a, b, SecondsToCapUnits(seconds));
      exact.AddEdge(a, b, (int64_t{1} << p) * 1'000'000);  // us -> ps, exact.
    }

    quantized.Finalize();
    exact.Finalize();
    const CutResult from_quantized = MinCutRelabelToFront(quantized, 0, n - 1);
    const CutResult from_exact = MinCutRelabelToFront(exact, 0, n - 1);
    const CutResult ek_quantized = MinCutEdmondsKarp(quantized, 0, n - 1);

    // Same partition, node for node (the unique minimum cut), from both
    // networks and both algorithms.
    EXPECT_EQ(from_quantized.in_source_side, from_exact.in_source_side)
        << "graph=" << g;
    EXPECT_EQ(ek_quantized.in_source_side, from_exact.in_source_side)
        << "graph=" << g;
    // Values agree within the documented bound (jitter is sub-unit, so at
    // most 1 unit per crossing edge, counted off the side).
    int64_t crossing = 0;
    for (const auto& [a, b, p] : edges) {
      if (from_exact.in_source_side[static_cast<size_t>(a)] !=
          from_exact.in_source_side[static_cast<size_t>(b)]) {
        ++crossing;
      }
    }
    EXPECT_LE(std::llabs(from_quantized.cut_value - from_exact.cut_value), crossing)
        << "graph=" << g;
  }
}

}  // namespace
}  // namespace coign
