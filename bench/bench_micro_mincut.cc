// Microbenchmark: the min-cut solver family on random communication-
// graph-shaped inputs — the paper's lift-to-front (relabel-to-front)
// algorithm, the test-only Edmonds-Karp oracle, and the production
// highest-label push-relabel solver (the table's pr column goes through
// the production entry, IncrementalMinCut; these random graphs have no
// sentinel edges, so it solves the whole network). All run on the same
// CSR network and are exact over integer CapUnits; this quantifies the
// cost of the paper's algorithm choice.
//
// Besides the google-benchmark timing mode:
//   --coign-cut-table     deterministic table of exact cut values (all
//                         solvers, several sizes/seeds); exits nonzero on
//                         any disagreement. CI byte-diffs the table
//                         against tests/golden/: no timing noise, so any
//                         diff is a real change in what the solvers
//                         compute.
//   --coign-epoch-series  seeded capacity-drift epoch sequences at several
//                         sizes, timing cold relabel-to-front vs cold
//                         push-relabel each epoch; exits nonzero on any
//                         cut-value disagreement. With --json <path> the
//                         per-size totals land in a BenchTrajectory file;
//                         with --enforce-speedup the run fails unless
//                         push-relabel beats relabel-to-front by at least
//                         2x at the largest size (the CI perf-smoke gate).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/mincut/compact_flow_network.h"
#include "src/mincut/incremental.h"
#include "src/mincut/push_relabel.h"
#include "src/mincut/relabel_to_front.h"
#include "src/support/rng.h"
#include "src/support/str_util.h"
#include "tests/oracles/mincut_oracles.h"

namespace coign {
namespace {

struct BenchEdge {
  int a = 0;
  int b = 0;
  CapUnits capacity = 0;
};

// Edges shaped like a concrete ICC graph: two terminals, a big star of
// GUI-ish nodes around the client, a storage chain at the server, and
// random cross edges. Weights are drawn in seconds and quantized at the
// same boundary the analysis engine uses.
std::vector<BenchEdge> BuildEdges(int nodes, double edge_probability, uint64_t seed) {
  Rng rng(seed);
  std::vector<BenchEdge> edges;
  for (int v = 2; v < nodes; ++v) {
    // Every node talks to one of the terminals at least once.
    edges.push_back({rng.Bernoulli(0.7) ? 0 : 1, v,
                     SecondsToCapUnits(rng.UniformDouble(0.001, 1.0))});
  }
  for (int a = 2; a < nodes; ++a) {
    for (int b = a + 1; b < nodes; ++b) {
      if (rng.Bernoulli(edge_probability)) {
        edges.push_back({a, b, SecondsToCapUnits(rng.UniformDouble(0.001, 2.0))});
      }
    }
  }
  return edges;
}

CompactFlowNetwork ToCompactNetwork(int nodes, const std::vector<BenchEdge>& edges) {
  CompactFlowNetwork network(nodes);
  for (const BenchEdge& edge : edges) {
    network.AddEdge(edge.a, edge.b, edge.capacity);
  }
  network.Finalize();
  return network;
}

CompactFlowNetwork BuildGraph(int nodes, double edge_probability, uint64_t seed) {
  return ToCompactNetwork(nodes, BuildEdges(nodes, edge_probability, seed));
}

void BM_RelabelToFront(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  const CompactFlowNetwork network = BuildGraph(nodes, 8.0 / nodes, 7);
  CapUnits cut_value = 0;
  for (auto _ : state) {
    // The const& entry point copies internally; the copy is part of what a
    // caller pays per cut, so it belongs inside the timed region.
    const CutResult cut = MinCutRelabelToFront(network, 0, 1);
    cut_value = cut.cut_value;
    benchmark::DoNotOptimize(cut_value);
  }
  state.counters["cut_seconds"] = CapUnitsToSeconds(cut_value);
}
BENCHMARK(BM_RelabelToFront)->Arg(32)->Arg(128)->Arg(512)->Arg(1024);

void BM_EdmondsKarp(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  const CompactFlowNetwork network = BuildGraph(nodes, 8.0 / nodes, 7);
  CapUnits cut_value = 0;
  for (auto _ : state) {
    const CutResult cut = MinCutEdmondsKarp(network, 0, 1);
    cut_value = cut.cut_value;
    benchmark::DoNotOptimize(cut_value);
  }
  state.counters["cut_seconds"] = CapUnitsToSeconds(cut_value);
}
BENCHMARK(BM_EdmondsKarp)->Arg(32)->Arg(128)->Arg(512)->Arg(1024);

void BM_PushRelabelCold(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  const std::vector<BenchEdge> edges = BuildEdges(nodes, 8.0 / nodes, 7);
  CapUnits cut_value = 0;
  for (auto _ : state) {
    // Cold = everything a fresh caller pays: CSR build + solve + cut
    // extraction, mirroring what the timed copy does for the others.
    CompactFlowNetwork network = ToCompactNetwork(nodes, edges);
    PushRelabelSolver solver;
    const CapUnits flow = solver.Solve(network, 0, 1);
    const CutResult cut = network.ExtractCut(0, flow);
    cut_value = cut.cut_value;
    benchmark::DoNotOptimize(cut_value);
  }
  state.counters["cut_seconds"] = CapUnitsToSeconds(cut_value);
}
BENCHMARK(BM_PushRelabelCold)->Arg(32)->Arg(128)->Arg(512)->Arg(1024);

// Deterministic cut-value table: exact units, no timing, fixed format.
int PrintCutTable() {
  std::printf("# bench_micro_mincut cut table v3 (units = picoseconds)\n");
  std::printf("# nodes seed rtf_units ek_units pr_units source_side\n");
  int disagreements = 0;
  for (const int nodes : {32, 128, 512}) {
    for (uint64_t seed = 7; seed < 15; ++seed) {
      const CompactFlowNetwork network = BuildGraph(nodes, 8.0 / nodes, seed);
      const CutResult rtf = MinCutRelabelToFront(network, 0, 1);
      const CutResult ek = MinCutEdmondsKarp(network, 0, 1);
      IncrementalMinCut production;
      production.Reset(network, 0, 1);
      const CutResult pr = production.Solve();
      std::printf("%d %llu %lld %lld %lld %d\n", nodes,
                  static_cast<unsigned long long>(seed),
                  static_cast<long long>(rtf.cut_value),
                  static_cast<long long>(ek.cut_value),
                  static_cast<long long>(pr.cut_value), rtf.SourceSideCount());
      if (rtf.cut_value != ek.cut_value || rtf.cut_value != pr.cut_value) {
        ++disagreements;
      }
    }
  }
  if (disagreements > 0) {
    std::fprintf(stderr, "cut table: %d disagreements between solvers\n",
                 disagreements);
    return 1;
  }
  return 0;
}

// Applies one epoch of seeded capacity drift: ~5% of edges are redrawn
// from the cross-edge weight distribution.
void DriftEdges(std::vector<BenchEdge>& edges, uint64_t seed) {
  Rng rng(seed);
  for (BenchEdge& edge : edges) {
    if (rng.Bernoulli(0.05)) {
      edge.capacity = SecondsToCapUnits(rng.UniformDouble(0.001, 2.0));
    }
  }
}

double ElapsedSeconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

// Epoch-series benchmark: a drifting capacity sequence solved two ways,
// each from scratch every epoch (CSR build + solve + cut): the paper's
// relabel-to-front and the production push-relabel. Every epoch's two cut
// values must agree exactly.
int RunEpochSeries(const std::string& json_path, bool enforce_speedup) {
  constexpr int kEpochs = 24;
  constexpr uint64_t kSeed = 7;
  const std::vector<int> sizes = {32, 128, 512, 1024};

  BenchTrajectory trajectory("bench_micro_mincut_epoch_series");
  int disagreements = 0;
  double largest_speedup = 0.0;
  int largest_nodes = 0;

  std::printf("# epoch-series: %d drift epochs per size, seed %llu\n", kEpochs,
              static_cast<unsigned long long>(kSeed));
  std::printf("%8s %14s %14s %10s %12s\n", "nodes", "cold_rtf_s", "cold_pr_s", "speedup",
              "pr_pushes");

  for (const int nodes : sizes) {
    std::vector<BenchEdge> edges = BuildEdges(nodes, 8.0 / nodes, kSeed);
    MinCutSolveStats stats;
    double cold_rtf_seconds = 0.0;
    double cold_pr_seconds = 0.0;

    for (int epoch = 0; epoch < kEpochs; ++epoch) {
      if (epoch > 0) {
        DriftEdges(edges, kSeed + 1000 * static_cast<uint64_t>(epoch));
      }

      auto start = std::chrono::steady_clock::now();
      const CutResult rtf = MinCutRelabelToFront(ToCompactNetwork(nodes, edges), 0, 1);
      cold_rtf_seconds += ElapsedSeconds(start);

      start = std::chrono::steady_clock::now();
      CompactFlowNetwork compact = ToCompactNetwork(nodes, edges);
      PushRelabelSolver solver;
      const CapUnits pr_flow = solver.Solve(compact, 0, 1);
      const CutResult pr = compact.ExtractCut(0, pr_flow);
      cold_pr_seconds += ElapsedSeconds(start);
      stats.Accumulate(solver.last_stats());

      if (rtf.cut_value != pr.cut_value) {
        std::fprintf(stderr,
                     "epoch-series: nodes=%d epoch=%d disagreement rtf=%lld pr=%lld\n",
                     nodes, epoch, static_cast<long long>(rtf.cut_value),
                     static_cast<long long>(pr.cut_value));
        ++disagreements;
      }
    }

    const double speedup = cold_pr_seconds > 0.0 ? cold_rtf_seconds / cold_pr_seconds : 0.0;
    if (nodes >= largest_nodes) {
      largest_nodes = nodes;
      largest_speedup = speedup;
    }
    std::printf("%8d %14.6f %14.6f %9.2fx %12llu\n", nodes, cold_rtf_seconds,
                cold_pr_seconds, speedup, static_cast<unsigned long long>(stats.pushes));
    trajectory.Add(
        StrFormat("nodes_%d", nodes),
        {{"nodes", static_cast<double>(nodes)},
         {"epochs", static_cast<double>(kEpochs)},
         {"edges", static_cast<double>(edges.size())},
         {"cold_rtf_seconds", cold_rtf_seconds},
         {"cold_pr_seconds", cold_pr_seconds},
         {"speedup_pr_vs_rtf", speedup},
         {"pushes", static_cast<double>(stats.pushes)},
         {"relabels", static_cast<double>(stats.relabels)},
         {"global_relabels", static_cast<double>(stats.global_relabels)}});
  }

  if (!json_path.empty()) {
    const Status written = trajectory.WriteFile(json_path);
    if (!written.ok()) {
      std::fprintf(stderr, "epoch-series: %s\n", written.ToString().c_str());
      return 1;
    }
  }
  if (disagreements > 0) {
    std::fprintf(stderr, "epoch-series: %d cut disagreements\n", disagreements);
    return 1;
  }
  if (enforce_speedup && largest_speedup < 2.0) {
    std::fprintf(stderr,
                 "epoch-series: push-relabel speedup %.2fx at %d nodes below "
                 "the 2x gate\n",
                 largest_speedup, largest_nodes);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace coign

int main(int argc, char** argv) {
  bool epoch_series = false;
  bool enforce_speedup = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--coign-cut-table") == 0) {
      return coign::PrintCutTable();
    }
    if (std::strcmp(argv[i], "--coign-epoch-series") == 0) {
      epoch_series = true;
    } else if (std::strcmp(argv[i], "--enforce-speedup") == 0) {
      enforce_speedup = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }
  if (epoch_series) {
    return coign::RunEpochSeries(json_path, enforce_speedup);
  }
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
