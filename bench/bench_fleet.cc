// Extension: fleet partitioning at population scale.
//
// The paper partitions one application for one client over one measured
// network. A deployed service faces thousands of clients at once, each
// with its own measured link. The fleet service plans them all from the
// profile's exact cut envelope: 2K−1 push-relabel solves for K distinct
// optimal cuts, then one λ lookup per client. This bench compares that
// with the naive service, one full analysis per client at the client's own
// loss-inflated link (the test oracle fleet_oracle::MisplacedClients), on
// 2,000 and 20,000 seeded clients (30% lossy). It reports solves and wall
// time for both, and exits nonzero unless every client's envelope placement
// equals its own analysis.
//
// It then splits Plan() into its stages over 11 repetitions, each of which
// times a plan, the envelope search (Envelope) and the segment assembly
// (one AnalyzeSegment per occupied segment, at a member's link) back to
// back. The client pass (validation, λ keys, segment lookup and median
// selection) is a repetition's plan less its other two stages, so a
// change in host speed between repetitions cancels. Each column is the
// median over the repetitions. Beside the split it prints the size of the
// constraint quotient the envelope's probes solve: the concrete graph's
// nodes and edges against its constraint groups, the communication edges
// between them and the group pairs those edges join.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bench/harness.h"
#include "src/analysis/envelope.h"
#include "src/apps/octarine.h"
#include "src/fleet/service.h"
#include "src/sim/fleet_population.h"
#include "tests/oracles/fleet_oracle.h"

using namespace coign;  // NOLINT: bench binary.

namespace {

constexpr uint64_t kFleetSeed = 42;
constexpr double kLossyFraction = 0.3;
constexpr int kRepetitions = 11;

double SecondsOf(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
  return elapsed.count();
}

double Median(std::vector<double> values) {
  const auto middle = values.begin() + static_cast<std::ptrdiff_t>(values.size() / 2);
  std::nth_element(values.begin(), middle, values.end());
  return *middle;
}

// Milliseconds per stage, one entry per repetition.
struct StageSplit {
  int clients = 0;
  std::vector<double> plan_ms;
  std::vector<double> envelope_ms;
  std::vector<double> assembly_ms;
  std::vector<double> client_pass_ms;
};

}  // namespace

int main() {
  std::unique_ptr<Application> app = MakeOctarine();
  Result<IccProfile> profile = ProfileScenarios(*app, {"o_newdoc", "o_oldwp3"});
  if (!profile.ok()) {
    std::fprintf(stderr, "profiling: %s\n", profile.status().ToString().c_str());
    return 1;
  }
  std::printf("fleet planning: exact cut envelope vs one analysis per client\n");
  std::printf("profile Octarine o_newdoc + o_oldwp3, fleet seed %llu, %.0f%% lossy links\n\n",
              static_cast<unsigned long long>(kFleetSeed), 100.0 * kLossyFraction);
  std::printf("%8s %6s %8s %7s %10s %10s %15s %9s %11s\n", "clients", "cuts", "segments",
              "solves", "plan (ms)", "analyses", "per-client (s)", "speedup", "mismatches");

  const FleetPartitionService service;
  const ProfileAnalysisEngine engine;
  std::vector<StageSplit> splits;
  size_t mismatches = 0;
  for (const int clients : {2000, 20000}) {
    FleetPopulationOptions population;
    population.client_count = clients;
    population.lossy_fraction = kLossyFraction;
    const std::vector<FleetClient> fleet = GenerateFleet(population, kFleetSeed);

    Result<FleetPlanResult> planned = service.Plan(*profile, fleet);
    if (!planned.ok()) {
      std::fprintf(stderr, "plan: %s\n", planned.status().ToString().c_str());
      return 1;
    }
    Result<CutEnvelope> envelope = engine.Envelope(*profile);
    if (!envelope.ok()) {
      std::fprintf(stderr, "envelope: %s\n", envelope.status().ToString().c_str());
      return 1;
    }
    // Each occupied segment's index in the envelope and a member's link.
    std::vector<std::pair<size_t, NetworkProfile>> occupied;
    for (const SegmentPlan& plan : planned->plans) {
      const std::vector<EnvelopeSegment>& segments = envelope->segments();
      size_t s = 0;
      while (!(segments[s].from == plan.lambda_from)) {
        ++s;
      }
      occupied.emplace_back(s, LossInflatedLink(fleet[plan.members.front()]));
    }
    std::vector<AnalysisResult> assembled(occupied.size());
    StageSplit split;
    split.clients = clients;
    for (int rep = 0; rep < kRepetitions; ++rep) {
      const double plan_ms = 1e3 * SecondsOf([&] { planned = service.Plan(*profile, fleet); });
      const double envelope_ms = 1e3 * SecondsOf([&] { envelope = engine.Envelope(*profile); });
      const double assembly_ms = 1e3 * SecondsOf([&] {
        for (size_t i = 0; i < occupied.size(); ++i) {
          assembled[i] = engine.AnalyzeSegment(*profile, *envelope, occupied[i].first,
                                               occupied[i].second);
        }
      });
      split.plan_ms.push_back(plan_ms);
      split.envelope_ms.push_back(envelope_ms);
      split.assembly_ms.push_back(assembly_ms);
      split.client_pass_ms.push_back(plan_ms - envelope_ms - assembly_ms);
    }
    splits.push_back(split);

    // The naive service: every client's own cut, compared with its plan.
    Result<std::vector<std::string>> misplaced(InternalError("unset"));
    const double naive_seconds = SecondsOf(
        [&] { misplaced = fleet_oracle::MisplacedClients(*profile, fleet, *planned); });
    if (!misplaced.ok()) {
      std::fprintf(stderr, "per-client analysis: %s\n", misplaced.status().ToString().c_str());
      return 1;
    }
    const size_t differ = misplaced->size();
    mismatches += differ;
    const double plan_ms = Median(split.plan_ms);
    std::printf("%8d %6zu %8zu %7zu %10.3f %10d %15.3f %8.0fx %11zu\n", clients,
                planned->breakpoints.size() + 1, planned->stats.cohorts,
                planned->stats.plans_computed, plan_ms, clients, naive_seconds,
                1e3 * naive_seconds / plan_ms, differ);
  }

  // The constraint quotient, built as the envelope's probes build it.
  Result<CutEnvelope> envelope = engine.Envelope(*profile);
  if (!envelope.ok()) {
    std::fprintf(stderr, "envelope: %s\n", envelope.status().ToString().c_str());
    return 1;
  }
  const ConcreteGraph& graph = envelope->graph();
  const ConstraintQuotient quotient = ContractConstraints(graph);
  std::printf("\nconstraint quotient: %d nodes -> %d groups, %zu edges -> %zu cuttable edges "
              "(%zu group pairs)\n",
              graph.node_count(), quotient.groups.count(), graph.edges().size(),
              quotient.crossing_edges, quotient.pairs.size());

  std::printf("\nPlan() stages, median of %d repetitions (ms)\n", kRepetitions);
  std::printf("%8s %10s %10s %10s %12s\n", "clients", "plan", "envelope", "assembly",
              "client pass");
  for (const StageSplit& split : splits) {
    std::printf("%8d %10.3f %10.3f %10.3f %12.3f\n", split.clients, Median(split.plan_ms),
                Median(split.envelope_ms), Median(split.assembly_ms),
                Median(split.client_pass_ms));
  }
  std::printf("\n%s\n", mismatches == 0
                            ? "every client's envelope placement equals its own analysis"
                            : "MISMATCH: envelope placements differ from per-client analyses");
  return mismatches == 0 ? 0 : 1;
}
