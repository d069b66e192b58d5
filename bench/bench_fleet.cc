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

#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/apps/octarine.h"
#include "src/fleet/service.h"
#include "src/sim/fleet_population.h"
#include "tests/oracles/fleet_oracle.h"

using namespace coign;  // NOLINT: bench binary.

namespace {

constexpr uint64_t kFleetSeed = 42;
constexpr double kLossyFraction = 0.3;

double SecondsOf(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
  return elapsed.count();
}

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
  std::printf("%8s %6s %7s %13s %10s %15s %9s %11s\n", "clients", "cuts", "solves",
              "envelope (s)", "analyses", "per-client (s)", "speedup", "mismatches");

  const FleetPartitionService service;
  size_t mismatches = 0;
  for (const int clients : {2000, 20000}) {
    FleetPopulationOptions population;
    population.client_count = clients;
    population.lossy_fraction = kLossyFraction;
    const std::vector<FleetClient> fleet = GenerateFleet(population, kFleetSeed);

    Result<FleetPlanResult> planned(InternalError("unset"));
    const double envelope_seconds = SecondsOf([&] { planned = service.Plan(*profile, fleet); });
    if (!planned.ok()) {
      std::fprintf(stderr, "plan: %s\n", planned.status().ToString().c_str());
      return 1;
    }

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
    std::printf("%8d %6zu %7zu %13.4f %10d %15.3f %8.0fx %11zu\n", clients,
                planned->breakpoints.size() + 1, planned->stats.plans_computed,
                envelope_seconds, clients, naive_seconds, naive_seconds / envelope_seconds,
                differ);
  }
  std::printf("\n%s\n", mismatches == 0
                            ? "every client's envelope placement equals its own analysis"
                            : "MISMATCH: envelope placements differ from per-client analyses");
  return mismatches == 0 ? 0 : 1;
}
