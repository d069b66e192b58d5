// Simulated client fleets for the fleet partitioning service.
//
// The paper computes one distribution for one client/server pair over one
// measured network (§2). Serving a large deployed population means every
// client arrives with its own measured network — the same application runs
// over ISDN dial-ups, office Ethernet, and datacenter SANs at once, and no
// single cut is right for all of them. This generator draws a seeded
// population of clients whose link parameters come from the preset
// archetypes spread by a per-client multiplicative factor (real fleets
// cluster around link classes but no two DSL lines measure identically).
// Everything is deterministic per seed so fleet experiments replay
// bit-for-bit.

#ifndef COIGN_SRC_SIM_FLEET_POPULATION_H_
#define COIGN_SRC_SIM_FLEET_POPULATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/fault/fault_schedule.h"
#include "src/net/network_model.h"
#include "src/net/network_profiler.h"
#include "src/support/rng.h"

namespace coign {

// One simulated client: an identity plus its measured link parameters and
// measured steady-state fault rates (a clean link leaves them zero).
struct FleetClient {
  uint32_t id = 0;
  std::string archetype;  // Preset the link was drawn from, for reports.
  NetworkModel network;
  FaultRates fault_rates;
};

// An archetype is a link class with a population share and a spread: a
// client drawn from it scales the preset's latency and bandwidth by
// independent log-uniform factors in [1/spread, spread].
struct FleetArchetype {
  NetworkModel base;
  double weight = 1.0;
  double spread = 2.0;
};

// A lossy client's steady drop rate is drawn log-uniformly from
// [kFleetMinDropRate, kFleetMaxDropRate].
inline constexpr double kFleetMinDropRate = 1e-4;
inline constexpr double kFleetMaxDropRate = 3e-2;

struct FleetPopulationOptions {
  int client_count = 2000;
  // Fraction of clients whose link drops packets. Loss is drawn after the
  // link parameters on each client's forked stream, so turning it on
  // never changes anyone's latency or bandwidth, and the default 0
  // reproduces pre-loss fleets byte-for-byte.
  double lossy_fraction = 0.0;
};

// A link's two cost terms.
struct LinkTerms {
  double per_message_seconds = 0.0;
  double seconds_per_byte = 0.0;
};

// The one loss charge: a client's link terms with its steady drop rate
// charged, seconds_per_byte being 1 / the inflated bandwidth. A drop rate
// p costs each message 1/(1-p) expected transmissions: latency inflates by
// that factor, effective bandwidth deflates by it. Both cost terms scale
// alike, so loss never moves a cut.
LinkTerms LossInflatedTerms(const FleetClient& client);

// The link a client's cut is priced at: LossInflatedTerms as an exact
// profile named after the client's network.
NetworkProfile LossInflatedLink(const FleetClient& client);

// The default mix: a consumer-heavy population across the five presets,
// dominated by slow links (where partitioning matters most) with a long
// fast-network tail.
std::vector<FleetArchetype> DefaultFleetArchetypes();

// Draws `options.client_count` clients from DefaultFleetArchetypes(),
// deterministically from `seed`.
// Clients are returned in id order; the same (options, seed) always
// produces the identical population.
std::vector<FleetClient> GenerateFleet(const FleetPopulationOptions& options,
                                       uint64_t seed);

}  // namespace coign

#endif  // COIGN_SRC_SIM_FLEET_POPULATION_H_
