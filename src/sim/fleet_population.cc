#include "src/sim/fleet_population.h"

#include <cmath>

namespace coign {

NetworkModel InflateForLoss(NetworkModel network, double drop_rate) {
  if (drop_rate <= 0.0) {
    return network;
  }
  const double inflation = 1.0 / (1.0 - drop_rate);
  network.per_message_seconds *= inflation;
  network.bytes_per_second /= inflation;
  return network;
}

NetworkProfile LossInflatedLink(const FleetClient& client) {
  return NetworkProfile::Exact(InflateForLoss(client.network, client.fault_rates.drop));
}

std::vector<FleetArchetype> DefaultFleetArchetypes() {
  // Weights sum to 1 for readability; GenerateFleet normalizes anyway.
  return {
      {NetworkModel::Isdn(), 0.30, 2.5},
      {NetworkModel::TenBaseT(), 0.30, 2.0},
      {NetworkModel::HundredBaseT(), 0.25, 2.0},
      {NetworkModel::Atm155(), 0.10, 1.7},
      {NetworkModel::San(), 0.05, 1.5},
  };
}

std::vector<FleetClient> GenerateFleet(const FleetPopulationOptions& options,
                                       uint64_t seed) {
  const std::vector<FleetArchetype> archetypes = DefaultFleetArchetypes();
  double total_weight = 0.0;
  for (const FleetArchetype& archetype : archetypes) {
    total_weight += archetype.weight;
  }

  std::vector<FleetClient> fleet;
  fleet.reserve(static_cast<size_t>(options.client_count));
  Rng rng(seed);
  for (int i = 0; i < options.client_count; ++i) {
    // Each client draws from its own forked stream so inserting a client
    // never shifts the parameters of every client after it.
    Rng client_rng = rng.Fork(static_cast<uint64_t>(i));
    double pick = client_rng.UniformDouble() * total_weight;
    const FleetArchetype* chosen = &archetypes.back();
    for (const FleetArchetype& archetype : archetypes) {
      pick -= archetype.weight;
      if (pick < 0.0) {
        chosen = &archetype;
        break;
      }
    }
    // Log-uniform in [1/spread, spread]: symmetric in ratio space, the
    // natural spread for quantities that vary by decades.
    const double log_spread = std::log(chosen->spread);
    const double latency_scale =
        std::exp(client_rng.UniformDouble(-log_spread, log_spread));
    const double bandwidth_scale =
        std::exp(client_rng.UniformDouble(-log_spread, log_spread));

    FleetClient client;
    client.id = static_cast<uint32_t>(i);
    client.archetype = chosen->base.name;
    client.network = chosen->base.Scaled(latency_scale, bandwidth_scale);
    client.network.name = chosen->base.name;
    if (options.lossy_fraction > 0.0 &&
        client_rng.UniformDouble() < options.lossy_fraction) {
      client.fault_rates.drop =
          std::exp(client_rng.UniformDouble(std::log(kFleetMinDropRate),
                                            std::log(kFleetMaxDropRate)));
    }
    fleet.push_back(std::move(client));
  }
  return fleet;
}

}  // namespace coign
