#include "src/sim/fleet_population.h"

#include <cmath>

namespace coign {

namespace {

// Charges `drop_rate` to a link's two terms in place.
void ChargeLoss(double drop_rate, double& per_message_seconds, double& bytes_per_second) {
  if (drop_rate <= 0.0) {
    return;
  }
  const double inflation = 1.0 / (1.0 - drop_rate);
  per_message_seconds *= inflation;
  bytes_per_second /= inflation;
}

}  // namespace

NetworkModel InflateForLoss(NetworkModel network, double drop_rate) {
  ChargeLoss(drop_rate, network.per_message_seconds, network.bytes_per_second);
  return network;
}

LinkTerms LossInflatedTerms(const FleetClient& client) {
  // The two doubles alone: copying the model would copy its name.
  double per_message_seconds = client.network.per_message_seconds;
  double bytes_per_second = client.network.bytes_per_second;
  ChargeLoss(client.fault_rates.drop, per_message_seconds, bytes_per_second);
  return {per_message_seconds, 1.0 / bytes_per_second};
}

NetworkProfile LossInflatedLink(const FleetClient& client) {
  const LinkTerms terms = LossInflatedTerms(client);
  NetworkProfile link;
  link.network_name = client.network.name;
  link.per_message_seconds = terms.per_message_seconds;
  link.seconds_per_byte = terms.seconds_per_byte;
  link.fit_r_squared = 1.0;
  return link;
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
