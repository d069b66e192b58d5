#include "src/fleet/service.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/support/str_util.h"

namespace coign {
namespace {

bool FinitePositive(double value) { return std::isfinite(value) && value > 0.0; }

Status ValidateClient(const FleetClient& client, size_t index) {
  if (client.id != index) {
    return InvalidArgumentError(
        StrFormat("fleet client %zu: id %u, want %zu (ids must be 0..n-1 in order)", index,
                  client.id, index));
  }
  if (!FinitePositive(client.network.per_message_seconds)) {
    return InvalidArgumentError(
        StrFormat("fleet client %zu: per_message_seconds must be finite and > 0, got %g", index,
                  client.network.per_message_seconds));
  }
  if (!FinitePositive(client.network.bytes_per_second)) {
    return InvalidArgumentError(
        StrFormat("fleet client %zu: bytes_per_second must be finite and > 0, got %g", index,
                  client.network.bytes_per_second));
  }
  const double drop = client.fault_rates.drop;
  if (!(drop >= 0.0 && drop < 1.0)) {
    return InvalidArgumentError(
        StrFormat("fleet client %zu: drop rate must be in [0, 1), got %g", index, drop));
  }
  return Status::Ok();
}

}  // namespace

int FleetPlanResult::CohortIndexOf(uint32_t client_id) const {
  if (client_id >= client_plan_.size()) {
    return -1;
  }
  return client_plan_[client_id];
}

FleetPartitionService::FleetPartitionService(FleetServiceOptions options)
    : options_(options), engine_(options.analysis) {}

Result<FleetPlanResult> FleetPartitionService::Plan(const IccProfile& profile,
                                                    const std::vector<FleetClient>& fleet) const {
  if (fleet.empty()) {
    return InvalidArgumentError("fleet is empty");
  }
  // Each client's cut is priced at its own link with its steady drop rate
  // charged: both cost terms scale by 1/(1-p), which leaves λ in place.
  // The client's λ key is the quotient of the two charged terms.
  std::vector<LambdaKey> keys;
  keys.reserve(fleet.size());
  for (size_t i = 0; i < fleet.size(); ++i) {
    const Status valid = ValidateClient(fleet[i], i);
    if (!valid.ok()) {
      return valid;
    }
    const LinkTerms link = LossInflatedTerms(fleet[i]);
    if (!FinitePositive(link.per_message_seconds) || !FinitePositive(link.seconds_per_byte)) {
      return InvalidArgumentError(
          StrFormat("fleet client %zu: the loss-inflated link leaves the finite range", i));
    }
    keys.emplace_back(link.seconds_per_byte, link.per_message_seconds);
  }

  Result<CutEnvelope> envelope = engine_.Envelope(profile);
  if (!envelope.ok()) {
    return envelope.status();
  }
  const std::vector<EnvelopeSegment>& segments = envelope->segments();
  std::vector<std::vector<uint32_t>> members(segments.size());
  for (uint32_t id = 0; id < fleet.size(); ++id) {
    members[envelope->SegmentOf(keys[id])].push_back(id);
  }

  FleetPlanResult result;
  result.client_plan_.assign(fleet.size(), -1);
  for (size_t s = 0; s + 1 < segments.size(); ++s) {
    result.breakpoints.push_back(segments[s].to);
  }
  for (size_t s = 0; s < segments.size(); ++s) {
    if (members[s].empty()) {
      continue;
    }
    SegmentPlan plan;
    plan.lambda_from = segments[s].from;
    plan.lambda_to = segments[s].to;
    plan.messages = segments[s].messages;
    plan.bytes = segments[s].bytes;
    // Assemble at the median member's link, in (λ, id) order.
    std::vector<uint32_t> order = members[s];
    const auto median = order.begin() + static_cast<std::ptrdiff_t>((order.size() - 1) / 2);
    std::nth_element(order.begin(), median, order.end(), [&](uint32_t a, uint32_t b) {
      const int by_lambda = CompareLambda(keys[a], keys[b]);
      return by_lambda != 0 ? by_lambda < 0 : a < b;
    });
    plan.analysis =
        engine_.AnalyzeSegment(profile, *envelope, s, LossInflatedLink(fleet[*median]));
    for (uint32_t id : members[s]) {
      result.client_plan_[id] = static_cast<int>(result.plans.size());
    }
    plan.members = std::move(members[s]);
    result.plans.push_back(std::move(plan));
  }
  result.stats.clients = fleet.size();
  result.stats.cohorts = result.plans.size();
  result.stats.plans_computed = envelope->solves();

  if (options_.obs != nullptr) {
    Tracer& tracer = options_.obs->tracer();
    for (const SegmentPlan& plan : result.plans) {
      tracer.Instant("envelope-segment", "fleet", kTrackFleet,
                     {{"lambda_from", Tracer::ArgString(plan.lambda_from.ToString())},
                      {"lambda_to", Tracer::ArgString(plan.lambda_to.ToString())},
                      {"members", Tracer::ArgUint(plan.members.size())},
                      {"server_classifications",
                       Tracer::ArgUint(plan.analysis.server_classifications)},
                      {"messages", Tracer::ArgUint(plan.messages)},
                      {"bytes", Tracer::ArgUint(plan.bytes)}});
    }
    MetricsRegistry& metrics = options_.obs->metrics();
    metrics.GetCounter("fleet.plan_calls")->Add(1);
    metrics.GetCounter("fleet.clients")->Add(result.stats.clients);
    metrics.GetCounter("fleet.segments")->Add(result.stats.cohorts);
    metrics.GetCounter("fleet.solves")->Add(result.stats.plans_computed);
  }
  return result;
}

}  // namespace coign
