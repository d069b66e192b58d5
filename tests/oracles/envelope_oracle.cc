#include "tests/oracles/envelope_oracle.h"

#include <map>
#include <utility>

#include "src/graph/constraints.h"
#include "src/graph/icc_graph.h"

namespace coign::envelope_oracle {

Result<std::vector<EnvelopeSegment>> BruteForceEnvelope(const IccProfile& profile) {
  const LocationConstraints constraints = LocationConstraints::FromProfile(profile);
  const AbstractIccGraph abstract = AbstractIccGraph::FromProfile(profile);
  const std::vector<ClassificationId>& ids = abstract.nodes();
  // Bit i of a placement puts ids[i] on the server; the driver and any
  // undeclared endpoint stay on the client.
  const auto on_server = [&](uint64_t placement, ClassificationId id) {
    for (size_t i = 0; i < ids.size(); ++i) {
      if (ids[i] == id) {
        return ((placement >> i) & 1) != 0;
      }
    }
    return false;
  };

  // Every feasible line (M, B) and the intersection of its client sides.
  std::map<std::pair<uint64_t, uint64_t>, std::vector<bool>> lines;
  for (uint64_t placement = 0; placement < (uint64_t{1} << ids.size()); ++placement) {
    bool feasible = true;
    for (const auto& [id, machine] : constraints.absolute()) {
      feasible = feasible && on_server(placement, id) == (machine == kServerMachine);
    }
    for (const auto& [a, b] : constraints.colocated()) {
      feasible = feasible && on_server(placement, a) == on_server(placement, b);
    }
    uint64_t messages = 0;
    uint64_t bytes = 0;
    for (const AbstractIccGraph::Edge& edge : abstract.edges()) {
      if (on_server(placement, edge.a) == on_server(placement, edge.b)) {
        continue;
      }
      feasible = feasible && !edge.MustColocate();
      messages += edge.messages;
      bytes += edge.bytes;
    }
    if (!feasible) {
      continue;
    }
    std::vector<bool> client_side(ids.size() + 2, false);
    client_side[0] = true;
    for (size_t i = 0; i < ids.size(); ++i) {
      client_side[i + 2] = ((placement >> i) & 1) == 0;
    }
    auto [it, inserted] = lines.try_emplace({messages, bytes}, client_side);
    if (!inserted) {
      for (size_t node = 0; node < client_side.size(); ++node) {
        it->second[node] = it->second[node] && client_side[node];
      }
    }
  }
  if (lines.empty()) {
    return FailedPreconditionError("no placement satisfies the constraints");
  }

  // The map's first key is the fewest messages, then the fewest bytes:
  // the optimum as λ -> 0. Walk right from there.
  std::vector<EnvelopeSegment> segments;
  auto current = lines.begin();
  LambdaRatio from{0, 1};
  while (true) {
    auto next = lines.end();
    LambdaRatio meet{1, 0};
    for (auto it = lines.begin(); it != lines.end(); ++it) {
      if (it->first.second >= current->first.second) {
        continue;  // Only lines with fewer bytes take over as λ grows.
      }
      const LambdaRatio at{it->first.first - current->first.first,
                           current->first.second - it->first.second};
      if (next == lines.end() || at < meet ||
          (at == meet && it->first.second < next->first.second)) {
        next = it;
        meet = at;
      }
    }
    EnvelopeSegment segment;
    segment.from = from;
    segment.to = meet;
    segment.messages = current->first.first;
    segment.bytes = current->first.second;
    segment.client_side = current->second;
    segments.push_back(std::move(segment));
    if (next == lines.end()) {
      return segments;
    }
    current = next;
    from = meet;
  }
}

}  // namespace coign::envelope_oracle
