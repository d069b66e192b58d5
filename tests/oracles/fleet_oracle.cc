#include "tests/oracles/fleet_oracle.h"

#include "src/support/str_util.h"
#include "tests/oracles/lambda_oracle.h"

namespace coign::fleet_oracle {

std::string DiffAnalysis(const AnalysisResult& expected, const AnalysisResult& actual) {
  std::vector<std::string> fields;
  const auto check = [&](bool same, const char* field) {
    if (!same) {
      fields.push_back(field);
    }
  };
  check(expected.distribution.placement == actual.distribution.placement, "placement");
  check(expected.distribution.default_machine == actual.distribution.default_machine,
        "default_machine");
  check(expected.cut_value_units == actual.cut_value_units, "cut_value_units");
  check(expected.predicted_comm_seconds == actual.predicted_comm_seconds,
        "predicted_comm_seconds");
  check(expected.total_comm_seconds == actual.total_comm_seconds, "total_comm_seconds");
  check(expected.client_classifications == actual.client_classifications,
        "client_classifications");
  check(expected.server_classifications == actual.server_classifications,
        "server_classifications");
  check(expected.client_instances == actual.client_instances, "client_instances");
  check(expected.server_instances == actual.server_instances, "server_instances");
  check(expected.non_remotable_pairs == actual.non_remotable_pairs, "non_remotable_pairs");
  bool same_edges = expected.cut_edges.size() == actual.cut_edges.size();
  for (size_t i = 0; same_edges && i < expected.cut_edges.size(); ++i) {
    const CutEdgeReport& x = expected.cut_edges[i];
    const CutEdgeReport& y = actual.cut_edges[i];
    same_edges = x.client_side == y.client_side && x.server_side == y.server_side &&
                 x.seconds == y.seconds;
  }
  check(same_edges, "cut_edges");
  std::string joined;
  for (const std::string& field : fields) {
    joined += (joined.empty() ? "" : ", ") + field;
  }
  return joined;
}

Result<std::vector<std::string>> MisplacedClients(const IccProfile& profile,
                                                  const std::vector<FleetClient>& fleet,
                                                  const FleetPlanResult& planned) {
  const ProfileAnalysisEngine engine;
  std::vector<std::string> misplaced;
  for (const FleetClient& client : fleet) {
    Result<AnalysisResult> optimal = engine.Analyze(profile, LossInflatedLink(client));
    if (!optimal.ok()) {
      return optimal.status();
    }
    const int index = planned.CohortIndexOf(client.id);
    if (index < 0) {
      misplaced.push_back(StrFormat("client %u: no plan", client.id));
    } else if (planned.plans[static_cast<size_t>(index)].analysis.distribution.placement !=
               optimal->distribution.placement) {
      misplaced.push_back(StrFormat("client %u: served plan %d differs from its own cut",
                                    client.id, index));
    }
  }
  return misplaced;
}

Result<std::vector<std::string>> MispricedPlans(const IccProfile& profile,
                                                const std::vector<FleetClient>& fleet,
                                                const FleetPlanResult& planned) {
  const ProfileAnalysisEngine engine;
  std::vector<std::string> mispriced;
  for (size_t i = 0; i < planned.plans.size(); ++i) {
    const uint32_t median = lambda_oracle::MedianMember(fleet, planned.plans[i].members);
    Result<AnalysisResult> expected = engine.Analyze(profile, LossInflatedLink(fleet[median]));
    if (!expected.ok()) {
      return expected.status();
    }
    const std::string diff = DiffAnalysis(*expected, planned.plans[i].analysis);
    if (!diff.empty()) {
      mispriced.push_back(
          StrFormat("plan %zu (median client %u): %s", i, median, diff.c_str()));
    }
  }
  return mispriced;
}

}  // namespace coign::fleet_oracle
