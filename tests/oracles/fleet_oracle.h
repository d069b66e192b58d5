// Per-client reference for the fleet service, linked only by the tests —
// never by the coign binary or any production library.
//
// One Analyze per client at the client's own exact link with its steady
// drop rate charged (LossInflatedLink). The tests require every client's
// served placement to equal it, and every plan's analysis to equal
// Analyze at the link of the plan's median-λ member, field for field:
// the engine guarantees the exact optimum, and these equalities hold
// wherever Analyze's per-edge picosecond rounding does not reorder cuts.

#ifndef COIGN_TESTS_ORACLES_FLEET_ORACLE_H_
#define COIGN_TESTS_ORACLES_FLEET_ORACLE_H_

#include <string>
#include <vector>

#include "src/analysis/engine.h"
#include "src/fleet/service.h"
#include "src/profile/icc_profile.h"
#include "src/sim/fleet_population.h"
#include "src/support/status.h"

namespace coign::fleet_oracle {

// The fields in which two results differ, comma-separated; "" if none.
std::string DiffAnalysis(const AnalysisResult& expected, const AnalysisResult& actual);

// One line per client whose served placement differs from Analyze at its
// own link (or who is served no plan). Errors if an Analyze fails.
Result<std::vector<std::string>> MisplacedClients(const IccProfile& profile,
                                                  const std::vector<FleetClient>& fleet,
                                                  const FleetPlanResult& planned);

// One line per plan whose analysis differs from Analyze at the link of
// its median member in (λ, id) order (lambda_oracle::MedianMember).
Result<std::vector<std::string>> MispricedPlans(const IccProfile& profile,
                                                const std::vector<FleetClient>& fleet,
                                                const FleetPlanResult& planned);

}  // namespace coign::fleet_oracle

#endif  // COIGN_TESTS_ORACLES_FLEET_ORACLE_H_
