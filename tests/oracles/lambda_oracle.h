// Exact λ reference for the fleet's key-first lookup and median, linked
// only by the tests and bench_fleet — never by the coign binary or any
// production library.
//
// λ = seconds_per_byte / per_message_seconds is compared by __float128
// cross-products, sharing no code with src/analysis/envelope: a double's
// 53-bit mantissa times another's fits the 113-bit quad mantissa, and the
// product of any two finite doubles stays inside its exponent range, so
// spb_a·pm_b vs spb_b·pm_a is exact. A breakpoint num/den is compared as
// spb·den vs pm·num, exact while num and den are below 2^60.

#ifndef COIGN_TESTS_ORACLES_LAMBDA_ORACLE_H_
#define COIGN_TESTS_ORACLES_LAMBDA_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/analysis/envelope.h"
#include "src/sim/fleet_population.h"

namespace coign::lambda_oracle {

// Sign of spb_a / pm_a − spb_b / pm_b. Terms finite and > 0.
int CompareLambda(double spb_a, double pm_a, double spb_b, double pm_b);

// The number of `breakpoints` at or below λ = spb / pm: the index of the
// segment holding λ when the breakpoints are an envelope's, in order.
// Aborts on a breakpoint term of 2^60 or more, where it would not be exact.
size_t SegmentOf(const std::vector<LambdaRatio>& breakpoints, double spb, double pm);

// The client among `members` at position (n−1)/2 in (λ, id) order, λ
// taken at each client's loss-inflated link.
uint32_t MedianMember(const std::vector<FleetClient>& fleet, std::vector<uint32_t> members);

}  // namespace coign::lambda_oracle

#endif  // COIGN_TESTS_ORACLES_LAMBDA_ORACLE_H_
