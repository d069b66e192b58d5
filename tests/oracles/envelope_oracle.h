// Brute-force reference for the exact cut envelope, linked only by the
// tests — never by the coign binary or any production library.
//
// It never solves a flow: it enumerates every placement of the profile's
// classifications that respects the default engine's constraints (API
// pins, colocations, non-remotable pairs; the driver on the client),
// prices each by the messages and bytes crossing it, and walks the lower
// envelope of their lines M + λB from λ = 0 upward, choosing at each step
// the line met first (the fewest bytes among ties). Exponential in the
// classification count: keep profiles at ~12 classifications or fewer.

#ifndef COIGN_TESTS_ORACLES_ENVELOPE_ORACLE_H_
#define COIGN_TESTS_ORACLES_ENVELOPE_ORACLE_H_

#include <vector>

#include "src/analysis/envelope.h"
#include "src/profile/icc_profile.h"
#include "src/support/status.h"

namespace coign::envelope_oracle {

// The reference segments in λ order. A segment's client_side is indexed
// like the concrete graph (client, server, then classifications by
// ascending id) and is the intersection of the client sides of every
// feasible placement on the segment's line. FailedPrecondition if no
// placement is feasible.
Result<std::vector<EnvelopeSegment>> BruteForceEnvelope(const IccProfile& profile);

}  // namespace coign::envelope_oracle

#endif  // COIGN_TESTS_ORACLES_ENVELOPE_ORACLE_H_
