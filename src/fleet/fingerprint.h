// Deterministic content fingerprints of ICC profiles.
//
// `coign fleet` prints it to name the profile a fleet was planned from: a
// re-profiled application changes it. The fingerprint folds the complete
// analysis input — classifications, compute seconds, and per-call
// histograms — in sorted key order, so it is independent of hash-map
// iteration order and of the order scenarios were profiled in.

#ifndef COIGN_SRC_FLEET_FINGERPRINT_H_
#define COIGN_SRC_FLEET_FINGERPRINT_H_

#include <cstdint>

#include "src/profile/icc_profile.h"

namespace coign {

// 64-bit FNV-1a over the profile's sorted content. Equal profiles always
// collide; unequal ones collide with 2^-64 probability.
uint64_t ProfileFingerprint(const IccProfile& profile);

}  // namespace coign

#endif  // COIGN_SRC_FLEET_FINGERPRINT_H_
