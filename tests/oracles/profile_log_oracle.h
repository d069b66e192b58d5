// Differential oracle for the profile log codec, linked only by the tests
// — never by the coign binary or any production library.
//
// These are the stream-and-printf ParseProfile and SerializeProfile that
// the one-pass codec in src/profile/log_file.cc replaced, kept unchanged.
// The codec must write the same bytes for every profile. Every log it
// accepts, this parser must accept too, and the two parses must
// re-serialize to the same bytes (which also pins calls() order). The
// codec may reject more: this parser lets `>>` and `%llu` wrap negative
// numbers into unsigned fields, ignores trailing characters, and does no
// structural checks.

#ifndef COIGN_TESTS_ORACLES_PROFILE_LOG_ORACLE_H_
#define COIGN_TESTS_ORACLES_PROFILE_LOG_ORACLE_H_

#include <string>

#include "src/profile/icc_profile.h"
#include "src/support/status.h"

namespace coign::profile_log_oracle {

// One StrFormat per line and per histogram bucket.
std::string SerializeProfile(const IccProfile& profile);

// One istringstream per line, one sscanf per histogram field.
Result<IccProfile> ParseProfile(const std::string& text);

}  // namespace coign::profile_log_oracle

#endif  // COIGN_TESTS_ORACLES_PROFILE_LOG_ORACLE_H_
