// Differential oracles for the profile log codec, linked only by the tests
// — never by the coign binary or any production library.
//
// Two earlier codecs, kept unchanged apart from recording through
// IccProfileBuilder (IccProfile itself no longer records):
//
//  * The stream-and-printf ParseProfile and SerializeProfile that the
//    one-pass codec replaced. The codec must write the same bytes for
//    every profile. Every log the codec accepts, this parser must accept
//    too, and the two parses must re-serialize to the same bytes. The
//    codec may reject more: this parser lets `>>` and `%llu` wrap negative
//    numbers into unsigned fields, ignores trailing characters, and does
//    no structural checks.
//  * HashMapParseProfile, the one-pass parser as it was before the loader
//    wrote the profile's sorted tables directly: the same record reader,
//    each record merged into a hash-indexed profile. The loader must
//    accept exactly what it accepts, reject with the same message, and
//    load an equal profile.

#ifndef COIGN_TESTS_ORACLES_PROFILE_LOG_ORACLE_H_
#define COIGN_TESTS_ORACLES_PROFILE_LOG_ORACLE_H_

#include <string>
#include <string_view>

#include "src/profile/icc_profile.h"
#include "src/support/status.h"

namespace coign::profile_log_oracle {

// One StrFormat per line and per histogram bucket.
std::string SerializeProfile(const IccProfile& profile);

// One istringstream per line, one sscanf per histogram field.
Result<IccProfile> ParseProfile(const std::string& text);

// One pass with std::from_chars; every record into an IccProfileBuilder.
Result<IccProfile> HashMapParseProfile(std::string_view text);

}  // namespace coign::profile_log_oracle

#endif  // COIGN_TESTS_ORACLES_PROFILE_LOG_ORACLE_H_
