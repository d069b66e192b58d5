// Profile log files.
//
// "At the end of a profiling execution, Coign writes the inter-component
// communication profiles to a file for later analysis ... Log files from
// multiple profiling scenarios may be combined and summarized during later
// analysis." (paper §2)
//
// A line-oriented text format; loads merge naturally because IccProfile
// merges associatively. After the "coign-profile v1" line come the
// records, one a line, fields separated by whitespace:
//
//   classification <id> <clsid> <api_usage> <instances> <class name...>
//   alloc <id> <bytes>
//   compute <id> <seconds, %.9e>
//   call <src> <dst> <iid> <method> <non_remotable>
//        req [<bucket>:<count>:<bytes>]... ; rep [<bucket>:<count>:<bytes>]... ;
//
// The writer's order is canonical: each classification by ascending id,
// followed by its alloc and compute records, then one call record per key
// in the profile's pair-major order (PairMajorLess), buckets ascending. So
// SerializeProfile(*ParseProfile(log)) == log for every log it writes.
// The parser takes the records in any order that declares each
// classification before a record names it: a log whose call records are
// out of order (every log written before the order was fixed) or repeat
// a key loads the same profile, at the cost of one sort at the end.
//
// Both directions are one pass over a text buffer, with std::to_chars and
// std::from_chars; DESIGN.md ("Profile log format") lists what the parser
// rejects.

#ifndef COIGN_SRC_PROFILE_LOG_FILE_H_
#define COIGN_SRC_PROFILE_LOG_FILE_H_

#include <string>
#include <string_view>

#include "src/profile/icc_profile.h"
#include "src/support/status.h"

namespace coign {

// Serializes a profile to the log format.
std::string SerializeProfile(const IccProfile& profile);

// Parses a serialized profile. Any record that breaks the format is
// InvalidArgument "profile line N: malformed '<keyword>' record".
Result<IccProfile> ParseProfile(std::string_view text);

// File convenience wrappers.
Status WriteProfileFile(const IccProfile& profile, const std::string& path);
Result<IccProfile> ReadProfileFile(const std::string& path);

// Loads every path and merges them into one profile.
Result<IccProfile> MergeProfileFiles(const std::vector<std::string>& paths);

}  // namespace coign

#endif  // COIGN_SRC_PROFILE_LOG_FILE_H_
