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
