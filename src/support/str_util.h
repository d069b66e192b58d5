// printf-style string formatting and joining helpers.

#ifndef COIGN_SRC_SUPPORT_STR_UTIL_H_
#define COIGN_SRC_SUPPORT_STR_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace coign {

// printf into a std::string.
std::string StrFormat(const char* format, ...) __attribute__((format(printf, 1, 2)));

std::string JoinStrings(const std::vector<std::string>& parts, std::string_view sep);

// Splits on a single-character separator; keeps empty fields.
std::vector<std::string> SplitString(std::string_view text, char sep);

bool StartsWith(std::string_view text, std::string_view prefix);

// Human-readable byte counts: "512 B", "4.0 KB", "3.2 MB".
std::string FormatBytes(uint64_t bytes);

// Parses exactly `digits` (1..16) lowercase hex digits into *out — the
// form the storage formats write. Anything else (another length,
// uppercase, a sign, whitespace) is rejected and leaves *out unchanged, so
// a damaged field never parses as a valid one.
bool ParseLowerHex(std::string_view text, size_t digits, uint64_t* out);

}  // namespace coign

#endif  // COIGN_SRC_SUPPORT_STR_UTIL_H_
