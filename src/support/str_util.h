// printf-style string formatting and joining helpers, and the one reader
// of the line-oriented text formats (profile logs, configuration records).

#ifndef COIGN_SRC_SUPPORT_STR_UTIL_H_
#define COIGN_SRC_SUPPORT_STR_UTIL_H_

#include <charconv>
#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <system_error>
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

// Parses all of `text` as one decimal number with std::from_chars: an
// unsigned type takes no sign, no type takes a '+', and trailing
// characters or overflow fail. *out is written only on success.
template <std::integral T>
bool ParseDecimal(std::string_view text, T* out) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) {
    return false;
  }
  *out = value;
  return true;
}

// The same for a double in fixed or scientific notation. It also takes
// "inf" and "nan", so callers check the range of what they read.
bool ParseDouble(std::string_view text, double* out);

// Parses "a:b:c", three decimal numbers by ParseDecimal's rules (the
// histogram bucket and descriptor token fields). False if any part fails.
template <std::integral A, std::integral B, std::integral C>
bool ParseColonTriple(std::string_view text, A* a, B* b, C* c) {
  const size_t first = text.find(':');
  if (first == std::string_view::npos) {
    return false;
  }
  const size_t second = text.find(':', first + 1);
  return second != std::string_view::npos && ParseDecimal(text.substr(0, first), a) &&
         ParseDecimal(text.substr(first + 1, second - first - 1), b) &&
         ParseDecimal(text.substr(second + 1), c);
}

// The lines of a text buffer, split on '\n' as std::getline splits them:
// a last line without a '\n' is still a line, and a final '\n' starts no
// new one.
class LineReader {
 public:
  explicit LineReader(std::string_view text) : text_(text) {}

  // Reads the next line, without its '\n'. False when none is left.
  bool Next(std::string_view* line);
  // The bytes after the last line read.
  std::string_view rest() const { return text_.substr(pos_); }

 private:
  std::string_view text_;
  size_t pos_ = 0;
};

// The fields of one line, split on runs of whitespace as `>>` splits them
// (space, \t, \n, \v, \f, \r).
class FieldReader {
 public:
  explicit FieldReader(std::string_view line) : rest_(line) {}

  // Reads the next field. False when the line has none left.
  bool Read(std::string_view* field);
  // Reads the next field as a number (ParseDecimal, ParseDouble).
  template <std::integral T>
  bool Read(T* value) {
    std::string_view field;
    return Read(&field) && ParseDecimal(field, value);
  }
  bool Read(double* value);
  // Whether every field has been read.
  bool AtEnd() const;
  // The unsplit rest of the line after the last field read.
  std::string_view rest() const { return rest_; }

 private:
  std::string_view rest_;
};

}  // namespace coign

#endif  // COIGN_SRC_SUPPORT_STR_UTIL_H_
