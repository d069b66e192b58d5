#include "src/support/str_util.h"

#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstring>

namespace coign {

std::string StrFormat(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, format, args);
  va_end(args);
  if (needed <= 0) {
    va_end(args_copy);
    return std::string();
  }
  std::string out(static_cast<size_t>(needed), '\0');
  std::vsnprintf(out.data(), out.size() + 1, format, args_copy);
  va_end(args_copy);
  return out;
}

std::string JoinStrings(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) {
      out += sep;
    }
    out += parts[i];
  }
  return out;
}

std::vector<std::string> SplitString(std::string_view text, char sep) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (true) {
    const size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      parts.emplace_back(text.substr(start));
      return parts;
    }
    parts.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

std::string FormatBytes(uint64_t bytes) {
  constexpr const char* kUnits[] = {"B", "KB", "MB", "GB", "TB"};
  double value = static_cast<double>(bytes);
  size_t unit = 0;
  while (value >= 1024.0 && unit + 1 < std::size(kUnits)) {
    value /= 1024.0;
    ++unit;
  }
  if (unit == 0) {
    return StrFormat("%llu B", static_cast<unsigned long long>(bytes));
  }
  return StrFormat("%.1f %s", value, kUnits[unit]);
}

bool ParseLowerHex(std::string_view text, size_t digits, uint64_t* out) {
  if (digits == 0 || digits > 16 || text.size() != digits) {
    return false;
  }
  uint64_t value = 0;
  for (const char c : text) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else {
      return false;
    }
    value = (value << 4) | static_cast<uint64_t>(digit);
  }
  *out = value;
  return true;
}

bool ParseDouble(std::string_view text, double* out) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) {
    return false;
  }
  *out = value;
  return true;
}

bool LineReader::Next(std::string_view* line) {
  if (pos_ == text_.size()) {
    return false;
  }
  const std::string_view rest = text_.substr(pos_);
  const char* newline = static_cast<const char*>(std::memchr(rest.data(), '\n', rest.size()));
  if (newline == nullptr) {
    *line = rest;
    pos_ = text_.size();
  } else {
    *line = rest.substr(0, static_cast<size_t>(newline - rest.data()));
    pos_ += line->size() + 1;
  }
  return true;
}

namespace {

// std::isspace in the "C" locale: what `>>` skips between fields.
bool IsFieldSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

}  // namespace

bool FieldReader::Read(std::string_view* field) {
  size_t start = 0;
  while (start < rest_.size() && IsFieldSpace(rest_[start])) {
    ++start;
  }
  size_t end = start;
  while (end < rest_.size() && !IsFieldSpace(rest_[end])) {
    ++end;
  }
  if (start == end) {
    return false;
  }
  *field = rest_.substr(start, end - start);
  rest_.remove_prefix(end);
  return true;
}

bool FieldReader::Read(double* value) {
  std::string_view field;
  return Read(&field) && ParseDouble(field, value);
}

bool FieldReader::AtEnd() const {
  for (const char c : rest_) {
    if (!IsFieldSpace(c)) {
      return false;
    }
  }
  return true;
}

}  // namespace coign
