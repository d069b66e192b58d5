// 128-bit globally unique identifiers, the identity primitive of the
// component model (interface IDs, class IDs). Deterministic name-derived
// GUIDs keep every run reproducible without a central allocator, mirroring
// how COM IIDs/CLSIDs are fixed at compile time.

#ifndef COIGN_SRC_SUPPORT_GUID_H_
#define COIGN_SRC_SUPPORT_GUID_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "src/support/status.h"

namespace coign {

struct Guid {
  uint64_t hi = 0;
  uint64_t lo = 0;

  constexpr bool IsNull() const { return hi == 0 && lo == 0; }

  // Derives a GUID from a name via a 128-bit FNV-1a style hash. The same
  // name always produces the same GUID.
  static Guid FromName(std::string_view name);

  // "{0123456789abcdef-0123456789abcdef}".
  std::string ToString() const;
  // Appends the ToString() form to *out.
  void AppendTo(std::string* out) const;
  // Length of the ToString() form.
  static constexpr size_t kTextSize = 35;
  // Writes the ToString() form to out[0, kTextSize); returns the end.
  char* WriteTo(char* out) const;
  static Result<Guid> Parse(std::string_view text);

  friend constexpr bool operator==(const Guid& a, const Guid& b) {
    return a.hi == b.hi && a.lo == b.lo;
  }
  friend constexpr auto operator<=>(const Guid& a, const Guid& b) = default;
};

struct GuidHash {
  size_t operator()(const Guid& g) const {
    // hi and lo are already well-mixed hash output; fold them.
    return static_cast<size_t>(g.hi ^ (g.lo * 0x9e3779b97f4a7c15ull));
  }
};

}  // namespace coign

template <>
struct std::hash<coign::Guid> {
  size_t operator()(const coign::Guid& g) const { return coign::GuidHash{}(g); }
};

#endif  // COIGN_SRC_SUPPORT_GUID_H_
