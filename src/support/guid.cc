#include "src/support/guid.h"

namespace coign {
namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

uint64_t Fnv1a(std::string_view data, uint64_t seed) {
  uint64_t h = kFnvOffset ^ seed;
  for (char c : data) {
    h ^= static_cast<uint8_t>(c);
    h *= kFnvPrime;
  }
  // Final avalanche (splitmix64 finalizer) to spread low-entropy names.
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 31;
  return h;
}

int HexValue(char c) {
  if (c >= '0' && c <= '9') {
    return c - '0';
  }
  if (c >= 'a' && c <= 'f') {
    return c - 'a' + 10;
  }
  if (c >= 'A' && c <= 'F') {
    return c - 'A' + 10;
  }
  return -1;
}

Result<uint64_t> ParseHex64(std::string_view text) {
  if (text.size() != 16) {
    return InvalidArgumentError("expected 16 hex digits");
  }
  uint64_t value = 0;
  for (char c : text) {
    int digit = HexValue(c);
    if (digit < 0) {
      return InvalidArgumentError("invalid hex digit in GUID");
    }
    value = (value << 4) | static_cast<uint64_t>(digit);
  }
  return value;
}

}  // namespace

Guid Guid::FromName(std::string_view name) {
  Guid g;
  g.hi = Fnv1a(name, /*seed=*/0);
  g.lo = Fnv1a(name, /*seed=*/0x5bd1e995u);
  if (g.IsNull()) {
    g.lo = 1;  // Never collide with the null GUID.
  }
  return g;
}

std::string Guid::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

void Guid::AppendTo(std::string* out) const {
  char buf[kTextSize];
  out->append(buf, WriteTo(buf));
}

char* Guid::WriteTo(char* out) const {
  constexpr char kDigits[] = "0123456789abcdef";
  out[0] = '{';
  out[17] = '-';
  out[34] = '}';
  for (int i = 0; i < 16; ++i) {
    const int shift = 60 - 4 * i;
    out[1 + i] = kDigits[(hi >> shift) & 0xf];
    out[18 + i] = kDigits[(lo >> shift) & 0xf];
  }
  return out + kTextSize;
}

Result<Guid> Guid::Parse(std::string_view text) {
  // Format: {16 hex}-{16 hex} inside braces, 35 chars total.
  if (text.size() != 35 || text.front() != '{' || text.back() != '}' ||
      text[17] != '-') {
    return InvalidArgumentError("malformed GUID literal");
  }
  Result<uint64_t> hi = ParseHex64(text.substr(1, 16));
  if (!hi.ok()) {
    return hi.status();
  }
  Result<uint64_t> lo = ParseHex64(text.substr(18, 16));
  if (!lo.ok()) {
    return lo.status();
  }
  return Guid{*hi, *lo};
}

}  // namespace coign
