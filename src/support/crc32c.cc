#include "src/support/crc32c.h"

#include <array>

namespace coign {
namespace {

// Table for the reflected Castagnoli polynomial. Built once via a magic
// static, so concurrent first calls are safe.
// 0x82F63B78 is 0x1EDC6F41 bit-reversed.
const std::array<uint32_t, 256>& Crc32cTable() {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc & 1u) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
      }
      t[i] = crc;
    }
    return t;
  }();
  return table;
}

uint32_t Update(uint32_t state, const unsigned char* bytes, size_t size) {
  const std::array<uint32_t, 256>& table = Crc32cTable();
  for (size_t i = 0; i < size; ++i) {
    state = table[(state ^ bytes[i]) & 0xFFu] ^ (state >> 8);
  }
  return state;
}

}  // namespace

uint32_t Crc32c(const void* data, size_t size) {
  const uint32_t state =
      Update(0xFFFFFFFFu, static_cast<const unsigned char*>(data), size);
  return state ^ 0xFFFFFFFFu;
}

uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t size) {
  const uint32_t state = Update(crc ^ 0xFFFFFFFFu,
                                static_cast<const unsigned char*>(data), size);
  return state ^ 0xFFFFFFFFu;
}

}  // namespace coign
