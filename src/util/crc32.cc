#include "util/crc32.h"

#include <array>

namespace onex {
namespace {

/// Slicing-by-8 tables: kTables[0] is the classic bytewise table; entry
/// [k][i] is the CRC of byte i followed by k zero bytes, so eight table
/// lookups fold eight input bytes at once.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Tables MakeTables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
    }
  }
  return t;
}

constexpr Tables kTables = MakeTables();

/// Little-endian 32-bit load (the tables are for the reflected CRC, so
/// the low byte of the word is the first byte of the stream).
uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

uint32_t Crc32Update(uint32_t crc, const void* bytes, size_t n) {
  const auto* p = static_cast<const unsigned char*>(bytes);
  crc = ~crc;
  for (; n >= 8; n -= 8, p += 8) {
    const uint32_t lo = LoadLe32(p) ^ crc;
    const uint32_t hi = LoadLe32(p + 4);
    crc = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
          kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
          kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) {
    crc = kTables[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

uint32_t Crc32(const void* bytes, size_t n) {
  return Crc32Update(0, bytes, n);
}

}  // namespace onex
