#include "common/crc32.h"

#include <array>
#include <cstring>

namespace crimson {

namespace {

/// Slice-by-8 tables for CRC32 (IEEE 802.3 polynomial, reflected),
/// built once. Row 0 is the classic byte-at-a-time table; row k
/// advances a byte's contribution past k further zero bytes, so eight
/// lookups fold in eight input bytes at once.
using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

const Crc32Tables& Tables() {
  static const Crc32Tables tables = [] {
    Crc32Tables t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (size_t k = 1; k < 8; ++k) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
      }
    }
    return t;
  }();
  return tables;
}

/// Four input bytes as a little-endian word: the reflected CRC consumes
/// the lowest-addressed byte first.
inline uint32_t LoadLE32(const char* p) {
  uint32_t v = 0;
  memcpy(&v, p, sizeof(v));
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  v = __builtin_bswap32(v);
#endif
  return v;
}

}  // namespace

uint32_t Crc32(const char* data, size_t n, uint32_t seed) {
  const Crc32Tables& t = Tables();
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; n >= 8; data += 8, n -= 8) {
    uint32_t lo = LoadLE32(data) ^ c;
    uint32_t hi = LoadLE32(data + 4);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
        t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++data, --n) {
    c = t[0][(c ^ static_cast<uint8_t>(*data)) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace crimson
