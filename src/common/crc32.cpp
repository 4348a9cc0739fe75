#include "common/crc32.h"

#include <array>
#include <vector>

namespace silence {
namespace {

// Slicing-by-8 tables: kTables[0] is the bytewise table (reflected
// polynomial 0xEDB88320); kTables[k][n] is the CRC of byte n followed by
// k zero bytes, so eight table lookups fold eight input bytes at once.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1U) ? 0xEDB88320U ^ (c >> 1) : c >> 1;
    }
    t[0][n] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t n = 0; n < 256; ++n) {
      t[k][n] = t[0][t[k - 1][n] & 0xFFU] ^ (t[k - 1][n] >> 8);
    }
  }
  return t;
}

constexpr auto kTables = make_tables();

std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  std::uint32_t c = 0xFFFFFFFFU;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; n -= 8, p += 8) {
    const std::uint32_t lo = load_le32(p) ^ c;
    const std::uint32_t hi = load_le32(p + 4);
    c = kTables[7][lo & 0xFFU] ^ kTables[6][(lo >> 8) & 0xFFU] ^
        kTables[5][(lo >> 16) & 0xFFU] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xFFU] ^ kTables[2][(hi >> 8) & 0xFFU] ^
        kTables[1][(hi >> 16) & 0xFFU] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) c = kTables[0][(c ^ *p) & 0xFFU] ^ (c >> 8);
  return c ^ 0xFFFFFFFFU;
}

void append_fcs(std::vector<std::uint8_t>& frame) {
  const std::uint32_t fcs = crc32(frame);
  for (int i = 0; i < 4; ++i) {
    frame.push_back(static_cast<std::uint8_t>((fcs >> (8 * i)) & 0xFFU));
  }
}

bool check_fcs(std::span<const std::uint8_t> frame) {
  if (frame.size() < 4) return false;
  const auto body = frame.first(frame.size() - 4);
  return crc32(body) == load_le32(frame.data() + body.size());
}

}  // namespace silence
