// CRC-32 as used by IEEE 802.3/802.11 for the frame check sequence (FCS).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace silence {

// Standard reflected CRC-32 (polynomial 0x04C11DB7, init 0xFFFFFFFF,
// final XOR 0xFFFFFFFF). Matches zlib's crc32(). Slicing-by-8: eight
// octets per step through eight 256-entry tables, equal to the one-table
// bytewise loop (phy/bit_reference.h) on every input.
std::uint32_t crc32(std::span<const std::uint8_t> data);

// Appends the 4 FCS octets (little-endian CRC-32) to `frame`.
void append_fcs(std::vector<std::uint8_t>& frame);

// True when the final 4 octets of `frame` are the valid FCS of the rest.
bool check_fcs(std::span<const std::uint8_t> frame);

}  // namespace silence
