// Stable byte hashing for the fault layer and the checkpoint journal.
//
// FNV-1a is used everywhere a key must hash identically across runs,
// platforms and standard libraries: the fault injector's per-URL decision
// seeding depends on the exact 64-bit value, so std::hash (unspecified) is
// not an option.
#pragma once

#include <cstdint>
#include <string_view>

namespace eab {

/// 64-bit FNV-1a over a byte string.
constexpr std::uint64_t fnv1a_64(std::string_view bytes) {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320) over a byte string.  The
/// checkpoint journal frames every record with this so a torn or corrupted
/// tail is detected byte-for-byte on recovery; like fnv1a_64 the exact value
/// must be identical across runs and platforms.  Pass a previous return
/// value as `seed` to checksum a record in pieces.
constexpr std::uint32_t crc32(std::string_view bytes, std::uint32_t seed = 0) {
  std::uint32_t crc = ~seed;
  for (const char c : bytes) {
    crc ^= static_cast<unsigned char>(c);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
  }
  return ~crc;
}

}  // namespace eab
