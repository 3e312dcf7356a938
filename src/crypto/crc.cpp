#include "crypto/crc.hpp"

#include <array>

namespace drmp::crypto {
namespace {

/// Slice-by-8 tables: t[0] is the classic bytewise table; t[k][b] is the
/// register contribution of byte b followed by k zero bytes, so eight
/// lookups fold eight input bytes at once.
constexpr std::array<std::array<u32, 256>, 8> make_crc32_tables() {
  std::array<std::array<u32, 256>, 8> t{};
  for (u32 i = 0; i < 256; ++i) {
    u32 c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

/// Little-endian 32-bit load, independent of the host's byte order.
inline u32 load_le32(const u8* p) noexcept {
  return static_cast<u32>(p[0]) | static_cast<u32>(p[1]) << 8 |
         static_cast<u32>(p[2]) << 16 | static_cast<u32>(p[3]) << 24;
}

constexpr std::array<u16, 256> make_crc16_table() {
  std::array<u16, 256> t{};
  for (u16 i = 0; i < 256; ++i) {
    u16 c = static_cast<u16>(i << 8);
    for (int k = 0; k < 8; ++k) {
      c = static_cast<u16>((c & 0x8000) ? ((c << 1) ^ 0x1021) : (c << 1));
    }
    t[i] = c;
  }
  return t;
}

constexpr std::array<u8, 256> make_crc8_table() {
  std::array<u8, 256> t{};
  for (u16 i = 0; i < 256; ++i) {
    u8 c = static_cast<u8>(i);
    for (int k = 0; k < 8; ++k) {
      c = static_cast<u8>((c & 0x80) ? ((c << 1) ^ 0x07) : (c << 1));
    }
    t[i] = c;
  }
  return t;
}

constexpr auto kCrc32Tables = make_crc32_tables();
const auto kCrc16Table = make_crc16_table();
const auto kCrc8Table = make_crc8_table();

}  // namespace

void Crc32::update(u8 byte) noexcept {
  state_ = kCrc32Tables[0][(state_ ^ byte) & 0xFFu] ^ (state_ >> 8);
}

void Crc32::update(std::span<const u8> bytes) noexcept {
  const auto& t = kCrc32Tables;
  const u8* p = bytes.data();
  std::size_t n = bytes.size();
  u32 c = state_;
  for (; n >= 8; p += 8, n -= 8) {
    const u32 lo = c ^ load_le32(p);
    const u32 hi = load_le32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
        t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  state_ = c;
}

u32 Crc32::compute(std::span<const u8> bytes) noexcept {
  Crc32 c;
  c.update(bytes);
  return c.value();
}

void Crc16Ccitt::update(u8 byte) noexcept {
  state_ = static_cast<u16>(kCrc16Table[((state_ >> 8) ^ byte) & 0xFFu] ^ (state_ << 8));
}

void Crc16Ccitt::update(std::span<const u8> bytes) noexcept {
  for (u8 b : bytes) update(b);
}

u16 Crc16Ccitt::compute(std::span<const u8> bytes) noexcept {
  Crc16Ccitt c;
  c.update(bytes);
  return c.value();
}

void Crc8::update(u8 byte) noexcept { state_ = kCrc8Table[state_ ^ byte]; }

void Crc8::update(std::span<const u8> bytes) noexcept {
  for (u8 b : bytes) update(b);
}

u8 Crc8::compute(std::span<const u8> bytes) noexcept {
  Crc8 c;
  c.update(bytes);
  return c.value();
}

}  // namespace drmp::crypto
