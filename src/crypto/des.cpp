#include "crypto/des.hpp"

#include <bit>

namespace drmp::crypto {
namespace {

// Standard DES tables (FIPS 46-3). Bit numbering is 1-based from the MSB as
// in the standard.
constexpr int kIp[64] = {58, 50, 42, 34, 26, 18, 10, 2,  60, 52, 44, 36, 28, 20, 12, 4,
                         62, 54, 46, 38, 30, 22, 14, 6,  64, 56, 48, 40, 32, 24, 16, 8,
                         57, 49, 41, 33, 25, 17, 9,  1,  59, 51, 43, 35, 27, 19, 11, 3,
                         61, 53, 45, 37, 29, 21, 13, 5,  63, 55, 47, 39, 31, 23, 15, 7};

constexpr int kFp[64] = {40, 8, 48, 16, 56, 24, 64, 32, 39, 7, 47, 15, 55, 23, 63, 31,
                         38, 6, 46, 14, 54, 22, 62, 30, 37, 5, 45, 13, 53, 21, 61, 29,
                         36, 4, 44, 12, 52, 20, 60, 28, 35, 3, 43, 11, 51, 19, 59, 27,
                         34, 2, 42, 10, 50, 18, 58, 26, 33, 1, 41, 9,  49, 17, 57, 25};

constexpr int kP[32] = {16, 7, 20, 21, 29, 12, 28, 17, 1,  15, 23, 26, 5,  18, 31, 10,
                        2,  8, 24, 14, 32, 27, 3,  9,  19, 13, 30, 6,  22, 11, 4,  25};

constexpr int kPc1[56] = {57, 49, 41, 33, 25, 17, 9,  1,  58, 50, 42, 34, 26, 18,
                          10, 2,  59, 51, 43, 35, 27, 19, 11, 3,  60, 52, 44, 36,
                          63, 55, 47, 39, 31, 23, 15, 7,  62, 54, 46, 38, 30, 22,
                          14, 6,  61, 53, 45, 37, 29, 21, 13, 5,  28, 20, 12, 4};

constexpr int kPc2[48] = {14, 17, 11, 24, 1,  5,  3,  28, 15, 6,  21, 10, 23, 19, 12, 4,
                          26, 8,  16, 7,  27, 20, 13, 2,  41, 52, 31, 37, 47, 55, 30, 40,
                          51, 45, 33, 48, 44, 49, 39, 56, 34, 53, 46, 42, 50, 36, 29, 32};

constexpr int kShifts[16] = {1, 1, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 1};

constexpr u8 kSboxes[8][64] = {
    {14, 4, 13, 1, 2, 15, 11, 8, 3, 10, 6, 12, 5, 9, 0, 7, 0, 15, 7, 4, 14, 2, 13, 1, 10, 6,
     12, 11, 9, 5, 3, 8, 4, 1, 14, 8, 13, 6, 2, 11, 15, 12, 9, 7, 3, 10, 5, 0, 15, 12, 8, 2,
     4, 9, 1, 7, 5, 11, 3, 14, 10, 0, 6, 13},
    {15, 1, 8, 14, 6, 11, 3, 4, 9, 7, 2, 13, 12, 0, 5, 10, 3, 13, 4, 7, 15, 2, 8, 14, 12, 0,
     1, 10, 6, 9, 11, 5, 0, 14, 7, 11, 10, 4, 13, 1, 5, 8, 12, 6, 9, 3, 2, 15, 13, 8, 10, 1,
     3, 15, 4, 2, 11, 6, 7, 12, 0, 5, 14, 9},
    {10, 0, 9, 14, 6, 3, 15, 5, 1, 13, 12, 7, 11, 4, 2, 8, 13, 7, 0, 9, 3, 4, 6, 10, 2, 8,
     5, 14, 12, 11, 15, 1, 13, 6, 4, 9, 8, 15, 3, 0, 11, 1, 2, 12, 5, 10, 14, 7, 1, 10, 13, 0,
     6, 9, 8, 7, 4, 15, 14, 3, 11, 5, 2, 12},
    {7, 13, 14, 3, 0, 6, 9, 10, 1, 2, 8, 5, 11, 12, 4, 15, 13, 8, 11, 5, 6, 15, 0, 3, 4, 7,
     2, 12, 1, 10, 14, 9, 10, 6, 9, 0, 12, 11, 7, 13, 15, 1, 3, 14, 5, 2, 8, 4, 3, 15, 0, 6,
     10, 1, 13, 8, 9, 4, 5, 11, 12, 7, 2, 14},
    {2, 12, 4, 1, 7, 10, 11, 6, 8, 5, 3, 15, 13, 0, 14, 9, 14, 11, 2, 12, 4, 7, 13, 1, 5, 0,
     15, 10, 3, 9, 8, 6, 4, 2, 1, 11, 10, 13, 7, 8, 15, 9, 12, 5, 6, 3, 0, 14, 11, 8, 12, 7,
     1, 14, 2, 13, 6, 15, 0, 9, 10, 4, 5, 3},
    {12, 1, 10, 15, 9, 2, 6, 8, 0, 13, 3, 4, 14, 7, 5, 11, 10, 15, 4, 2, 7, 12, 9, 5, 6, 1,
     13, 14, 0, 11, 3, 8, 9, 14, 15, 5, 2, 8, 12, 3, 7, 0, 4, 10, 1, 13, 11, 6, 4, 3, 2, 12,
     9, 5, 15, 10, 11, 14, 1, 7, 6, 0, 8, 13},
    {4, 11, 2, 14, 15, 0, 8, 13, 3, 12, 9, 7, 5, 10, 6, 1, 13, 0, 11, 7, 4, 9, 1, 10, 14, 3,
     5, 12, 2, 15, 8, 6, 1, 4, 11, 13, 12, 3, 7, 14, 10, 15, 6, 8, 0, 5, 9, 2, 6, 11, 13, 8,
     1, 4, 10, 7, 9, 5, 0, 15, 14, 2, 3, 12},
    {13, 2, 8, 4, 6, 15, 11, 1, 10, 9, 3, 14, 5, 0, 12, 7, 1, 15, 13, 8, 10, 3, 7, 4, 12, 5,
     6, 11, 0, 14, 9, 2, 7, 11, 4, 1, 9, 12, 14, 2, 0, 6, 10, 13, 15, 3, 5, 8, 2, 1, 14, 7,
     4, 10, 8, 13, 15, 12, 9, 0, 3, 5, 6, 11}};

// ---- Table-driven round machinery, built at compile time ----
// Every DES permutation is linear over GF(2), so a bit permutation of a word
// is the OR of the permutations of its bytes: IP and FP become eight 256-
// entry lookups. The f-function's S-box substitution and the P permutation
// that follows it fuse into one 64-entry table per S-box, indexed directly
// by the box's six input bits.

/// Permutes `in` (in_bits wide, bit 1 = MSB) through `table` of size n.
constexpr u64 permute(u64 in, int in_bits, const int* table, int n) {
  u64 out = 0;
  for (int i = 0; i < n; ++i) {
    out = (out << 1) | ((in >> (in_bits - table[i])) & 1);
  }
  return out;
}

using ByteTables = std::array<std::array<u64, 256>, 8>;

/// tab[b][v] = the 64-bit permutation of a word whose byte b (0 = most
/// significant) is v and every other byte is zero.
constexpr ByteTables byte_sliced(const int* table) {
  ByteTables tab{};
  for (int b = 0; b < 8; ++b) {
    for (int v = 0; v < 256; ++v) {
      tab[b][v] = permute(static_cast<u64>(v) << (56 - 8 * b), 64, table, 64);
    }
  }
  return tab;
}

/// sp[i][six] = P(S_i(six) placed at box i's nibble), `six` being the box's
/// six input bits in E-expansion order (row = outer bits, column = inner).
constexpr std::array<std::array<u32, 64>, 8> sp_tables() {
  std::array<std::array<u32, 64>, 8> sp{};
  for (int i = 0; i < 8; ++i) {
    for (int six = 0; six < 64; ++six) {
      const int row = ((six & 0x20) >> 4) | (six & 1);
      const int col = (six >> 1) & 0xF;
      const u64 s = static_cast<u64>(kSboxes[i][row * 16 + col]) << (28 - 4 * i);
      sp[i][six] = static_cast<u32>(permute(s, 32, kP, 32));
    }
  }
  return sp;
}

constexpr ByteTables kIpTab = byte_sliced(kIp);
constexpr ByteTables kFpTab = byte_sliced(kFp);
constexpr std::array<std::array<u32, 64>, 8> kSp = sp_tables();

u64 permute_bytes(u64 in, const ByteTables& tab) {
  u64 out = 0;
  for (int b = 0; b < 8; ++b) out |= tab[b][(in >> (56 - 8 * b)) & 0xFF];
  return out;
}

u64 bytes_to_u64(std::span<const u8> b) {
  u64 v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | b[i];
  return v;
}

void u64_to_bytes(u64 v, std::span<u8> b) {
  for (int i = 7; i >= 0; --i) {
    b[i] = static_cast<u8>(v & 0xFF);
    v >>= 8;
  }
}

u32 feistel(u32 r, u64 subkey) {
  // E-expansion without a table: S-box i reads R bits 4i..4i+5 (1-based,
  // wrapping 0 -> 32 and 33 -> 1), which one rotate brings to the bottom.
  u32 out = 0;
  for (int i = 0; i < 8; ++i) {
    const u32 six = (std::rotr(r, (27 - 4 * i) & 31) ^
                     static_cast<u32>(subkey >> (42 - 6 * i))) & 0x3F;
    out |= kSp[i][six];
  }
  return out;
}

}  // namespace

void Des::rekey(std::span<const u8> key) {
  const u64 k = bytes_to_u64(key);
  const u64 pc1 = permute(k, 64, kPc1, 56);
  u32 c = static_cast<u32>((pc1 >> 28) & 0x0FFFFFFF);
  u32 d = static_cast<u32>(pc1 & 0x0FFFFFFF);
  for (int r = 0; r < 16; ++r) {
    const int s = kShifts[r];
    c = ((c << s) | (c >> (28 - s))) & 0x0FFFFFFF;
    d = ((d << s) | (d >> (28 - s))) & 0x0FFFFFFF;
    const u64 cd = (static_cast<u64>(c) << 28) | d;
    subkeys_[r] = permute(cd, 56, kPc2, 48);
  }
}

u64 Des::process(u64 block, bool decrypt) const {
  const u64 ip = permute_bytes(block, kIpTab);
  u32 l = static_cast<u32>(ip >> 32);
  u32 r = static_cast<u32>(ip & 0xFFFFFFFF);
  for (int i = 0; i < 16; ++i) {
    const u64 sk = subkeys_[decrypt ? 15 - i : i];
    const u32 nl = r;
    r = l ^ feistel(r, sk);
    l = nl;
  }
  const u64 preout = (static_cast<u64>(r) << 32) | l;  // Final swap.
  return permute_bytes(preout, kFpTab);
}

void Des::encrypt_block(std::span<u8> block) const {
  u64_to_bytes(process(bytes_to_u64(block), false), block);
}

void Des::decrypt_block(std::span<u8> block) const {
  u64_to_bytes(process(bytes_to_u64(block), true), block);
}

void Des::cbc_encrypt(std::span<const u8> iv, std::span<u8> data) const {
  u8 chain[8];
  for (int i = 0; i < 8; ++i) chain[i] = iv[i];
  for (std::size_t off = 0; off + 8 <= data.size(); off += 8) {
    for (int i = 0; i < 8; ++i) data[off + i] ^= chain[i];
    encrypt_block(data.subspan(off, 8));
    for (int i = 0; i < 8; ++i) chain[i] = data[off + i];
  }
}

void Des::cbc_decrypt(std::span<const u8> iv, std::span<u8> data) const {
  u8 chain[8];
  u8 next_chain[8];
  for (int i = 0; i < 8; ++i) chain[i] = iv[i];
  for (std::size_t off = 0; off + 8 <= data.size(); off += 8) {
    for (int i = 0; i < 8; ++i) next_chain[i] = data[off + i];
    decrypt_block(data.subspan(off, 8));
    for (int i = 0; i < 8; ++i) data[off + i] ^= chain[i];
    for (int i = 0; i < 8; ++i) chain[i] = next_chain[i];
  }
}

}  // namespace drmp::crypto
