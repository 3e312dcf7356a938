// Known-answer tests for the crypto substrate (CRC-8/16/32, RC4, AES-128,
// DES/3DES) — the published vectors pin the RFU datapaths to the real
// algorithms the standards mandate.
#include <gtest/gtest.h>

#include <array>

#include "crypto/aes128.hpp"
#include "crypto/crc.hpp"
#include "crypto/des.hpp"
#include "crypto/rc4.hpp"

namespace drmp::crypto {
namespace {

Bytes ascii(const char* s) { return Bytes(s, s + std::string(s).size()); }

// ------------------------------------------------------------------- CRC

TEST(Crc32, CheckValue) {
  // Standard CRC-32 check value over "123456789".
  EXPECT_EQ(Crc32::compute(ascii("123456789")), 0xCBF43926u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const Bytes data = ascii("The quick brown fox jumps over the lazy dog");
  Crc32 inc;
  for (u8 b : data) inc.update(b);
  EXPECT_EQ(inc.value(), Crc32::compute(data));
}

TEST(Crc32, ResidueProperty) {
  // Appending the little-endian CRC to the message drives the register to
  // the residue constant — the property the Rx RFU's on-the-fly check uses.
  Bytes data = ascii("residue property");
  const u32 crc = Crc32::compute(data);
  put_le32(data, crc);
  EXPECT_EQ(Crc32::compute(data), 0x2144DF1Cu);
}

TEST(Crc32, EmptyInput) { EXPECT_EQ(Crc32::compute({}), 0x00000000u); }

TEST(Crc32, SliceBy8MatchesBytewiseLoop) {
  // The span path folds eight bytes per step; the per-byte update is the
  // reference. Every length 0..2048 (every tail length, many block counts)
  // and every start alignment must agree.
  Bytes buf(2048 + 8);
  u32 x = 0x9E3779B9u;
  for (u8& b : buf) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<u8>(x >> 24);
  }
  auto bytewise = [](std::span<const u8> s) {
    Crc32 c;
    for (const u8 b : s) c.update(b);
    return c.value();
  };
  for (std::size_t len = 0; len <= 2048; ++len) {
    for (std::size_t off = 0; off < 8; ++off) {
      const std::span<const u8> s(buf.data() + off, len);
      ASSERT_EQ(Crc32::compute(s), bytewise(s)) << "len " << len << " off " << off;
    }
  }
  // One register, mixing the two paths: a per-byte prefix, then spans.
  Crc32 mixed;
  for (std::size_t i = 0; i < 3; ++i) mixed.update(buf[i]);
  mixed.update(std::span<const u8>(buf.data() + 3, 13));
  mixed.update(std::span<const u8>(buf.data() + 16, 1000));
  EXPECT_EQ(mixed.value(), bytewise(std::span<const u8>(buf.data(), 1016)));
}

TEST(Crc16Ccitt, CheckValue) {
  EXPECT_EQ(Crc16Ccitt::compute(ascii("123456789")), 0x29B1u);
}

TEST(Crc16Ccitt, IncrementalMatchesOneShot) {
  const Bytes data = ascii("abcdefgh");
  Crc16Ccitt inc;
  inc.update(std::span<const u8>(data.data(), 3));
  inc.update(std::span<const u8>(data.data() + 3, data.size() - 3));
  EXPECT_EQ(inc.value(), Crc16Ccitt::compute(data));
}

TEST(Crc8, CheckValue) { EXPECT_EQ(Crc8::compute(ascii("123456789")), 0xF4u); }

TEST(Crc8, SingleBitErrorDetected) {
  Bytes gmh = {0x40, 0x00, 0x2E, 0x12, 0x34};
  const u8 hcs = Crc8::compute(gmh);
  gmh[2] ^= 0x01;
  EXPECT_NE(Crc8::compute(gmh), hcs);
}

// ------------------------------------------------------------------- RC4

TEST(Rc4, KeystreamVectorKey) {
  // RFC 6229-style: key "Key" -> keystream EB9F7781B734CA72A719...
  Rc4 rc4(ascii("Key"));
  const u8 expected[10] = {0xEB, 0x9F, 0x77, 0x81, 0xB7, 0x34, 0xCA, 0x72, 0xA7, 0x19};
  for (u8 e : expected) EXPECT_EQ(rc4.next(), e);
}

TEST(Rc4, PlaintextVector) {
  // Key "Key", plaintext "Plaintext" -> BBF316E8D940AF0AD3.
  Rc4 rc4(ascii("Key"));
  Bytes data = ascii("Plaintext");
  rc4.process(data);
  const Bytes expected = {0xBB, 0xF3, 0x16, 0xE8, 0xD9, 0x40, 0xAF, 0x0A, 0xD3};
  EXPECT_EQ(data, expected);
}

TEST(Rc4, RoundTrip) {
  const Bytes key = ascii("WEPKEY1234567");
  Bytes data(333);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<u8>(i * 7 + 1);
  const Bytes orig = data;
  Rc4(key).process(data);
  EXPECT_NE(data, orig);
  Rc4(key).process(data);
  EXPECT_EQ(data, orig);
}

// ------------------------------------------------------------------- AES

TEST(Aes128, Fips197Vector) {
  const Bytes key = {0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07,
                     0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f};
  Bytes block = {0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77,
                 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff};
  const Bytes expected = {0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30,
                          0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4, 0xc5, 0x5a};
  Aes128 aes(key);
  aes.encrypt_block(block);
  EXPECT_EQ(block, expected);
  aes.decrypt_block(block);
  const Bytes plain = {0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77,
                       0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff};
  EXPECT_EQ(block, plain);
}

TEST(Aes128, CtrRoundTripArbitraryLength) {
  const Bytes key = ascii("0123456789abcdef");
  const Bytes nonce(16, 0x42);
  for (std::size_t len : {0u, 1u, 15u, 16u, 17u, 100u, 1500u}) {
    Bytes data(len);
    for (std::size_t i = 0; i < len; ++i) data[i] = static_cast<u8>(i);
    const Bytes orig = data;
    Aes128 aes(key);
    aes.ctr_process(nonce, data);
    if (len > 0) {
      EXPECT_NE(data, orig);
    }
    aes.ctr_process(nonce, data);
    EXPECT_EQ(data, orig) << "len=" << len;
  }
}

// ------------------------------------------------------------------- DES

TEST(Des, ClassicVector) {
  // Key 133457799BBCDFF1, plaintext 0123456789ABCDEF -> 85E813540F0AB405.
  const Bytes key = {0x13, 0x34, 0x57, 0x79, 0x9B, 0xBC, 0xDF, 0xF1};
  Bytes block = {0x01, 0x23, 0x45, 0x67, 0x89, 0xAB, 0xCD, 0xEF};
  Des des(key);
  des.encrypt_block(block);
  const Bytes expected = {0x85, 0xE8, 0x13, 0x54, 0x0F, 0x0A, 0xB4, 0x05};
  EXPECT_EQ(block, expected);
  des.decrypt_block(block);
  const Bytes plain = {0x01, 0x23, 0x45, 0x67, 0x89, 0xAB, 0xCD, 0xEF};
  EXPECT_EQ(block, plain);
}

TEST(Des, CbcRoundTrip) {
  const Bytes key = ascii("8bytekey");
  const Bytes iv = ascii("initvect");
  Bytes data(64);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<u8>(255 - i);
  const Bytes orig = data;
  Des des(key);
  des.cbc_encrypt(iv, data);
  EXPECT_NE(data, orig);
  des.cbc_decrypt(iv, data);
  EXPECT_EQ(data, orig);
}

TEST(Des, Fips81CbcVector) {
  // FIPS 81 Appendix C: DES-CBC of "Now is the time for all ".
  const Bytes key = {0x01, 0x23, 0x45, 0x67, 0x89, 0xab, 0xcd, 0xef};
  const Bytes iv = {0x12, 0x34, 0x56, 0x78, 0x90, 0xab, 0xcd, 0xef};
  Bytes data = ascii("Now is the time for all ");
  const Bytes plain = data;
  Des des(key);
  des.cbc_encrypt(iv, data);
  const Bytes expected = {0xe5, 0xc7, 0xcd, 0xde, 0x87, 0x2b, 0xf2, 0x7c,
                          0x43, 0xe9, 0x34, 0x00, 0x8c, 0x38, 0x9c, 0x0f,
                          0x68, 0x37, 0x88, 0x49, 0x9a, 0x7c, 0x05, 0xf6};
  EXPECT_EQ(data, expected);
  des.cbc_decrypt(iv, data);
  EXPECT_EQ(data, plain);
}

// Bit-serial FIPS 46-3 reference: a literal transcription of the standard's
// permutation tables (bit 1 = MSB), one bit per loop step. The production
// cipher is table-driven; this is the oracle it is checked against.
namespace ref_des {

constexpr int kIp[64] = {58, 50, 42, 34, 26, 18, 10, 2,  60, 52, 44, 36, 28, 20, 12, 4,
                         62, 54, 46, 38, 30, 22, 14, 6,  64, 56, 48, 40, 32, 24, 16, 8,
                         57, 49, 41, 33, 25, 17, 9,  1,  59, 51, 43, 35, 27, 19, 11, 3,
                         61, 53, 45, 37, 29, 21, 13, 5,  63, 55, 47, 39, 31, 23, 15, 7};
constexpr int kFp[64] = {40, 8, 48, 16, 56, 24, 64, 32, 39, 7, 47, 15, 55, 23, 63, 31,
                         38, 6, 46, 14, 54, 22, 62, 30, 37, 5, 45, 13, 53, 21, 61, 29,
                         36, 4, 44, 12, 52, 20, 60, 28, 35, 3, 43, 11, 51, 19, 59, 27,
                         34, 2, 42, 10, 50, 18, 58, 26, 33, 1, 41, 9,  49, 17, 57, 25};
constexpr int kE[48] = {32, 1,  2,  3,  4,  5,  4,  5,  6,  7,  8,  9,  8,  9,  10, 11,
                        12, 13, 12, 13, 14, 15, 16, 17, 16, 17, 18, 19, 20, 21, 20, 21,
                        22, 23, 24, 25, 24, 25, 26, 27, 28, 29, 28, 29, 30, 31, 32, 1};
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
constexpr u8 kS[8][64] = {
    {14, 4, 13, 1, 2, 15, 11, 8, 3, 10, 6, 12, 5, 9, 0, 7,
     0, 15, 7, 4, 14, 2, 13, 1, 10, 6, 12, 11, 9, 5, 3, 8,
     4, 1, 14, 8, 13, 6, 2, 11, 15, 12, 9, 7, 3, 10, 5, 0,
     15, 12, 8, 2, 4, 9, 1, 7, 5, 11, 3, 14, 10, 0, 6, 13},
    {15, 1, 8, 14, 6, 11, 3, 4, 9, 7, 2, 13, 12, 0, 5, 10,
     3, 13, 4, 7, 15, 2, 8, 14, 12, 0, 1, 10, 6, 9, 11, 5,
     0, 14, 7, 11, 10, 4, 13, 1, 5, 8, 12, 6, 9, 3, 2, 15,
     13, 8, 10, 1, 3, 15, 4, 2, 11, 6, 7, 12, 0, 5, 14, 9},
    {10, 0, 9, 14, 6, 3, 15, 5, 1, 13, 12, 7, 11, 4, 2, 8,
     13, 7, 0, 9, 3, 4, 6, 10, 2, 8, 5, 14, 12, 11, 15, 1,
     13, 6, 4, 9, 8, 15, 3, 0, 11, 1, 2, 12, 5, 10, 14, 7,
     1, 10, 13, 0, 6, 9, 8, 7, 4, 15, 14, 3, 11, 5, 2, 12},
    {7, 13, 14, 3, 0, 6, 9, 10, 1, 2, 8, 5, 11, 12, 4, 15,
     13, 8, 11, 5, 6, 15, 0, 3, 4, 7, 2, 12, 1, 10, 14, 9,
     10, 6, 9, 0, 12, 11, 7, 13, 15, 1, 3, 14, 5, 2, 8, 4,
     3, 15, 0, 6, 10, 1, 13, 8, 9, 4, 5, 11, 12, 7, 2, 14},
    {2, 12, 4, 1, 7, 10, 11, 6, 8, 5, 3, 15, 13, 0, 14, 9,
     14, 11, 2, 12, 4, 7, 13, 1, 5, 0, 15, 10, 3, 9, 8, 6,
     4, 2, 1, 11, 10, 13, 7, 8, 15, 9, 12, 5, 6, 3, 0, 14,
     11, 8, 12, 7, 1, 14, 2, 13, 6, 15, 0, 9, 10, 4, 5, 3},
    {12, 1, 10, 15, 9, 2, 6, 8, 0, 13, 3, 4, 14, 7, 5, 11,
     10, 15, 4, 2, 7, 12, 9, 5, 6, 1, 13, 14, 0, 11, 3, 8,
     9, 14, 15, 5, 2, 8, 12, 3, 7, 0, 4, 10, 1, 13, 11, 6,
     4, 3, 2, 12, 9, 5, 15, 10, 11, 14, 1, 7, 6, 0, 8, 13},
    {4, 11, 2, 14, 15, 0, 8, 13, 3, 12, 9, 7, 5, 10, 6, 1,
     13, 0, 11, 7, 4, 9, 1, 10, 14, 3, 5, 12, 2, 15, 8, 6,
     1, 4, 11, 13, 12, 3, 7, 14, 10, 15, 6, 8, 0, 5, 9, 2,
     6, 11, 13, 8, 1, 4, 10, 7, 9, 5, 0, 15, 14, 2, 3, 12},
    {13, 2, 8, 4, 6, 15, 11, 1, 10, 9, 3, 14, 5, 0, 12, 7,
     1, 15, 13, 8, 10, 3, 7, 4, 12, 5, 6, 11, 0, 14, 9, 2,
     7, 11, 4, 1, 9, 12, 14, 2, 0, 6, 10, 13, 15, 3, 5, 8,
     2, 1, 14, 7, 4, 10, 8, 13, 15, 12, 9, 0, 3, 5, 6, 11}};

u64 permute(u64 in, int in_bits, const int* table, int n) {
  u64 out = 0;
  for (int i = 0; i < n; ++i) out = (out << 1) | ((in >> (in_bits - table[i])) & 1);
  return out;
}

u64 crypt(u64 key, u64 block, bool decrypt) {
  std::array<u64, 16> sk{};
  const u64 pc1 = permute(key, 64, kPc1, 56);
  u32 c = static_cast<u32>(pc1 >> 28) & 0x0FFFFFFF;
  u32 d = static_cast<u32>(pc1) & 0x0FFFFFFF;
  for (int r = 0; r < 16; ++r) {
    const int s = kShifts[r];
    c = ((c << s) | (c >> (28 - s))) & 0x0FFFFFFF;
    d = ((d << s) | (d >> (28 - s))) & 0x0FFFFFFF;
    sk[r] = permute((static_cast<u64>(c) << 28) | d, 56, kPc2, 48);
  }
  const u64 ip = permute(block, 64, kIp, 64);
  u32 l = static_cast<u32>(ip >> 32);
  u32 r = static_cast<u32>(ip);
  for (int i = 0; i < 16; ++i) {
    const u64 x = permute(r, 32, kE, 48) ^ sk[decrypt ? 15 - i : i];
    u32 f = 0;
    for (int b = 0; b < 8; ++b) {
      const u32 six = static_cast<u32>(x >> (42 - 6 * b)) & 0x3F;
      f = (f << 4) | kS[b][(((six & 0x20) >> 4) | (six & 1)) * 16 + ((six >> 1) & 0xF)];
    }
    const u32 nl = r;
    r = l ^ static_cast<u32>(permute(f, 32, kP, 32));
    l = nl;
  }
  return permute((static_cast<u64>(r) << 32) | l, 64, kFp, 64);
}

}  // namespace ref_des

TEST(Des, MatchesBitSerialReference) {
  // 65,536 random (key, block) pairs, each encrypted and decrypted by both
  // implementations (splitmix64 keeps the sweep deterministic).
  u64 state = 0x9E3779B97F4A7C15ull;
  auto next = [&state] {
    u64 z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  };
  auto to_bytes = [](u64 v) {
    Bytes b(8);
    for (std::size_t i = 8; i-- > 0; v >>= 8) b[i] = static_cast<u8>(v);
    return b;
  };
  for (int n = 0; n < 65536; ++n) {
    const u64 key = next();
    const u64 block = next();
    const Des des(to_bytes(key));
    Bytes enc = to_bytes(block);
    des.encrypt_block(enc);
    ASSERT_EQ(enc, to_bytes(ref_des::crypt(key, block, false))) << "block " << n;
    Bytes dec = to_bytes(block);
    des.decrypt_block(dec);
    ASSERT_EQ(dec, to_bytes(ref_des::crypt(key, block, true))) << "block " << n;
  }
}

TEST(TripleDes, EncryptDecrypt) {
  Bytes key24(24);
  for (std::size_t i = 0; i < 24; ++i) key24[i] = static_cast<u8>(i + 1);
  TripleDes tdes(key24);
  Bytes block = ascii("KEYXCHNG");
  const Bytes orig = block;
  tdes.encrypt_block(block);
  EXPECT_NE(block, orig);
  tdes.decrypt_block(block);
  EXPECT_EQ(block, orig);
}

TEST(TripleDes, DegeneratesToDesWithEqualKeys) {
  // EDE with K1=K2=K3 equals single DES.
  Bytes key24;
  const Bytes k8 = ascii("samekey!");
  for (int i = 0; i < 3; ++i) key24.insert(key24.end(), k8.begin(), k8.end());
  Bytes a = ascii("ABCDEFGH");
  Bytes b = a;
  TripleDes(key24).encrypt_block(a);
  Des(k8).encrypt_block(b);
  EXPECT_EQ(a, b);
}

// -------------------------------------------------- property-style sweeps

class CrcLinearity : public ::testing::TestWithParam<int> {};

TEST_P(CrcLinearity, AppendZerosShiftsRegister) {
  // CRC(m) fully determines CRC(m || tail) given the tail — incremental
  // updates from a snapshot must agree with a full recompute.
  const int seed = GetParam();
  Bytes msg(200 + seed);
  for (std::size_t i = 0; i < msg.size(); ++i) {
    msg[i] = static_cast<u8>((i * 31 + seed * 7) & 0xFF);
  }
  Crc32 inc;
  inc.update(std::span<const u8>(msg.data(), 100));
  inc.update(std::span<const u8>(msg.data() + 100, msg.size() - 100));
  EXPECT_EQ(inc.value(), Crc32::compute(msg));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrcLinearity, ::testing::Range(0, 8));

}  // namespace
}  // namespace drmp::crypto
