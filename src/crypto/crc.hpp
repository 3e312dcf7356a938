// CRC engines used by the MAC protocols under study (thesis §2.3.2.1):
//   * CRC-16-CCITT — Header Check Sequence of WiFi and UWB ("the exact same
//     16-bit CRC", commonality #1).
//   * CRC-8        — Header Check Sequence of the WiMAX generic MAC header
//     (polynomial x^8+x^2+x+1 per IEEE 802.16).
//   * CRC-32       — Frame Check Sequence of all three (commonality #2;
//     optional for WiMAX).
//
// All engines support incremental (streaming) update so the hardware RFUs can
// snoop data word-by-word on the packet bus (master/slave mechanism, §3.6.5).
#pragma once

#include <span>

#include "common/types.hpp"

namespace drmp::crypto {

/// CRC-32 (IEEE 802.3 reflected, poly 0xEDB88320). check("123456789") = 0xCBF43926.
class Crc32 {
 public:
  void update(u8 byte) noexcept;
  void update(std::span<const u8> bytes) noexcept;
  u32 value() const noexcept { return state_ ^ 0xFFFFFFFFu; }
  void reset() noexcept { state_ = 0xFFFFFFFFu; }

  /// Checkpoint support (sim/checkpoint.hpp).
  template <class Ar>
  void persist(Ar& ar) {
    ar.io(state_);
  }

  static u32 compute(std::span<const u8> bytes) noexcept;

 private:
  u32 state_ = 0xFFFFFFFFu;
};

/// CRC-16-CCITT-FALSE (poly 0x1021, init 0xFFFF). check("123456789") = 0x29B1.
class Crc16Ccitt {
 public:
  void update(u8 byte) noexcept;
  void update(std::span<const u8> bytes) noexcept;
  u16 value() const noexcept { return state_; }
  void reset() noexcept { state_ = 0xFFFFu; }

  static u16 compute(std::span<const u8> bytes) noexcept;

 private:
  u16 state_ = 0xFFFFu;
};

/// CRC-8 as used by the IEEE 802.16 HCS (poly 0x07, init 0x00).
/// check("123456789") = 0xF4.
class Crc8 {
 public:
  void update(u8 byte) noexcept;
  void update(std::span<const u8> bytes) noexcept;
  u8 value() const noexcept { return state_; }
  void reset() noexcept { state_ = 0; }

  static u8 compute(std::span<const u8> bytes) noexcept;

 private:
  u8 state_ = 0;
};

}  // namespace drmp::crypto
