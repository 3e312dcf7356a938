// CRC RFUs:
//
//   * HdrCheckRfu — Header Check Sequence engine. Configuration state 1 is
//     the CRC-16-CCITT shared verbatim by WiFi and UWB (thesis §2.3.2.1 #1:
//     "the exact same 16-bit CRC"), so switching between those two protocols
//     needs *no* reconfiguration — the overlap the DRMP exploits. State 2 is
//     the WiMAX CRC-8, patched into byte 5 of the GMH.
//
//   * FcsRfu — CRC-32 Frame Check Sequence engine (identical for all three
//     protocols, §2.3.2.1 #2). Besides its primary ops it acts as the
//     hard-wired *slave* of the Tx and Rx RFUs: the master raises the
//     secondary trigger for the words it streams so the FCS accumulates on
//     the fly, then hands the bus over via the grant override so the slave
//     can append/verify the checksum (thesis §3.6.5 and footnote 10).
#pragma once

#include <array>
#include <map>

#include "crypto/crc.hpp"
#include "rfu/streaming.hpp"

namespace drmp::rfu {

class HdrCheckRfu final : public StreamingRfu {
 public:
  explicit HdrCheckRfu(Env env)
      : StreamingRfu(kHdrCheckRfu, "hdr_check", ReconfigMech::ContextSwitch, env) {}

  u8 nstates() const override { return 2; }

 protected:
  // Ops:
  //   HcsAppend16 [page_addr, hdr_len]           — CRC16 over hdr, patch at hdr_len.
  //   HcsVerify16 [page_addr, hdr_len, status]   — verify, write 1/0 to status.
  //   HcsPatch8   [page_addr]                    — WiMAX: CRC8 over GMH[0..4] into GMH[5].
  //   HcsVerify8  [page_addr, status]            — verify GMH HCS.
  void on_execute(Op op) override;
  bool work_step() override;

  void save_extra(sim::snap::Writer& w) override;
  void load_extra(sim::snap::Reader& r) override;

 private:
  template <class Ar>
  void persist(Ar& ar) {
    persist_streaming(ar);
    ar.io(stage_);
    ar.io(status_addr_);
    ar.io(verify_);
    ar.io(wimax_);
    ar.io(page_addr_);
    ar.io(hdr_len_);
    ar.io(last_status_);
  }

  int stage_ = 0;
  u32 status_addr_ = 0;
  bool verify_ = false;
  bool wimax_ = false;
  u32 page_addr_ = 0;
  u32 hdr_len_ = 0;
  bool last_status_ = false;
};

class FcsRfu final : public StreamingRfu {
 public:
  explicit FcsRfu(Env env) : StreamingRfu(kFcsRfu, "fcs", ReconfigMech::ContextSwitch, env) {}

  u8 nstates() const override { return 1; }

  // ---- Hard-wired slave interface (secondary trigger + override) ----
  /// Master resets its snoop context before streaming a frame.
  void slave_reset(u8 master_id);
  /// Secondary trigger: `bytes` pass the master.
  void on_secondary_trigger(u8 master_id, std::span<const u8> bytes) override;
  /// Snooped CRC-32 so far for this master.
  u32 slave_crc(u8 master_id) const;
  /// Master asks the slave to append its snooped CRC at byte offset `len`
  /// of the page at `page_addr` and update the page length. Executed when
  /// the master hands the bus over with a grant override; `slave_busy`
  /// becomes false once the slave has handed the bus back.
  void slave_request_append(u8 master_id, u32 page_addr, u32 len_bytes);
  bool slave_busy() const noexcept { return slave_pending_; }

 protected:
  // Primary ops:
  //   FcsAppend [page_addr]           — CRC32 over page, append 4 bytes.
  //   FcsVerify [page_addr, status]   — CRC32 over page-4, compare, status.
  void on_execute(Op op) override;
  bool work_step() override;
  void slave_step() override;
  /// The slave append keeps the FCS engine awake until the bus is handed
  /// back; slave_request_append wakes it. Pure snoop accumulation
  /// (on_secondary_trigger) does not affect tick behaviour and needs no wake.
  Cycle slave_quiescent_for() const override {
    return slave_pending_ ? 0 : kIdleForever;
  }

  void save_extra(sim::snap::Writer& w) override;
  void load_extra(sim::snap::Reader& r) override;

 private:
  template <class Ar>
  void persist(Ar& ar) {
    persist_streaming(ar);
    ar.io(stage_);
    ar.io(verify_);
    ar.io(page_addr_);
    ar.io(status_addr_);
    ar.io(last_status_);
    ar.io(snoop_);
    ar.io(slave_pending_);
    ar.io(slave_master_);
    ar.io(slave_page_);
    ar.io(slave_len_);
    ar.io(slave_stage_);
  }

  int stage_ = 0;
  bool verify_ = false;
  u32 page_addr_ = 0;
  u32 status_addr_ = 0;
  bool last_status_ = false;

  std::map<u8, crypto::Crc32> snoop_;

  // Slave append state.
  bool slave_pending_ = false;
  u8 slave_master_ = 0;
  u32 slave_page_ = 0;
  u32 slave_len_ = 0;
  int slave_stage_ = 0;
};

}  // namespace drmp::rfu
