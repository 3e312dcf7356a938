// Reception RFU — drains a completed frame from the mode's translational Rx
// buffer into the packet memory at architecture speed, as one word run
// (rfu/streaming.hpp). The hard-wired FCS slave snoops every word; because
// the stream includes the frame's own trailing CRC-32, a good frame leaves
// the slave's register at the CRC-32 residue constant, which the Rx RFU
// converts into the fcs_ok status flag (the "redundancy checked without the
// software being aware of it" path, thesis §3.5).
#pragma once

#include <array>

#include "phy/buffers.hpp"
#include "rfu/crc_rfus.hpp"
#include "rfu/streaming.hpp"

namespace drmp::rfu {

/// CRC-32 residue: Crc32::value() after processing data followed by its own
/// little-endian CRC-32.
inline constexpr u32 kCrc32Residue = 0x2144DF1Cu;

class RxRfu final : public StreamingRfu {
 public:
  explicit RxRfu(Env env) : StreamingRfu(kRxRfu, "rx", ReconfigMech::ContextSwitch, env) {}

  void wire(FcsRfu* fcs_slave, std::array<phy::RxBuffer*, kNumModes> buffers) {
    fcs_ = fcs_slave;
    buffers_ = buffers;
  }

  /// Architecture cycle at which the most recently drained frame finished
  /// arriving (SIFS reference for the ACK generator).
  Cycle last_rx_end() const noexcept { return last_rx_end_; }
  u64 frames_drained() const noexcept { return frames_; }

 protected:
  // Ops: RxDrain{Wifi,Uwb,Wimax} [dst_page, mode_idx, opts, status_addr]
  //   opts bit0: check the trailing FCS (off for FCS-less frames such as the
  //   UWB Imm-ACK; the Event Handler knows from the frame length).
  void on_execute(Op op) override;
  bool work_step() override;
  void stream_out(std::span<Word> words) override;

  void save_extra(sim::snap::Writer& w) override;
  void load_extra(sim::snap::Reader& r) override;

 private:
  template <class Ar>
  void persist(Ar& ar) {
    persist_streaming(ar);
    ar.io(stage_);
    ar.io(dst_);
    ar.io(mode_idx_);
    ar.io(check_fcs_);
    ar.io(status_addr_);
    ar.io(len_);
    ar.io(widx_);
    ar.io(nwords_);
    ar.io(last_rx_end_);
    ar.io(frames_);
  }

  int stage_ = 0;
  u32 dst_ = 0;
  u32 mode_idx_ = 0;
  bool check_fcs_ = false;
  u32 status_addr_ = 0;
  u32 len_ = 0;
  u32 widx_ = 0;
  u32 nwords_ = 0;
  Cycle last_rx_end_ = 0;
  u64 frames_ = 0;

  FcsRfu* fcs_ = nullptr;
  std::array<phy::RxBuffer*, kNumModes> buffers_{};
};

}  // namespace drmp::rfu
