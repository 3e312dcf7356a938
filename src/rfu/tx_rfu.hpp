// Transmission RFU — the transmit state machine that streams an assembled
// MPDU from the packet memory into the mode's translational Tx buffer at
// architecture speed (thesis §3.6.6), while the hard-wired FCS slave snoops
// every word to accumulate the CRC-32 on the fly (footnote 10 / §3.6.5).
// Both streams are word runs (rfu/streaming.hpp).
// After the last payload word it hands the bus to the slave via the grant
// override so the slave appends the FCS, then streams the final bytes and
// marks the frame end.
#pragma once

#include <array>

#include "mac/protocol.hpp"
#include "phy/buffers.hpp"
#include "rfu/crc_rfus.hpp"
#include "rfu/rx_rfu.hpp"
#include "rfu/streaming.hpp"

namespace drmp::rfu {

class TxRfu final : public StreamingRfu {
 public:
  explicit TxRfu(Env env) : StreamingRfu(kTxRfu, "tx", ReconfigMech::ContextSwitch, env) {}

  /// Hard-wired connections (set at device assembly). `rx` provides the
  /// last-reception timestamp for SIFS-anchored responses (opts bit1).
  void wire(FcsRfu* fcs_slave, std::array<phy::TxBuffer*, kNumModes> buffers,
            const sim::TimeBase* tb, RxRfu* rx = nullptr) {
    fcs_ = fcs_slave;
    buffers_ = buffers;
    tb_ = tb;
    rx_ = rx;
  }

  u64 frames_streamed() const noexcept { return frames_; }

 protected:
  // Ops: TxFrame{Wifi,Uwb,Wimax} [src_page, mode_idx, opts]
  //      TxFrameWifiAnchored    [src_page, mode_idx, opts, anchor_lo, anchor_hi]
  //   opts bit0: append FCS via the slave (WiFi/UWB always, WiMAX iff CI).
  //   opts bit1: anchor the frame SIFS after the end of the reception that
  //   released it (the AckRfu pattern) instead of releasing it immediately —
  //   used for the data a CTS just released and for fragment-burst
  //   follow-ons: 802.11's protected exchange is SIFS-separated, and each
  //   station's anchor is its *own* releasing frame's end, so crossed grants
  //   serialize through the PhyTx carrier gate instead of quantizing onto
  //   one shared clear edge and colliding forever.
  //   The anchored form carries the releasing frame's rx-end explicitly —
  //   latched by the Event Handler's delivery-time snoop and read by the
  //   arming ISR (CtrlWord::kRespRxEndLo/Hi) — so a bystander frame drained
  //   between the release and this op's execution cannot re-anchor the
  //   response. The legacy bit1-without-anchor form reads
  //   RxRfu::last_rx_end() at op execution and keeps that (monotone-later)
  //   re-anchoring behaviour for callers that still want it.
  void on_execute(Op op) override;
  bool work_step() override;
  void stream_in(std::span<const Word> words) override;

  void save_extra(sim::snap::Writer& w) override;
  void load_extra(sim::snap::Reader& r) override;

 private:
  template <class Ar>
  void persist(Ar& ar) {
    persist_streaming(ar);
    ar.io(stage_);
    ar.io(src_);
    ar.io(mode_idx_);
    ar.io(append_fcs_);
    ar.io(sifs_after_rx_);
    ar.io(explicit_anchor_);
    ar.io(anchor_);
    ar.io(proto_);
    ar.io(len_);
    ar.io(widx_);
    ar.io(nwords_);
    ar.io(frames_);
  }

  Cycle earliest_start() const;
  Cycle latest_start() const;
  /// Streams words [widx_, nwords_) of the source page through stream_in;
  /// returns true once they have all moved.
  bool stream_words();

  int stage_ = 0;
  u32 src_ = 0;
  u32 mode_idx_ = 0;
  bool append_fcs_ = false;
  bool sifs_after_rx_ = false;
  bool explicit_anchor_ = false;
  Cycle anchor_ = 0;  ///< Releasing frame's rx-end (explicit_anchor_ only).
  mac::Protocol proto_ = mac::Protocol::WiFi;  ///< From the executing op.
  u32 len_ = 0;
  u32 widx_ = 0;
  u32 nwords_ = 0;
  u64 frames_ = 0;

  FcsRfu* fcs_ = nullptr;
  std::array<phy::TxBuffer*, kNumModes> buffers_{};
  const sim::TimeBase* tb_ = nullptr;
  RxRfu* rx_ = nullptr;
  Bytes run_bytes_;  ///< stream_in's unpacked bytes (not state).
};

}  // namespace drmp::rfu
