#include "rfu/tx_rfu.hpp"

#include "sim/checkpoint.hpp"

#include <algorithm>
#include <cassert>

#include "hw/memory_map.hpp"
#include "mac/protocol.hpp"

namespace drmp::rfu {

void TxRfu::on_execute(Op op) {
  assert(op == Op::TxFrameWifi || op == Op::TxFrameWifiAnchored ||
         op == Op::TxFrameUwb || op == Op::TxFrameWimax);
  stage_ = 0;
  src_ = args_.at(0);
  mode_idx_ = args_.at(1);
  append_fcs_ = (args_.at(2) & 1) != 0;
  sifs_after_rx_ = (args_.at(2) & 2) != 0;
  explicit_anchor_ = op == Op::TxFrameWifiAnchored;
  anchor_ = explicit_anchor_ ? (static_cast<Cycle>(args_.at(3)) |
                                (static_cast<Cycle>(args_.at(4)) << 32))
                             : 0;
  proto_ = op == Op::TxFrameUwb
               ? mac::Protocol::Uwb
               : (op == Op::TxFrameWimax ? mac::Protocol::WiMax : mac::Protocol::WiFi);
  assert(mode_idx_ < kNumModes);
  assert(buffers_[mode_idx_] != nullptr && "TxRfu not wired to buffers");
}

Cycle TxRfu::earliest_start() const {
  // SIFS anchor for responses within an ongoing exchange (opts bit1): the
  // end of the frame that released us plus SIFS. The anchored op carries
  // that end explicitly (latched at arm time); the legacy form falls back
  // to the last drained reception. Everything else was released by a
  // channel-access op and may go immediately.
  if (!sifs_after_rx_ || tb_ == nullptr) return 0;
  const Cycle rx_end =
      explicit_anchor_ ? anchor_ : (rx_ != nullptr ? rx_->last_rx_end() : 0);
  return rx_end + tb_->us_to_cycles(mac::timing_for(proto_).sifs_us);
}

Cycle TxRfu::latest_start() const {
  // SIFS-anchored data is perishable like an ACK, with a wider tolerance:
  // the fragment/assemble/HCS pipeline sits between the releasing CTS and
  // the staging, so allow two extra detection latencies beyond the ACK
  // slack before abandoning the exchange to its ACK-timeout retry.
  if (!sifs_after_rx_ || tb_ == nullptr) return ~Cycle{0};
  const auto t = mac::timing_for(proto_);
  return earliest_start() +
         tb_->us_to_cycles(mac::response_slack_us(t) +
                           2.0 * mac::cca_latency_default_us(t));
}

bool TxRfu::stream_words() {
  if (widx_ >= nwords_) return true;
  if (io_idle()) q_stream_in(src_ + hw::kPageDataOffset + widx_, nwords_ - widx_);
  io_step();
  return false;
}

void TxRfu::stream_in(std::span<const Word> words) {
  // Stage 1 pushes the payload bytes [0, len_) and the slave snoops them;
  // stage 3 re-reads the words covering the appended FCS and pushes only
  // its bytes [len_, len_ + 4) — those before len_ were pushed already.
  const u32 base = widx_ * 4;
  const u32 lo = stage_ == 1 ? base : std::max(base, len_);
  const u32 hi = std::min(base + 4 * static_cast<u32>(words.size()),
                          stage_ == 1 ? len_ : len_ + 4);
  run_bytes_.clear();
  for (u32 off = lo; off < hi; ++off) {
    run_bytes_.push_back(static_cast<u8>(words[(off - base) / 4] >> (8 * (off % 4))));
  }
  buffers_[mode_idx_]->push_bytes(run_bytes_);
  if (stage_ == 1 && append_fcs_ && fcs_ != nullptr) {
    fcs_->on_secondary_trigger(id(), run_bytes_);
  }
  widx_ += static_cast<u32>(words.size());
}

bool TxRfu::work_step() {
  phy::TxBuffer& buf = *buffers_[mode_idx_];
  switch (stage_) {
    case 0: {  // Read the page length; reset the slave's snoop context.
      if (!bus_granted() || !bus_free()) return false;
      len_ = bus_read(src_ + hw::kPageLenOffset);
      nwords_ = static_cast<u32>(words_for_bytes(len_));
      widx_ = 0;
      if (append_fcs_ && fcs_ != nullptr) fcs_->slave_reset(id());
      buf.begin_frame();
      stage_ = 1;
      return false;
    }
    case 1: {  // Stream payload words to the buffer; the slave snoops them.
      if (!stream_words()) return false;
      if (!append_fcs_) {
        buf.end_frame(len_, earliest_start(), latest_start(),
                      sifs_after_rx_ ? phy::TxKind::kSifsData : phy::TxKind::kData);
        ++frames_;
        return true;
      }
      // Ask the slave to append the snooped FCS, then hand the bus over.
      if (!bus_granted() || !bus_free()) return false;
      fcs_->slave_request_append(id(), src_, len_);
      bus_write(hw::kOverrideAddr, kFcsRfu);
      stage_ = 2;
      return false;
    }
    case 2: {  // Wait for the slave to write the FCS and hand the bus back.
      if (fcs_->slave_busy()) return false;
      // Re-read the words covering the appended FCS bytes [len_, len_+4).
      widx_ = len_ / 4;
      nwords_ = static_cast<u32>(words_for_bytes(len_ + 4));
      stage_ = 3;
      return false;
    }
    case 3: {  // Stream the FCS tail into the buffer.
      if (!stream_words()) return false;
      buf.end_frame(len_ + 4, earliest_start(), latest_start(),
                    sifs_after_rx_ ? phy::TxKind::kSifsData : phy::TxKind::kData);
      ++frames_;
      return true;
    }
    default:
      return true;
  }
}


void TxRfu::save_extra(sim::snap::Writer& w) { persist(w); }
void TxRfu::load_extra(sim::snap::Reader& r) { persist(r); }

}  // namespace drmp::rfu
