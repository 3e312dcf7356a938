#include "drmp/event_handler.hpp"

#include "mac/protocol.hpp"
#include "mac/uwb_frames.hpp"
#include "mac/wifi_frames.hpp"
#include "rfu/rfu_ids.hpp"

namespace drmp {

using hw::CtrlWord;
using hw::ctrl_status_addr;
using hw::Page;
using hw::page_base;
using irc::IrqEvent;
using irc::OpCall;
using rfu::Op;

void EventHandler::submit_drain(Mode m) {
  const auto& id = env_.idents[index(m)];
  const u32 mode_idx = static_cast<u32>(index(m));
  const u32 rx = page_base(m, Page::Rx);
  const u32 fcs_ok = ctrl_status_addr(m, CtrlWord::kFcsOk);
  const u32 status_base = ctrl_status_addr(m, static_cast<CtrlWord>(0));

  irc::ServiceRequest req;
  req.from_cpu = false;
  switch (id.proto) {
    case mac::Protocol::WiFi:
      req.ops = {
          {Op::RxDrainWifi, {rx, mode_idx, 1, fcs_ok}},
          {Op::ParseWifi, {rx, status_base}},
      };
      break;
    case mac::Protocol::Uwb: {
      // Header-only frames (Imm-ACK) carry no FCS.
      const bool has_fcs =
          env_.rx_bufs[index(m)]->frame_bytes() > mac::uwb::kImmAckBytes;
      req.ops = {
          {Op::RxDrainUwb, {rx, mode_idx, has_fcs ? 1u : 0u, fcs_ok}},
          {Op::ParseUwb, {rx, status_base}},
      };
      break;
    }
    case mac::Protocol::WiMax:
      // The optional CRC is validated by the parse (CI-dependent).
      req.ops = {
          {Op::RxDrainWimax, {rx, mode_idx, 0, fcs_ok}},
          {Op::ParseWimax, {rx, status_base}},
      };
      break;
  }
  tag_[index(m)] = env_.irc->submit(m, std::move(req));
  st_[index(m)] = St::WaitDrain;
}

u16 EventHandler::rx_frame_duration_us(Mode m) const {
  // The duration field sits at bytes [2,3) of every 802.11 MAC header,
  // control and data alike; the frame is still held in the Rx page at
  // evaluation time. This is a hardware peek like the status-word reads — no
  // modelled bus traffic, the CPU never sees the frame (§3.5).
  const Bytes frame = env_.mem->read_page_bytes(m, hw::Page::Rx);
  if (const auto ctl = mac::wifi::parse_control(frame)) return ctl->duration_us;
  if (frame.size() >= mac::wifi::kHdrBytes) {
    return mac::wifi::DataHeader::decode(
               std::span<const u8>(frame.data(), mac::wifi::kHdrBytes))
        .duration_us;
  }
  return 0;
}

void EventHandler::rx_snoop(Mode m, const Bytes& frame) {
  const std::size_t i = index(m);
  if (!env_.enabled[i] || media_[i] == nullptr ||
      env_.idents[i].proto != mac::Protocol::WiFi) {
    return;
  }
  const bool nav_on =
      env_.idents[i].nav_enabled && env_.nav[i] != nullptr && env_.tb != nullptr;
  u16 dur_us = 0;
  if (const auto ctl = mac::wifi::parse_control(frame)) {
    if (!ctl->fcs_ok) return;  // Collided/garbled deliveries are noise.
    if (ctl->fc.subtype == mac::wifi::Subtype::CfEnd ||
        ctl->fc.subtype == mac::wifi::Subtype::CfEndAck) {
      // NAV truncation (802.11: "stations receiving a CF-End frame shall
      // reset their NAV"): the contention-free period closed early, so any
      // reservation covering its remainder is void. The reset wakes
      // sleeping deferrers so they re-contend immediately.
      if (nav_on) env_.nav[i]->reset(media_[i]->now());
      return;
    }
    if (ctl->ra.to_u64() == env_.idents[i].self_addr) {
      if (ctl->fc.subtype == mac::wifi::Subtype::Cts ||
          ctl->fc.subtype == mac::wifi::Subtype::Ack) {
        // Response-anchor latch: the frame that releases this station's
        // SIFS-spaced follow-on (CTS -> protected data; fragment-burst ACK
        // -> next fragment) ends exactly now. Latching its rx-end here pins
        // the anchor the transmit op uses — a bystander frame drained
        // between this release and the op cannot shift it (the documented
        // RxRfu::last_rx_end() re-anchoring bug).
        const Cycle rx_end = env_.rx_bufs[i]->last_delivered().rx_end_cycle;
        env_.mem->cpu_write(hw::ctrl_status_addr(m, CtrlWord::kRespRxEndLo),
                            static_cast<Word>(rx_end & 0xFFFFFFFFull));
        env_.mem->cpu_write(hw::ctrl_status_addr(m, CtrlWord::kRespRxEndHi),
                            static_cast<Word>(rx_end >> 32));
      }
      return;  // Frames addressed here never arm this station's own NAV.
    }
    dur_us = ctl->duration_us;
  } else {
    if (!nav_on) return;  // Data durations only matter to an enabled NAV.
    const auto mpdu = mac::wifi::parse_data_mpdu(frame);
    if (!mpdu || !mpdu->fcs_ok ||
        mpdu->hdr.addr1.to_u64() == env_.idents[i].self_addr) {
      return;
    }
    dur_us = mpdu->hdr.duration_us;
  }
  // Virtual carrier sense (NAV): a verified frame addressed to another
  // station announces how long its exchange keeps the medium reserved, and
  // the reservation counts from the frame's end — which is exactly now.
  if (!nav_on || dur_us == 0) return;
  const Cycle now = media_[i]->now();
  env_.nav[i]->arm(now + env_.tb->us_to_cycles(static_cast<double>(dur_us)), now);
}

void EventHandler::evaluate_frame(Mode m) {
  const auto& id = env_.idents[index(m)];
  const bool parse_ok = status(m, CtrlWord::kParseOk) != 0;
  const bool hcs_ok = status(m, CtrlWord::kHcsOk) != 0;
  const bool fcs_ok = status(m, CtrlWord::kFcsOk) != 0;
  ++handled_[index(m)];

  if (!parse_ok || !hcs_ok || !fcs_ok) {
    // Bad redundancy: drop silently (no ACK — the transmitter will retry).
    ++bad_[index(m)];
    st_[index(m)] = St::Idle;
    return;
  }

  switch (id.proto) {
    case mac::Protocol::WiFi: {
      const Word type_word = status(m, CtrlWord::kFrameType);
      const auto type = static_cast<mac::wifi::FrameType>(type_word >> 8);
      const auto subtype = static_cast<mac::wifi::Subtype>(type_word & 0xFF);
      if (type == mac::wifi::FrameType::Control && subtype == mac::wifi::Subtype::Ack) {
        // Only an ACK addressed to this station completes its exchange — on
        // a shared medium the point coordinator ACKs every station, and an
        // unfiltered RxAckInd would falsely complete a bystander's frame.
        const u64 ra = static_cast<u64>(status(m, CtrlWord::kDstLo)) |
                       (static_cast<u64>(status(m, CtrlWord::kDstHi)) << 32);
        if (ra == id.self_addr && raise_irq) {
          raise_irq(m, IrqEvent::RxAckInd, ctrl::kAckParamAck);
        }
        // A bystander's ACK already armed the NAV at delivery (rx_snoop).
        st_[index(m)] = St::Idle;  // Control frame: Rx page free immediately.
        return;
      }
      if (type == mac::wifi::FrameType::Control && subtype == mac::wifi::Subtype::Cts) {
        // CTS addressed to this station unblocks the protocol control's
        // RTS/CTS handshake (param distinguishes it from a data ACK).
        const u64 ra = static_cast<u64>(status(m, CtrlWord::kDstLo)) |
                       (static_cast<u64>(status(m, CtrlWord::kDstHi)) << 32);
        if (ra == id.self_addr && raise_irq) {
          raise_irq(m, IrqEvent::RxAckInd, ctrl::kAckParamCts);
        }
        // A bystander's CTS is THE hidden-node rescue — this station may be
        // deaf to the RTS originator, but the responder's CTS reserves the
        // medium for the whole protected exchange. The delivery-time
        // rx_snoop armed it already (this drain can queue behind our own
        // in-flight transmit request, far too late).
        st_[index(m)] = St::Idle;
        return;
      }
      if (type == mac::wifi::FrameType::Control &&
          (subtype == mac::wifi::Subtype::CfEnd ||
           subtype == mac::wifi::Subtype::CfEndAck)) {
        // End of the contention-free period (PCF): notify the protocol
        // control, carrying any piggybacked CF-Ack (§2.3.2.1 #11).
        if (raise_irq) {
          raise_irq(m, IrqEvent::RxInd,
                    subtype == mac::wifi::Subtype::CfEndAck ? ctrl::kRxParamCfEndAck
                                                            : ctrl::kRxParamCfEnd);
        }
        st_[index(m)] = St::Idle;
        return;
      }
      if (type == mac::wifi::FrameType::Control && subtype == mac::wifi::Subtype::Rts) {
        // Autonomous CTS after SIFS via the AckRfu — the same time-critical
        // path as the ACK; the CPU never sees the RTS (§3.5).
        const u64 ra = static_cast<u64>(status(m, CtrlWord::kDstLo)) |
                       (static_cast<u64>(status(m, CtrlWord::kDstHi)) << 32);
        if (ra != id.self_addr) {
          st_[index(m)] = St::Idle;  // Not for us: NAV only (snooped already).
          return;
        }
        // The CTS carries the RTS reservation minus the SIFS gap and its own
        // air time (802.11 duration arithmetic), so third parties that hear
        // only this responder still cover the protected exchange.
        const u32 cts_dur_us = mac::wifi::cts_duration_from_rts(
            rx_frame_duration_us(m), mac::timing_for(mac::Protocol::WiFi));
        irc::ServiceRequest req;
        req.from_cpu = false;
        req.ops = {{Op::CtsGenWifi,
                    {status(m, CtrlWord::kSrcLo), status(m, CtrlWord::kSrcHi),
                     static_cast<u32>(index(m)), page_base(m, Page::Ack), cts_dur_us}}};
        tag_[index(m)] = env_.irc->submit(m, std::move(req));
        st_[index(m)] = St::WaitCtsGen;
        return;
      }
      if (type == mac::wifi::FrameType::Management &&
          subtype == mac::wifi::Subtype::Beacon) {
        // Passive scanning / synchronization (§2.3.2.1 #13/#15): beacons are
        // broadcast, never ACKed; the management plane (CPU) records them.
        if (raise_irq) raise_irq(m, IrqEvent::RxInd, ctrl::kRxParamBeacon);
        st_[index(m)] = St::WaitRelease;  // CPU reads the body, then releases.
        return;
      }
      if (type == mac::wifi::FrameType::Data) {
        // Address filter: only frames addressed to this station are ACKed.
        const u64 dst = static_cast<u64>(status(m, CtrlWord::kDstLo)) |
                        (static_cast<u64>(status(m, CtrlWord::kDstHi)) << 32);
        if (dst != id.self_addr) {
          st_[index(m)] = St::Idle;  // Overheard exchange: NAV snooped already.
          return;
        }
        if (subtype == mac::wifi::Subtype::CfPoll ||
            subtype == mac::wifi::Subtype::CfAckCfPoll) {
          // PCF poll: the protocol control answers it (data or Null) after
          // SIFS; polls are never ACKed with ACK frames (§2.3.2.1 #5).
          if (raise_irq) {
            raise_irq(m, IrqEvent::RxInd,
                      subtype == mac::wifi::Subtype::CfAckCfPoll
                          ? ctrl::kRxParamCfPollAck
                          : ctrl::kRxParamCfPoll);
          }
          st_[index(m)] = St::Idle;  // Polls carry no payload to hold.
          return;
        }
        if (subtype != mac::wifi::Subtype::Data) {
          st_[index(m)] = St::Idle;  // Null or other no-payload subtypes.
          return;
        }
        // Autonomous ACK after SIFS — the time-critical path (§3.5). When
        // the station runs SIFS-spaced fragment bursts and the fragment
        // announces more to come, the ACK re-announces the remaining
        // reservation (802.11 §9.1.4) so bystanders that hear only this
        // receiver keep their NAV chained across the burst.
        const bool chain = id.frag_burst_enabled &&
                           status(m, CtrlWord::kMoreFrag) != 0;
        const u32 ack_dur =
            chain ? mac::wifi::ack_duration_from_data(
                        rx_frame_duration_us(m),
                        mac::timing_for(mac::Protocol::WiFi))
                  : 0;
        irc::ServiceRequest req;
        req.from_cpu = false;
        if (ack_dur > 0) {
          req.ops = {{Op::AckGenWifiDur,
                      {status(m, CtrlWord::kSrcLo), status(m, CtrlWord::kSrcHi),
                       static_cast<u32>(index(m)), page_base(m, Page::Ack),
                       ack_dur}}};
        } else {
          req.ops = {{Op::AckGenWifi,
                      {status(m, CtrlWord::kSrcLo), status(m, CtrlWord::kSrcHi),
                       static_cast<u32>(index(m)), page_base(m, Page::Ack)}}};
        }
        tag_[index(m)] = env_.irc->submit(m, std::move(req));
        st_[index(m)] = St::WaitAckGen;
        return;
      }
      st_[index(m)] = St::Idle;
      return;
    }
    case mac::Protocol::Uwb: {
      const auto type = static_cast<mac::uwb::FrameType>(status(m, CtrlWord::kFrameType));
      if (type == mac::uwb::FrameType::ImmAck) {
        // Same shared-medium filter as the WiFi ACK: an Imm-ACK names the
        // station it acknowledges in its dest id.
        if (status(m, CtrlWord::kDstLo) == id.dev_id && raise_irq) {
          raise_irq(m, IrqEvent::RxAckInd, 0);
        }
        st_[index(m)] = St::Idle;
        return;
      }
      if (type == mac::uwb::FrameType::Data) {
        const Word dst = status(m, CtrlWord::kDstLo);
        if (dst != id.dev_id) {
          st_[index(m)] = St::Idle;
          return;
        }
        if (status(m, CtrlWord::kAckPolicy) != 0) {
          irc::ServiceRequest req;
          req.from_cpu = false;
          req.ops = {{Op::AckGenUwb,
                      {status(m, CtrlWord::kSrcLo), id.dev_id,
                       static_cast<u32>(index(m)), page_base(m, Page::Ack)}}};
          tag_[index(m)] = env_.irc->submit(m, std::move(req));
          st_[index(m)] = St::WaitAckGen;
          return;
        }
        if (raise_irq) raise_irq(m, IrqEvent::RxInd, 0);
        st_[index(m)] = St::WaitRelease;
        return;
      }
      st_[index(m)] = St::Idle;
      return;
    }
    case mac::Protocol::WiMax: {
      // Both data MPDUs and ARQ feedback go to the CPU; WiMAX uses no ACK
      // frames ("for WiMAX their role is limited", §2.3.2.1 #10).
      if (raise_irq) raise_irq(m, IrqEvent::RxInd, 0);
      st_[index(m)] = St::WaitRelease;
      return;
    }
  }
}

void EventHandler::on_request_complete(Mode m, u32 tag) {
  wake_self();
  if (tag != tag_[index(m)]) return;
  switch (st_[index(m)]) {
    case St::WaitDrain:
      evaluate_frame(m);
      return;
    case St::WaitAckGen:
      ++acked_[index(m)];
      if (raise_irq) raise_irq(m, IrqEvent::RxInd, 0);
      st_[index(m)] = St::WaitRelease;
      return;
    case St::WaitCtsGen:
      // CTS staged; the RTS itself carries nothing for the CPU.
      ++cts_[index(m)];
      st_[index(m)] = St::Idle;
      return;
    default:
      return;
  }
}

void EventHandler::release(Mode m) {
  wake_self();  // The freed Rx page may admit the next buffered frame.
  if (st_[index(m)] == St::WaitRelease) st_[index(m)] = St::Idle;
}

Cycle EventHandler::quiescent_for() const {
  // Every non-Idle state is a pure wait on a callback that wakes this
  // component (request completion, Rx-page release); a tick only *acts*
  // when some enabled mode is Idle with a frame waiting.
  for (std::size_t i = 0; i < kNumModes; ++i) {
    if (!env_.enabled[i]) continue;
    if (st_[i] == St::Idle && env_.rx_bufs[i] != nullptr &&
        env_.rx_bufs[i]->frame_ready()) {
      return 0;
    }
  }
  return kIdleForever;
}

void EventHandler::skip_idle(Cycle n) {
  // Replays the per-mode sampling of n constant-state ticks.
  for (std::size_t i = 0; i < kNumModes; ++i) {
    if (env_.enabled[i]) busy_.sample_n(st_[i] != St::Idle, n);
  }
}

void EventHandler::tick() {
  for (std::size_t i = 0; i < kNumModes; ++i) {
    if (!env_.enabled[i]) continue;
    busy_.sample(st_[i] != St::Idle);
    if (st_[i] == St::Idle && env_.rx_bufs[i] != nullptr &&
        env_.rx_bufs[i]->frame_ready()) {
      submit_drain(mode_from_index(i));
    }
  }
}

}  // namespace drmp
