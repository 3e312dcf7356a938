// Translational buffers at the MAC-PHY boundary (thesis §3.6.6, Fig. 3.15).
//
// "These buffers translate between 1) 32 bit data words of the architecture
// and data width required by the PHY (e.g. byte-wide transfer in case of
// WiFi); and 2) architecture frequency and protocol frequency." Each buffer
// is controlled by two interacting asynchronous state machines: the DRMP side
// runs at architecture frequency and word width (the Tx/Rx RFUs burst frames
// in and out quickly, leaving the co-processor free for other modes), the PHY
// side at protocol frequency and byte width.
#pragma once

#include <functional>
#include <optional>
#include <span>

#include "common/arena.hpp"
#include "common/types.hpp"

namespace drmp::phy {

/// What a staged frame is, for the per-kind expiry accounting: when a
/// perishable response dies (PhyTx drops it past latest_start), the
/// recovery path differs by kind — an expired ACK/CTS leaves the exchange
/// to the *initiator's* timeout, expired SIFS-anchored data to its own —
/// and the fleet reports break the counts out accordingly.
enum class TxKind : u8 {
  kData = 0,      ///< Channel-access-granted frame (never expires).
  kAck = 1,       ///< Autonomous SIFS ACK / Imm-ACK.
  kCts = 2,       ///< Autonomous SIFS CTS.
  kSifsData = 3,  ///< SIFS-anchored data (CTS-released / fragment burst).
};
inline constexpr std::size_t kNumTxKinds = 4;

/// A frame staged for transmission.
struct TxFrameEntry {
  Bytes bytes;
  /// Earliest architecture cycle at which the PHY may start sending it
  /// (channel-access grant for data, rx-end + SIFS for ACKs).
  Cycle earliest_start = 0;
  /// Latest cycle at which the transmission may still begin. SIFS-anchored
  /// responses (ACK/CTS, CTS-released data) are perishable: they belong to
  /// an exchange with hard timing, and one that cannot start roughly on
  /// time must be abandoned — the peer's timeout machinery retries — rather
  /// than deferred to a carrier-clear edge, where every other station's
  /// deferred response releases on the same cycle and collides forever.
  /// Channel-access-granted frames never expire.
  Cycle latest_start = ~Cycle{0};
  TxKind kind = TxKind::kData;

  template <class Ar>
  void persist(Ar& ar) {
    ar.io(bytes);
    ar.io(earliest_start);
    ar.io(latest_start);
    ar.io(kind);
  }
};

/// Transmission buffer: DRMP side pushes words at architecture rate, PHY side
/// drains bytes at protocol rate (drain handled by PhyTx).
class TxBuffer {
 public:
  // ---- DRMP side (word-wide, architecture frequency) ----
  void begin_frame() {
    if (arena_ != nullptr && staging_.capacity() == 0) staging_ = arena_->acquire();
    staging_.clear();
  }
  void push_word(Word w) {
    for (int i = 0; i < 4; ++i) staging_.push_back(static_cast<u8>(w >> (8 * i)));
  }
  void push_byte(u8 b) { staging_.push_back(b); }
  void push_bytes(std::span<const u8> b) { staging_.insert(staging_.end(), b.begin(), b.end()); }
  void end_frame(std::size_t nbytes, Cycle earliest_start,
                 Cycle latest_start = ~Cycle{0}, TxKind kind = TxKind::kData) {
    staging_.resize(nbytes);
    TxFrameEntry& e = queue_.push_slot();
    e.bytes = std::move(staging_);
    e.earliest_start = earliest_start;
    e.latest_start = latest_start;
    e.kind = kind;
    staging_ = Bytes{};
    if (on_push) on_push();
  }

  /// Binds the per-cell frame arena (wired by DrmpDevice at attach time):
  /// begin_frame draws retired storage from it instead of the heap. The
  /// medium — where a staged frame's bytes end their life — releases into
  /// the same arena, closing the steady-state allocation loop.
  void bind_arena(ByteArena* a) noexcept { arena_ = a; }

  /// Wake hook: invoked when a frame is staged, so a quiescent PhyTx
  /// re-evaluates its sleep bound (wired by DrmpDevice).
  std::function<void()> on_push;

  // ---- PHY side ----
  bool frame_pending() const noexcept { return !queue_.empty(); }
  const TxFrameEntry& front() const { return queue_.front(); }
  TxFrameEntry pop() {
    TxFrameEntry e = std::move(queue_.front());
    queue_.pop_front();
    return e;
  }

  std::size_t depth() const noexcept { return queue_.size(); }

  /// Checkpoint support (sim/checkpoint.hpp): staging plus the queued
  /// frames; the arena binding and the wake hook are wiring.
  template <class Ar>
  void persist(Ar& ar) {
    ar.io(staging_);
    ar.io(queue_);
  }

 private:
  Bytes staging_;
  RingQueue<TxFrameEntry> queue_;
  ByteArena* arena_ = nullptr;
};

/// A frame received from the PHY.
struct RxFrameEntry {
  Bytes bytes;
  Cycle rx_end_cycle = 0;  ///< When the last byte arrived (SIFS reference).

  template <class Ar>
  void persist(Ar& ar) {
    ar.io(bytes);
    ar.io(rx_end_cycle);
  }
};

/// Reception buffer: PHY side deposits whole frames as their last byte
/// arrives; DRMP side (RxRfu) drains words at architecture rate.
class RxBuffer {
 public:
  // ---- PHY side ----
  /// Deposits a copy of `frame` (the medium fans one buffer out to every
  /// listener, so the buffer must copy). The copy lands in a retired ring
  /// slot via assign(), reusing its capacity — in steady state a delivery
  /// touches the heap only while the ring is still priming.
  void deliver(const Bytes& frame, Cycle rx_end_cycle) {
    RxFrameEntry& e = queue_.push_slot();
    e.bytes.assign(frame.begin(), frame.end());
    e.rx_end_cycle = rx_end_cycle;
    if (on_deliver) on_deliver();
  }

  /// Wake hook: invoked on each delivered frame, so a quiescent Event
  /// Handler re-evaluates (wired by DrmpDevice).
  std::function<void()> on_deliver;

  /// The frame most recently deposited (valid inside on_deliver: the PHY
  /// side just pushed it). The Event Handler's NAV snoop reads the duration
  /// field here, at frame end, like real MAC hardware.
  const RxFrameEntry& last_delivered() const { return queue_.back(); }

  // ---- DRMP side ----
  bool frame_ready() const noexcept { return !queue_.empty(); }
  std::size_t frame_bytes() const { return queue_.front().bytes.size(); }
  /// The frame at the head of the queue.
  const Bytes& frame() const { return queue_.front().bytes; }
  Cycle frame_rx_end() const { return queue_.front().rx_end_cycle; }

  /// Reads the i-th word of the frame at the head of the queue.
  Word peek_word(std::size_t word_idx) const {
    Word w = 0;
    const Bytes& b = queue_.front().bytes;
    for (std::size_t i = 0; i < 4; ++i) {
      const std::size_t idx = word_idx * 4 + i;
      if (idx < b.size()) w |= static_cast<Word>(b[idx]) << (8 * i);
    }
    return w;
  }

  /// Moves the head frame out (test/introspection convenience; takes its
  /// storage with it). The hot path uses drop_front() instead.
  RxFrameEntry pop() {
    RxFrameEntry e = std::move(queue_.front());
    queue_.pop_front();
    return e;
  }

  /// Retires the head frame in place, keeping its storage in the ring for
  /// the next delivery (the zero-allocation drain path: read what you need
  /// via frame_rx_end()/peek_word() first).
  void drop_front() { queue_.pop_front(); }

  std::size_t depth() const noexcept { return queue_.size(); }

  /// Checkpoint support (sim/checkpoint.hpp).
  template <class Ar>
  void persist(Ar& ar) {
    ar.io(queue_);
  }

 private:
  RingQueue<RxFrameEntry> queue_;
};

}  // namespace drmp::phy
