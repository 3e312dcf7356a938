// PHY substrate: a shared medium per protocol band plus per-device PHY
// transmit/receive pipes running at the protocol line rate.
//
// The paper's testbed drives the DRMP model with PHY interface signals for
// three protocols (Fig. 3.3); radio hardware is outside its scope too — the
// Simulink testbench generated and consumed PHY byte streams. This model does
// the same: frames occupy the medium for len*8/line_rate seconds, carrier
// sense (CCA) is exposed for the CSMA/CA access RFU, and attached clients
// receive each frame when its last byte arrives.
//
// `Medium` is the channel interface with two backends:
//   * this base class — the point-to-point backend of the paper's
//     single-station-plus-peer experiments. It is collision-free by
//     *contract*: overlapping transmissions are a hard error in every build
//     type (clients gate on cca_busy(), so a trip means an assembly bug).
//   * net::ContendedMedium — real shared-channel semantics for multi-station
//     cells: overlap is a defined, counted outcome (collisions), carrier
//     sense has a detection latency (the collision window), and an optional
//     capture effect lets an established frame survive a late interferer.
#pragma once

#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/arena.hpp"
#include "common/types.hpp"
#include "mac/protocol.hpp"
#include "obs/flight_recorder.hpp"
#include "phy/buffers.hpp"
#include "sim/clock.hpp"
#include "sim/scheduler.hpp"
#include "sim/stats.hpp"

namespace drmp::phy {

class Medium;

/// Anything that can receive frames from a medium.
class MediumClient {
 public:
  virtual ~MediumClient() = default;
  /// Called when a frame's last byte arrives. `source` identifies the sender
  /// so clients can ignore their own transmissions.
  virtual void on_frame(const Bytes& frame, Cycle rx_end_cycle, int source) = 0;
};

/// One wireless channel (band) shared by all stations of one protocol mode.
/// This base class is the point-to-point backend; see the header comment.
class Medium : public sim::Clockable {
 public:
  Medium(mac::Protocol proto, const sim::TimeBase& tb)
      : proto_(proto),
        timing_(mac::timing_for(proto)),
        byte_cycles_(tb.arch_freq() * 8.0 / timing_.line_rate_bps) {}

  /// Listener id for receivers outside any audibility matrix (access points,
  /// point-to-point peers, passive sinks): they hear every transmitter.
  static constexpr int kOmniListener = -1;

  /// Attaches a receiver. `listener_id` names the client on contended media
  /// with a non-trivial audibility matrix (same id space as begin_tx
  /// sources); the default is omnidirectional, which every backend treats
  /// exactly like the historic unqualified attach.
  void attach(MediumClient& c, int listener_id = kOmniListener) {
    clients_.push_back(Attached{&c, listener_id});
  }

  mac::Protocol protocol() const noexcept { return proto_; }
  const mac::ProtocolTiming& timing() const noexcept { return timing_; }

  // Every public read of time-derived state settles the medium first: a
  // sleeping medium is brought up to the reader's cycle (settle-on-read,
  // sim/scheduler.hpp), so it executes only its event ticks.

  /// Ground truth: is any transmission on the air this cycle?
  bool busy() const noexcept {
    settle_self();
    return now_ < tx_end_;
  }
  Cycle now() const noexcept {
    settle_self();
    return now_;
  }
  /// Cycles the medium has been continuously idle (for DIFS checks).
  Cycle idle_for() const noexcept { return busy() ? 0 : now_ - tx_end_; }

  /// Carrier sense as a station's CCA circuit perceives it. Device-side
  /// transmit gates (PhyTx, BackoffRfu, ScriptedPeer) must use this view,
  /// never busy(): contended backends add a detection latency, and the
  /// window between a transmission starting and becoming audible is exactly
  /// where collisions live.
  virtual bool cca_busy() const noexcept { return busy(); }
  /// Continuously-idle cycles as perceived by CCA (DIFS/SIFS reference).
  virtual Cycle cca_idle_for() const noexcept { return idle_for(); }
  /// Earliest clock value at which cca_busy() could read false, given the
  /// transmissions currently on the air (new ones only push it later). A
  /// conservative sleep bound for transmit gates waiting on a clear channel.
  virtual Cycle cca_clear_at() const noexcept { return std::max(now(), tx_end_); }
  /// Earliest clock value at which cca_busy() could turn true *without* a
  /// new transmission. Always "never" on this live-view backend (only
  /// begin_tx — which wakes subscribers — can raise the carrier), but a
  /// contended backend's detection latency schedules perceived onsets into
  /// the future, and a component whose tick behaviour depends on the
  /// carrier (the access RFU's defer accounting) must not sleep past one.
  virtual Cycle cca_busy_onset_at() const noexcept { return sim::Clockable::kIdleForever; }

  // ---- Listener-qualified carrier sense ----
  // On a contended medium with a per-station audibility matrix, carrier
  // sense is a property of the *listener*: a hidden transmission raises no
  // CCA at a station outside its footprint. Transmit gates pass their own
  // station id; this point-to-point base (and any trivial matrix) ignores
  // it, so the qualified and unqualified views are identical there.
  virtual bool cca_busy(int /*listener*/) const noexcept { return cca_busy(); }
  virtual Cycle cca_idle_for(int /*listener*/) const noexcept { return cca_idle_for(); }
  virtual Cycle cca_clear_at(int /*listener*/) const noexcept { return cca_clear_at(); }
  virtual Cycle cca_busy_onset_at(int /*listener*/) const noexcept {
    return cca_busy_onset_at();
  }

  Cycle frame_air_cycles(std::size_t nbytes) const {
    return static_cast<Cycle>(byte_cycles_ * static_cast<double>(nbytes) + 0.5);
  }

  /// Starts a transmission; returns the cycle at which it completes. Wakes
  /// the medium (its next delivery moved) and its carrier subscribers. The
  /// point-to-point backend treats overlap as a hard error in all build
  /// types (it would silently garble the experiment); contended backends
  /// turn overlap into counted collisions.
  virtual Cycle begin_tx(Bytes frame, int source);

  /// Foreign-carrier image: energy from a transmission on a *different*
  /// medium (a co-channel neighbour cell) occupying this channel over
  /// [start, end). No frame is ever delivered from it — it is carrier and
  /// collision physics only; net::ChannelCoupler forwards begin_tx events
  /// between coupled media through it, already shifted by the inter-cell
  /// propagation+detection latency, so `start` is never in this medium's
  /// past. The point-to-point backend has no notion of co-channel
  /// neighbours and rejects it in every build type.
  virtual void begin_remote_tx(Cycle start, Cycle end, int source);

  /// Observer hook: invoked at the end of every begin_tx with the
  /// transmission's air window and source (same idiom as `tamper`).
  /// net::ChannelCoupler uses it to mirror local transmissions into
  /// co-channel neighbour cells; begin_remote_tx does NOT fire it, so
  /// forwarded carrier never cascades.
  std::function<void(Cycle start, Cycle end, int source)> on_tx;

  void tick() override;

  // ---- Quiescence contract (sim/scheduler.hpp) ----
  /// Sleeps to the next delivery event; reads of its time-derived state
  /// (polled live by transmit gates and access RFUs) settle it first.
  Cycle quiescent_for() const override;
  void skip_idle(Cycle n) override;

  /// Registers a component to wake whenever a transmission starts: transmit
  /// gates sleeping against this medium's carrier must re-evaluate when new
  /// energy appears on the air. Idempotent (re-wiring is common).
  void subscribe_wake(sim::Clockable& c) {
    for (const sim::Clockable* s : wake_subs_) {
      if (s == &c) return;
    }
    wake_subs_.push_back(&c);
  }

  Cycle busy_cycles() const noexcept {
    settle_self();
    return busy_cycles_;
  }

  /// Fault injector: invoked on each frame as its last byte arrives, before
  /// delivery to the clients; return true if the frame was modified. Models
  /// on-air corruption ("higher chances of data corruption/distortion during
  /// transmission", thesis §2.3.1) for the redundancy-check failure paths.
  std::function<bool(Bytes&)> tamper;
  u64 tampered_frames() const noexcept { return tampered_; }

  // ---- Receive-quality reference (EIFS, 802.11 §9.2.3.4) ----
  /// True while this listener's most recent reception was damaged — its FCS
  /// would fail (collided, garbled, or channel-corrupted) — with no clean
  /// reception since. The access RFU extends its pre-contention defer from
  /// DIFS to EIFS while this holds: the undecodable frame may have been
  /// data whose ACK the listener cannot anticipate, so it must leave room
  /// for it. A subsequent clean reception cancels the condition, exactly
  /// like the standard's NAV-update rule. The flip can only happen at a
  /// delivery edge, which every affected listener perceives as carrier
  /// (audible through end + latency), so a transmit gate that re-evaluates
  /// on carrier edges — as the quiescence contract already requires — can
  /// never observe a stale value.
  bool eifs_pending(int listener) const noexcept {
    const auto it = rx_quality_.find(listener);
    return it != rx_quality_.end() && it->second.bad_end > it->second.good_end;
  }
  /// Switches the per-listener receive-quality records on. Off by default —
  /// the only consumer is eifs_pending(), so media in flag-off workloads
  /// skip the bookkeeping entirely. The access RFU enables it on the media
  /// of EIFS-honouring modes at wire-up; tests driving a medium directly
  /// call it themselves.
  void track_rx_quality() { track_rx_quality_ = true; }

  /// Per-cell frame arena: a frame's bytes die here (delivered or expired),
  /// and the cell's TxBuffers draw next-frame storage from the same pool
  /// (bound by DrmpDevice at attach time), so steady-state traffic recycles
  /// a fixed set of buffers instead of hitting the heap per frame.
  ByteArena& frame_arena() noexcept { return arena_; }

  // ---- Checkpoint support (sim/checkpoint.hpp) ----
  /// The channel clock, in-flight physics and receive-quality records.
  /// Virtual so net::ContendedMedium extends the pair with its on-air set.
  virtual void save_state(sim::snap::Writer& w);
  virtual void load_state(sim::snap::Reader& r);

 protected:
  template <class Ar>
  void persist_medium(Ar& ar) {
    ar.io(now_);
    ar.io(tx_end_);
    ar.io(busy_cycles_);
    ar.io(tampered_);
    ar.io(rx_quality_);
    ar.io(in_flight_);
  }

  /// One attached receiver and the listener id it perceives the channel as.
  struct Attached {
    MediumClient* client = nullptr;
    int listener_id = kOmniListener;
  };

  /// Applies the fault injector and fans the frame out to every client.
  /// `pre_damaged` marks a frame the channel already garbled (collision in
  /// deliver-garbled mode) so the receive-quality records stay honest even
  /// when the injector leaves it alone.
  void deliver(Bytes& frame, Cycle rx_end_cycle, int source, bool pre_damaged = false);
  /// True when `listener` was itself transmitting as the frame's last byte
  /// arrived: a half-duplex radio receives nothing of a frame whose end it
  /// talked over, so neither a bad nor a clean record applies. The base
  /// (point-to-point) backend cannot overlap, so nobody is ever deaf.
  virtual bool listener_deaf_at(int /*listener*/, Cycle /*end*/) const noexcept {
    return false;
  }
  /// Records one listener's reception outcome at `end` (EIFS reference).
  void note_rx_quality(int listener_id, Cycle end, bool bad) {
    if (!track_rx_quality_ || listener_deaf_at(listener_id, end)) return;
    auto& q = rx_quality_[listener_id];
    (bad ? q.bad_end : q.good_end) = std::max(bad ? q.bad_end : q.good_end, end);
  }
  /// Records `bad`/clean at `end` for every attached listener except the
  /// transmitter itself (a half-duplex radio receives nothing while it
  /// sends). Used for frames withheld from delivery: a dropped collision is
  /// still undecodable energy at every receiver that heard it.
  void record_rx_quality(int source, Cycle end, bool bad) {
    if (!track_rx_quality_) return;
    for (const Attached& a : clients_) {
      if (a.listener_id != source) note_rx_quality(a.listener_id, end, bad);
    }
  }
  /// Wakes every carrier subscriber (call from begin_tx overrides).
  void wake_subscribers() {
    for (sim::Clockable* c : wake_subs_) c->wake_self();
  }
  /// Replays n ticks' worth of channel-occupancy accounting.
  void account_busy_skip(Cycle n) {
    busy_cycles_ += tx_end_ > now_ ? std::min(n, tx_end_ - now_) : 0;
  }

  mac::Protocol proto_;
  const mac::ProtocolTiming timing_;
  double byte_cycles_;
  Cycle now_ = 0;
  Cycle tx_end_ = 0;
  std::vector<Attached> clients_;
  std::vector<sim::Clockable*> wake_subs_;
  Cycle busy_cycles_ = 0;
  u64 tampered_ = 0;

  /// Last damaged / last clean reception end per listener id (EIFS).
  struct RxQuality {
    Cycle bad_end = 0;
    Cycle good_end = 0;

    template <class Ar>
    void persist(Ar& ar) {
      ar.io(bad_end);
      ar.io(good_end);
    }
  };
  std::map<int, RxQuality> rx_quality_;
  bool track_rx_quality_ = false;
  ByteArena arena_;  ///< See frame_arena().

 private:
  struct InFlight {
    Bytes frame;
    Cycle end;
    int source;

    template <class Ar>
    void persist(Ar& ar) {
      ar.io(frame);
      ar.io(end);
      ar.io(source);
    }
  };

  std::vector<InFlight> in_flight_;
};

/// Device-side PHY transmitter: the PHY-side FSM of the Tx translational
/// buffer (Fig. 3.15b). Watches the TxBuffer, and when a staged frame's
/// earliest-start has passed and the medium is (perceived) idle, puts it on
/// the air.
class PhyTx : public sim::Clockable {
 public:
  PhyTx(TxBuffer& buf, Medium& medium, int source_id)
      : buf_(buf), medium_(medium), source_id_(source_id) {
    medium.subscribe_wake(*this);  // Re-evaluate when new carrier appears.
  }

  void tick() override;

  /// Quiescence: nothing staged -> sleep until the buffer push hook wakes
  /// us; a staged frame sleeps to the first cycle every transmit gate
  /// (earliest_start, own half-duplex window, perceived-idle carrier) could
  /// pass. No per-tick state, so skipped ticks need no accounting.
  Cycle quiescent_for() const override;

  /// Number of frames fully handed to the medium.
  u64 frames_sent() const noexcept { return frames_sent_; }
  /// Perishable (SIFS-anchored) frames abandoned because they could not
  /// start by their latest_start — the exchange they belonged to has moved
  /// on; the peer's timeout machinery carries the recovery.
  u64 frames_expired() const noexcept { return frames_expired_; }
  /// Expiries broken out by what the dead frame was. An expired ACK or CTS
  /// means a *responder* went silent: the initiator's ACK/CTS timeout is
  /// the only recovery, and any NAV its exchange armed simply runs out —
  /// the fleet tests pin that no reservation outlives its announced expiry.
  u64 frames_expired(TxKind k) const noexcept {
    return expired_by_kind_[static_cast<std::size_t>(k)];
  }
  Cycle last_tx_start() const noexcept { return last_tx_start_; }
  bool transmitting() const noexcept { return medium_.now() < last_tx_end_; }

  /// Attaches a flight recorder (null detaches): frame-expiry edges land on
  /// `track`. The drop tick always executes (the quiescence bound points at
  /// it), so the stream is deterministic across skip modes.
  void set_recorder(obs::FlightRecorder* rec, u16 track) noexcept {
    rec_ = rec;
    rec_track_ = track;
  }

  /// Checkpoint support (sim/checkpoint.hpp).
  template <class Ar>
  void persist(Ar& ar) {
    ar.io(frames_sent_);
    ar.io(frames_expired_);
    ar.io(expired_by_kind_);
    ar.io(last_tx_start_);
    ar.io(last_tx_end_);
  }

 private:
  TxBuffer& buf_;
  Medium& medium_;
  int source_id_;
  u64 frames_sent_ = 0;
  u64 frames_expired_ = 0;
  std::array<u64, kNumTxKinds> expired_by_kind_{};
  Cycle last_tx_start_ = 0;
  Cycle last_tx_end_ = 0;
  obs::FlightRecorder* rec_ = nullptr;
  u16 rec_track_ = 0;
};

/// Device-side PHY receiver: deposits frames addressed over this medium into
/// the RxBuffer (PHY-side FSM of the Rx translational buffer).
class PhyRx : public MediumClient {
 public:
  PhyRx(RxBuffer& buf, int self_id) : buf_(buf), self_id_(self_id) {}

  void on_frame(const Bytes& frame, Cycle rx_end_cycle, int source) override {
    if (source == self_id_) return;
    buf_.deliver(frame, rx_end_cycle);
    ++frames_received_;
  }

  u64 frames_received() const noexcept { return frames_received_; }

  /// Checkpoint support (sim/checkpoint.hpp).
  template <class Ar>
  void persist(Ar& ar) {
    ar.io(frames_received_);
  }

 private:
  RxBuffer& buf_;
  int self_id_;
  u64 frames_received_ = 0;
};

}  // namespace drmp::phy
