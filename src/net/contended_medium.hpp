// ContendedMedium — the shared-channel backend of phy::Medium.
//
// The point-to-point base class serves the paper's single-station-plus-peer
// experiments, where overlap cannot happen by construction. A multi-station
// cell needs the opposite: overlap as a *defined, counted outcome*. This
// backend models the physical effects that make CSMA/CA a non-trivial MAC
// workload (cf. "Medium Access Control in Wireless NoC: A Context Analysis",
// arXiv:1806.06294):
//
//   * Carrier-sense latency. A transmission only becomes audible to other
//     stations' CCA circuits `cca_latency` after its first bit (energy
//     detection plus rx/tx turnaround — up to one slot time in 802.11 DSSS,
//     which is precisely why the slot time exists). Stations whose backoff
//     expires inside that window transmit over each other: the collision
//     window of the classic CSMA analysis.
//   * Collisions. Every transmission that overlaps another on the air is
//     marked collided. A collided frame is dropped before delivery (the
//     receiver saw noise) or, optionally, delivered garbled so the
//     redundancy-check failure paths are exercised; either way no ACK comes
//     back and the transmitter's timeout/retry machinery — CW doubling in
//     the BackoffRfu — carries the recovery, exactly the behaviour the DRMP
//     is sold on handling efficiently.
//   * Capture effect (optional). A receiver that has locked onto a frame's
//     preamble for `capture_preamble` keeps it through a late-starting
//     interferer: the established frame survives, only the newcomer is lost.
//   * Hidden nodes (optional). A per-station AudibilityMatrix makes every
//     channel property a property of the *listener*: a hidden station's CCA
//     never sees the ongoing frame it transmits over, and only receivers
//     inside both transmitters' footprints observe the collision —
//     participants outside the matrix (the access point, test sinks) are
//     omnidirectional and observe every overlap. The default (trivial)
//     matrix takes the original single-viewpoint code paths untouched, so
//     pre-existing cells keep bit-identical digests; an explicit all-ones
//     matrix runs the per-listener machinery and reproduces them (pinned).
//   * Co-channel neighbour cells (optional). begin_remote_tx injects
//     foreign-carrier images forwarded by net::ChannelCoupler from other
//     cells' media: pure energy that raises CCA, occupies the channel and
//     jams overlapping local transmissions, but is never delivered and
//     counts in its home cell only. Images carry absolute air windows that
//     may start in the future (the coupler's propagation+detection latency
//     shift), so every overlap verdict here is interval arithmetic —
//     independent of injection order, which is what lets the lax-sync
//     window-edge exchange match an immediate-injection reference
//     bit-for-bit (see docs/MULTICELL.md). A medium that never sees an
//     image runs the original code paths untouched.
//
// Per-source airtime/frame/collision counters feed the scenario engine's
// fleet reports; everything is cycle-deterministic, so shared-medium cells
// keep the fleet's bit-identical digest guarantee.
#pragma once

#include <map>
#include <utility>
#include <vector>

#include "net/audibility.hpp"
#include "obs/flight_recorder.hpp"
#include "phy/phy_model.hpp"

namespace drmp::net {

class ContendedMedium final : public phy::Medium {
 public:
  struct Params {
    /// Capture effect: an uncollided frame on the air for at least this
    /// long survives a late interferer. 0 disables capture (every overlap
    /// kills all parties).
    double capture_preamble_us = 0.0;
    /// Collided frames are delivered with deterministic bit damage instead
    /// of being dropped, driving the receivers' FCS/HCS failure paths.
    bool deliver_garbled = false;
    /// Per-station reachability (see net/audibility.hpp). Trivial = every
    /// listener hears every transmitter through the original code paths.
    /// Non-trivial matrices support at most kMaxMatrixListeners stations;
    /// map each one with map_station() before traffic flows.
    AudibilityMatrix audibility;
  };

  /// Jam masks are u64 bitsets over matrix indices.
  static constexpr std::size_t kMaxMatrixListeners = 64;

  /// Per-source channel accounting (key: station/source id).
  struct SourceStats {
    u64 frames = 0;      ///< Transmissions started.
    u64 collisions = 0;  ///< ... of which ended collided.
    Cycle airtime = 0;   ///< Cycles this source's signal occupied the air.

    template <class Ar>
    void persist(Ar& ar) {
      ar.io(frames);
      ar.io(collisions);
      ar.io(airtime);
    }
  };

  ContendedMedium(mac::Protocol proto, const sim::TimeBase& tb, Params p);
  ContendedMedium(mac::Protocol proto, const sim::TimeBase& tb)
      : ContendedMedium(proto, tb, Params()) {}

  /// Binds a transmitter/listener id (the begin_tx source id space) to a row
  /// of the audibility matrix. Required for every matrix-covered station of
  /// a non-trivial matrix; unmapped ids stay omnidirectional.
  void map_station(int source_id, std::size_t matrix_index);

  /// Publishes a new topology epoch (net::TopologyDriver): swaps the
  /// audibility matrix and re-masks every undelivered local transmission
  /// against it — pairwise interval arithmetic over the live entries, which
  /// reproduces exactly the masks begin_tx accumulated whenever the matrix
  /// is unchanged. The omni `collided` flag and the collision counters are
  /// matrix-independent (any overlap collides at an omnidirectional
  /// receiver) and are not touched; CCA views, delivery partitioning and
  /// retirement consult the matrix lazily at evaluation time, so in-flight
  /// frames are judged against the epoch active at their delivery
  /// evaluation, as the dynamic-topology contract requires. Station count
  /// must match the current matrix (no trivial<->non-trivial transitions)
  /// and the capture effect must be off — a capture verdict taken under an
  /// earlier epoch cannot be re-litigated. A revision equal to the current
  /// matrix is a no-op (not an epoch). Wakes carrier subscribers and the
  /// medium's own lane so sleeping gates re-evaluate.
  void apply_audibility(const AudibilityMatrix& m);
  /// Checkpoint-load path: installs a restored matrix + epoch counter
  /// without re-masking (Tx jam masks are persisted) and without waking.
  void restore_audibility(const AudibilityMatrix& m, u64 epoch);
  /// Revisions applied so far (0 = the construction-time matrix).
  u64 topology_epoch() const noexcept { return topology_epoch_; }

  Cycle begin_tx(Bytes frame, int source) override;

  /// Foreign-carrier image from a co-channel neighbour cell (see
  /// phy::Medium::begin_remote_tx). The entry is pure energy: it raises
  /// every listener's CCA over the perceived window (omnidirectional — the
  /// inter-cell reach decision was the coupler's), jams any local
  /// transmission whose air interval overlaps, and occupies busy_cycles();
  /// it is never delivered, leaves no receive-quality record (a decodable
  /// neighbour-cell frame is foreign-addressed traffic, not an FCS failure)
  /// and counts toward no local frame/collision/airtime counter — the
  /// originating cell counts its own transmission. `start` must not lie in
  /// the past (the coupler's latency shift guarantees it) and the capture
  /// effect must be off: capture verdicts depend on processing order, which
  /// window-edge exchange deliberately relaxes. Wakes the medium's lane and
  /// carrier subscribers, so sleeping transmit gates re-evaluate.
  void begin_remote_tx(Cycle start, Cycle end, int source) override;

  // Every view below settles the medium before reading (settle-on-read,
  // see phy::Medium): the latch and idle reference are time-derived.
  bool cca_busy() const noexcept override {
    settle_self();
    return cca_busy_;
  }
  Cycle cca_idle_for() const noexcept override {
    settle_self();  // Before cca_busy_: a settle may move the latch.
    return cca_busy_ ? 0 : now_ - last_cca_busy_;
  }
  Cycle cca_clear_at() const noexcept override;
  Cycle cca_busy_onset_at() const noexcept override;

  // Listener-qualified views (hidden-node physics). With a trivial matrix
  // or an unmapped/omni listener these delegate to the global view above.
  bool cca_busy(int listener) const noexcept override;
  Cycle cca_idle_for(int listener) const noexcept override;
  Cycle cca_clear_at(int listener) const noexcept override;
  Cycle cca_busy_onset_at(int listener) const noexcept override;

  void tick() override;

  // ---- Quiescence contract (sim/scheduler.hpp; settles on read like the
  // base class) ----
  /// Bound to the next delivery or perceived-carrier edge of anything on
  /// the air — long data frames are hundreds of thousands of architecture
  /// cycles of pure occupancy accounting between edges.
  Cycle quiescent_for() const override;
  void skip_idle(Cycle n) override;

  // ---- Contention statistics ----
  /// Transmissions that ended collided (all parties counted).
  u64 collided_frames() const noexcept { return collided_frames_; }
  /// Collided frames withheld from the receivers.
  u64 dropped_frames() const noexcept { return dropped_frames_; }
  /// Collided frames delivered garbled (deliver_garbled mode).
  u64 garbled_frames() const noexcept { return garbled_frames_; }
  /// Capture events: a late interferer lost to an established frame. One
  /// frame hit by several late interferers counts once per interferer.
  u64 capture_wins() const noexcept { return capture_wins_; }
  /// Air cycles burnt by transmissions that ended collided — the wasted
  /// share of busy_cycles() that airtime-efficiency reports subtract.
  Cycle collided_airtime() const noexcept { return collided_airtime_; }
  /// Carrier-sense detection latency, the protocol's
  /// mac::cca_latency_default_us: one contention slot (or SIFS where the
  /// protocol has no slotted contention). This is the collision window. It
  /// shifts the whole perceived-carrier window, onset AND release: a frame
  /// is audible over [start+latency, end+latency), so short control frames
  /// (an 11 Mbps ACK flies in 10 us) remain perceptible instead of ending
  /// before they were ever heard.
  Cycle cca_latency_cycles() const noexcept { return cca_latency_; }
  /// Foreign-carrier images injected via begin_remote_tx.
  u64 remote_txs() const noexcept { return remote_txs_; }
  /// Stats for one source id (zeroes when it never transmitted).
  SourceStats source(int id) const;

  /// Attaches a flight recorder (null detaches). Events land on `track`:
  /// tx starts/collisions/deliveries/drops, CCA latch edges and foreign-
  /// carrier images. All are logged from executed ticks at protocol-edge
  /// cycles (the quiescence bound proves no edge hides in a skipped
  /// stretch), so the stream is identical with idle-skip on or off.
  void set_recorder(obs::FlightRecorder* rec, u16 track) noexcept {
    rec_ = rec;
    rec_track_ = track;
  }

  /// Checkpoint support: the base channel state plus everything live on the
  /// air and the contention counters. Params, the station->matrix binding
  /// and derived cycle constants are configuration; the tick-path scratch
  /// vectors are capacity caches with no logical content.
  void save_state(sim::snap::Writer& w) override;
  void load_state(sim::snap::Reader& r) override;

 private:
  struct Tx {
    Bytes frame;
    Cycle start;
    Cycle end;
    int source;
    bool collided;  ///< Omni view: overlapped at an omnidirectional receiver.
    bool delivered;
    /// Matrix index of `source`, or -1 (omnidirectional transmitter).
    int src_idx;
    /// Matrix listeners for whom this frame is jammed (hear it AND an
    /// overlapping transmission). `collided` carries the same verdict for
    /// every omni listener — they hear everything, so one bit suffices —
    /// and doubles as the counted-once guard for the collision counters.
    u64 jam_mask;
    /// Foreign-carrier image (begin_remote_tx): energy only. May start in
    /// the future; never delivered or counted, omnidirectional (src_idx -1).
    bool remote = false;

    template <class Ar>
    void persist(Ar& ar) {
      ar.io(frame);
      ar.io(start);
      ar.io(end);
      ar.io(source);
      ar.io(collided);
      ar.io(delivered);
      ar.io(src_idx);
      ar.io(jam_mask);
      ar.io(remote);
    }
  };

  template <class Ar>
  void persist_contended(Ar& ar) {
    ar.io(on_air_);
    ar.io(cca_busy_);
    ar.io(last_cca_busy_);
    ar.io(collided_frames_);
    ar.io(dropped_frames_);
    ar.io(garbled_frames_);
    ar.io(capture_wins_);
    ar.io(collided_airtime_);
    ar.io(remote_txs_);
    ar.io(remote_live_);
    ar.io(sources_);
    ar.io(last_heard_);
  }

  static void garble(Bytes& frame);
  bool trivial() const noexcept { return params_.audibility.trivial(); }
  /// Matrix index of a source/listener id; -1 = omnidirectional.
  int matrix_index(int id) const noexcept;
  /// Mask of matrix listeners that hear transmitter `src_idx` (-1 = all).
  u64 hearers_of(int src_idx) const noexcept;
  bool perceived(const Tx& t, Cycle at) const noexcept {
    return t.start + cca_latency_ <= at && at < t.end + cca_latency_;
  }
  /// Marks `t` jammed for `both` (+ the omni view), counting its collision
  /// and wasted airtime the first time any listener is jammed. Remote
  /// entries only accumulate the mask — their home cell owns the counters.
  void jam(Tx& t, u64 both);
  /// Exact channel-occupancy test: any air interval covering cycle `at`.
  /// Equals busy() whenever no remote entry is live (local intervals start
  /// in the past, so the tx_end_ high-watermark is exact); remote entries
  /// can start in the future, which makes the watermark overshoot silent
  /// gaps — the remote-aware accounting paths scan instead.
  bool air_busy_at(Cycle at) const noexcept {
    for (const Tx& t : on_air_) {
      if (t.start <= at && at < t.end) return true;
    }
    return false;
  }
  void deliver_per_listener(Tx& t);
  /// Half-duplex gate for the receive-quality records: a station radiating
  /// while another frame's last byte arrives heard nothing of it.
  bool listener_deaf_at(int listener, Cycle end) const noexcept override;

  Params params_;
  Cycle cca_latency_ = 0;
  Cycle capture_cycles_ = 0;
  std::vector<Tx> on_air_;

  bool cca_busy_ = false;
  Cycle last_cca_busy_ = 0;

  /// Audibility revisions applied (not persisted: the TopologyDriver owns
  /// the epoch and re-installs it on checkpoint load, keeping the committed
  /// static-cell snapshot layout untouched).
  u64 topology_epoch_ = 0;
  u64 collided_frames_ = 0;
  u64 dropped_frames_ = 0;
  u64 garbled_frames_ = 0;
  u64 capture_wins_ = 0;
  Cycle collided_airtime_ = 0;
  u64 remote_txs_ = 0;
  /// Un-retired foreign-carrier entries. 0 keeps every accounting path on
  /// the original local-only code (uncoupled cells stay bit-identical).
  std::size_t remote_live_ = 0;
  std::map<int, SourceStats> sources_;

  obs::FlightRecorder* rec_ = nullptr;
  u16 rec_track_ = 0;

  // ---- Non-trivial-matrix state ----
  std::map<int, std::size_t> station_idx_;  ///< source id -> matrix row.
  /// Last cycle each matrix listener perceived carrier from an already-
  /// retired transmission (live ones are folded in lazily per query).
  std::vector<Cycle> last_heard_;

  // ---- Tick-path scratch (capacity retained; see docs/ARCHITECTURE.md) ----
  std::vector<phy::MediumClient*> scratch_clean_;
  std::vector<phy::MediumClient*> scratch_jammed_;
  std::vector<int> scratch_clean_ids_;
  std::vector<std::pair<Cycle, Cycle>> scratch_spans_;
};

}  // namespace drmp::net
