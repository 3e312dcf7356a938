// LinkMgr — association, roaming reassociation and rate adaptation for one
// shared-cell station.
//
// Static cells associate stations by fiat; motion forces the flows real
// MACs run. The link manager holds a station's traffic source gated until a
// probe/assoc exchange completes against the serving access point, re-runs
// the exchange after a roaming handoff (net::TopologyDriver retargets the
// serving AP and calls handoff()), and adapts the ModeIdentity-level rate
// index from traffic-completion quality — step-down after consecutive lossy
// completions, step-up after a clean run (cf. traffic-aware adaptation,
// arXiv:1809.07862). The adapted rate is report-only: it feeds the
// est::estimate_power duty model through rate_scale(), never the PHY
// timing, so enabling adaptation cannot perturb digest-bearing state.
//
// Management frames are ordinary MSDUs submitted through the device's
// host_send path and acknowledged by the scripted AP like any data frame.
// Routing their completions back here relies on a structural property of
// the device pipeline: MSDUs of one mode are processed strictly serially
// from one tx_queue_, so completions are FIFO with submissions — the
// manager records each submission's kind (traffic vs management) in a
// deque and pops it at completion time. A handoff is serving-AP
// bookkeeping plus this reassociation exchange on the home medium: the
// station never changes clock domains, which is what keeps lax-sync and
// reference multi-cell coupling digest-identical through a handoff.
//
// Quiescence: the only scheduled work is launching the initial probe at
// its staggered start cycle; every later transition runs synchronously
// inside completion or handoff callbacks, so after the probe the manager
// sleeps forever (kIdleForever) and costs the batched scheduler nothing.
#pragma once

#include <deque>
#include <functional>

#include "common/types.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/clock.hpp"
#include "sim/scheduler.hpp"

namespace drmp::mac {

class LinkMgr final : public sim::Clockable {
 public:
  struct Params {
    int station_id = 0;      ///< For flight-recorder events.
    double start_us = 50.0;  ///< Initial probe launch time (staggered).
    u32 probe_bytes = 32;
    u32 assoc_bytes = 48;
    bool adapt_rate = false;
    u32 rate_down_after = 2;  ///< Lossy completions before a step-down.
    u32 rate_up_after = 4;    ///< Clean completions before a step-up.
    u32 rate_steps = 4;       ///< Ladder depth; index 0 = full rate.
  };

  /// `clock` supplies cycle stamps for events and duty integration (the
  /// manager's own tick clock stops advancing once it sleeps forever).
  LinkMgr(Params p, const sim::TimeBase& tb, const sim::Scheduler& clock);

  /// Management-frame submission path (the device's host_send).
  std::function<void(Bytes)> send;
  /// Traffic gate: open(true) once associated, closed during reassociation.
  std::function<void(bool open)> gate;

  void set_recorder(obs::FlightRecorder* rec, u16 track) noexcept {
    rec_ = rec;
    track_ = track;
  }

  /// Call before host_send on the traffic path: records the submission so
  /// the FIFO completion router can tell traffic from management.
  void note_traffic_submit() { pending_.push_back(kKindTraffic); }
  /// Completion router (call from the device's on_tx_complete). Returns
  /// true when the completed MSDU was management — the caller must then NOT
  /// forward the completion to the traffic generator.
  bool notify_complete(bool ok, u32 retries);
  /// Roaming handoff (net::TopologyDriver::on_handoff): retargets the
  /// serving AP; when currently associated, closes the gate and starts the
  /// reassociation exchange.
  void handoff(u32 target_cell);

  bool associated() const noexcept { return state_ == kAssociated; }
  /// Gate state the traffic generators must mirror.
  bool gate_open() const noexcept { return state_ == kAssociated; }
  /// True when no management exchange is in flight — fleet lanes drain
  /// only once the final (re)association completes.
  bool settled() const noexcept;

  // ---- Counters (FleetStats; all outside the digests) ----
  u64 reassociations() const noexcept { return reassociations_; }
  u64 handoffs() const noexcept { return handoffs_; }
  u64 rate_shifts() const noexcept { return rate_shifts_; }
  u64 link_loss_drops() const noexcept { return link_loss_drops_; }
  u32 rate_index() const noexcept { return rate_idx_; }
  /// Total handoff-to-reassociated latency over all completed handoffs.
  Cycle handoff_latency_total() const noexcept { return handoff_latency_total_; }
  /// Duty-weighted mean rate fraction since cycle 0 (1.0 = full rate the
  /// whole run); the est::estimate_power folding input.
  double rate_scale(Cycle at) const noexcept;

  void tick() override;
  Cycle quiescent_for() const override {
    if (started_) return kIdleForever;
    return start_cycle_ > now_ ? start_cycle_ - now_ : 0;
  }
  void skip_idle(Cycle n) override { now_ += n; }

  /// Checkpoint state (written only for mobility cells — static-cell
  /// snapshot layouts stay untouched).
  template <class Ar>
  void persist(Ar& ar) {
    ar.io(now_);
    ar.io(started_);
    ar.io(state_);
    ar.io(pending_);
    ar.io(reassoc_pending_);
    ar.io(serving_);
    ar.io(handoff_started_);
    ar.io(handoff_latency_total_);
    ar.io(reassociations_);
    ar.io(handoffs_);
    ar.io(rate_shifts_);
    ar.io(link_loss_drops_);
    ar.io(bad_run_);
    ar.io(good_run_);
    ar.io(rate_idx_);
    ar.io(rate_duty_);
    ar.io(rate_since_);
  }

 private:
  static constexpr u8 kKindTraffic = 0;
  static constexpr u8 kKindMgmt = 1;
  // Association states (u8 for direct persistence).
  static constexpr u8 kIdle = 0;         ///< Waiting for the probe launch.
  static constexpr u8 kProbing = 1;      ///< Probe in flight.
  static constexpr u8 kAssociating = 2;  ///< Assoc request in flight.
  static constexpr u8 kAssociated = 3;   ///< Gate open, traffic flows.

  void submit_mgmt(u32 bytes, u8 fill);
  void on_traffic_complete(bool ok, u32 retries);
  /// Rate ladder fraction: each step halves the effective rate.
  double fraction(u32 idx) const noexcept {
    return 1.0 / static_cast<double>(u64{1} << idx);
  }
  void shift_rate(bool down);

  Params p_;
  const sim::Scheduler& clock_;
  Cycle start_cycle_;

  Cycle now_ = 0;
  bool started_ = false;
  u8 state_ = kIdle;
  /// Submission kinds in flight, FIFO with the mode's tx queue.
  std::deque<u8> pending_;
  bool reassoc_pending_ = false;
  u32 serving_ = 0xFFFFFFFFu;  ///< kHomeCell sentinel: the home AP.
  Cycle handoff_started_ = 0;
  Cycle handoff_latency_total_ = 0;

  u64 reassociations_ = 0;
  u64 handoffs_ = 0;
  u64 rate_shifts_ = 0;
  u64 link_loss_drops_ = 0;

  u32 bad_run_ = 0;
  u32 good_run_ = 0;
  u32 rate_idx_ = 0;
  /// Duty integral of fraction() over cycles up to rate_since_.
  double rate_duty_ = 0.0;
  Cycle rate_since_ = 0;

  obs::FlightRecorder* rec_ = nullptr;
  u16 track_ = 0;
};

}  // namespace drmp::mac
