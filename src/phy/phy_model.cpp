#include "phy/phy_model.hpp"

#include <stdexcept>

#include "sim/checkpoint.hpp"

namespace drmp::phy {

Cycle Medium::begin_tx(Bytes frame, int source) {
  wake_self();
  wake_subscribers();
  if (now_ < tx_end_) {
    // Point-to-point contract violation. This used to be assert()-only,
    // which compiles out under NDEBUG and let Release builds overwrite an
    // in-flight frame silently; overlap is now a defined outcome in every
    // build type: a hard error here, a counted collision in
    // net::ContendedMedium.
    throw std::logic_error(
        "phy::Medium::begin_tx: overlapping transmission on the point-to-point "
        "medium (source " +
        std::to_string(source) + "); use net::ContendedMedium for contention");
  }
  const Cycle end = now_ + frame_air_cycles(frame.size());
  tx_end_ = end;
  in_flight_.push_back(InFlight{std::move(frame), end, source});
  if (on_tx) on_tx(now_, end, source);
  return end;
}

void Medium::begin_remote_tx(Cycle /*start*/, Cycle /*end*/, int source) {
  throw std::logic_error(
      "phy::Medium::begin_remote_tx: the point-to-point medium cannot carry "
      "foreign carrier (source " +
      std::to_string(source) + "); co-channel coupling needs net::ContendedMedium");
}

void Medium::deliver(Bytes& frame, Cycle rx_end_cycle, int source, bool pre_damaged) {
  bool bad = pre_damaged;
  if (tamper && tamper(frame)) {
    ++tampered_;
    bad = true;
  }
  record_rx_quality(source, rx_end_cycle, bad);
  for (const Attached& a : clients_) a.client->on_frame(frame, rx_end_cycle, source);
}

void Medium::tick() {
  if (now_ < tx_end_) ++busy_cycles_;
  ++now_;
  // Deliver frames whose last byte has now arrived; their storage goes back
  // to the cell arena for the next staged frame.
  for (std::size_t i = 0; i < in_flight_.size();) {
    if (in_flight_[i].end <= now_) {
      deliver(in_flight_[i].frame, in_flight_[i].end, in_flight_[i].source);
      arena_.release(std::move(in_flight_[i].frame));
      in_flight_.erase(in_flight_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
}

Cycle Medium::quiescent_for() const {
  // now_ equals the index of the next tick at both contract evaluation
  // points. The only tick with an effect beyond occupancy accounting is a
  // delivery, first executed at cycle end-1 (the tick whose increment makes
  // end <= now_).
  if (in_flight_.empty()) return sim::Clockable::kIdleForever;
  Cycle next_end = sim::Clockable::kIdleForever;
  for (const InFlight& f : in_flight_) next_end = std::min(next_end, f.end);
  return sim::ticks_until_reading(next_end, now_);
}

void Medium::skip_idle(Cycle n) {
  account_busy_skip(n);
  now_ += n;
}

Cycle PhyTx::quiescent_for() const {
  if (!buf_.frame_pending()) return sim::Clockable::kIdleForever;
  const TxFrameEntry& f = buf_.front();
  // The first tick that could transmit observes `ready`, the first clock
  // value every gate admits. Carrier extensions only push `ready` later and
  // wake us through the medium's subscriber list. A perishable frame that
  // cannot make its deadline is dropped by the tick observing the expiry
  // instead — that tick may unblock the next queued frame, so it must run.
  Cycle ready =
      std::max({f.earliest_start, last_tx_end_, medium_.cca_clear_at(source_id_)});
  if (f.latest_start < ready) ready = f.latest_start + 1;  // The drop tick.
  return sim::ticks_until_reading(ready, medium_.now());
}

void PhyTx::tick() {
  if (!buf_.frame_pending()) return;
  const TxFrameEntry& f = buf_.front();
  if (f.latest_start < medium_.now()) {
    // Perishable response past its deadline: abandon it (the peer's
    // timeout/retry machinery recovers). Deferring it to the next carrier-
    // clear edge would release every station's stale response on the same
    // cycle — a guaranteed pile-up.
    ++expired_by_kind_[static_cast<std::size_t>(f.kind)];
    DRMP_OBS(rec_, medium_.now(), obs::EventKind::kExpiry, rec_track_,
             static_cast<i64>(f.kind));
    TxFrameEntry dead = buf_.pop();
    medium_.frame_arena().release(std::move(dead.bytes));
    ++frames_expired_;
    return;
  }
  if (medium_.now() < f.earliest_start) return;
  // Half-duplex: the radio knows it is transmitting without CCA — with a
  // contended medium's detection latency it cannot *hear* its own signal,
  // and popping the next queued frame early would collide with itself.
  if (transmitting()) return;
  if (medium_.cca_busy(source_id_)) return;
  TxFrameEntry e = buf_.pop();
  last_tx_start_ = medium_.now();
  last_tx_end_ = medium_.begin_tx(std::move(e.bytes), source_id_);
  ++frames_sent_;
}


void Medium::save_state(sim::snap::Writer& w) { persist_medium(w); }

void Medium::load_state(sim::snap::Reader& r) { persist_medium(r); }

}  // namespace drmp::phy
