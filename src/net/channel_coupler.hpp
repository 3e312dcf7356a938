// ChannelCoupler — cross-cell carrier-event exchange for co-channel cells.
//
// Cells are independent clock domains (MultiScheduler lanes), but cells of
// one coupling group share spectrum: a transmission in cell A is energy in
// cell B's band. The coupler forwards every begin_tx on a member medium into
// each co-channel member that hears it, as a phy foreign-carrier image
// (ContendedMedium::begin_remote_tx) shifted by the inter-cell
// propagation+detection latency D — the lumped time for A's first bit to
// reach B and trip B's energy detector.
//
// D is also the *audibility lookahead horizon* of Graphite-style lax
// synchronization: anything cell A does at time t is physically invisible
// to cell B before t + D, so B's lane may free-run up to A's clock + D
// without missing an interaction. The scenario engine clamps the lockstep
// stride to min(D) over connected groups; with stride W <= D, an event
// generated anywhere inside a round ending at edge T has effects at
// >= (T - W) + D >= T, so delivering it at T — through
// MultiScheduler::set_round_hook, on the calling thread, with every lane
// parked exactly at T — is never late. Injection wakes the target lane
// through the quiescence contract (wake edges, not per-cycle polling): a
// fully-quiescent, round-skipped lane resumes the moment foreign carrier is
// scheduled into it.
//
// Two delivery modes, pinned digest-identical by tests/multicell_test.cpp:
//   * lax (default)  — begin_tx events queue in per-medium outboxes (each
//     written only by its own lane's thread) and drain at round edges. The
//     fleet hot path: lanes keep skip/lockstep freedom inside the horizon.
//   * immediate      — events inject synchronously from inside begin_tx.
//     The reference coupling: every member cell lives on ONE shared
//     scheduler, so immediate injection is the conventional conservative
//     simulation the lax path must reproduce bit-for-bit.
// Equality holds because every observable the image touches (perceived
// carrier, occupancy, jam verdicts, quiescence bounds) is computed from the
// image's absolute air window by interval arithmetic, never from the
// injection moment — see docs/MULTICELL.md for the full argument.
//
// The inter-cell AudibilityMatrix is *cell-granular*: reach.hears(B, A)
// decides whether cell B's medium receives cell A's images at all (spatial
// reuse: far-apart cells on one channel never interact). Per-station
// audibility stays a per-cell concern; images are omnidirectional within
// the hearing cell. A reach with no off-diagonal hearing makes the group
// fully isolated — the engine skips coupler construction entirely and such
// runs are bit-identical to uncoupled fleets (pinned).
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.hpp"
#include "net/audibility.hpp"
#include "net/contended_medium.hpp"

namespace drmp::net {

class ChannelCoupler {
 public:
  struct Params {
    /// Inter-cell propagation+detection latency D in architecture cycles
    /// (>= 1): images land [start + D, end + D). Doubles as the lax-sync
    /// lookahead horizon — the engine clamps the lockstep stride to it.
    Cycle latency = 1;
    /// Cell-granular reach over group-member indices: hears(listener_cell,
    /// tx_cell) gates forwarding. Trivial = every member hears every other.
    AudibilityMatrix reach;
    /// Inject synchronously from inside begin_tx (reference mode; members
    /// must share one scheduler) instead of queueing for round edges.
    bool immediate = false;
  };

  explicit ChannelCoupler(Params p);

  ChannelCoupler(const ChannelCoupler&) = delete;
  ChannelCoupler& operator=(const ChannelCoupler&) = delete;

  /// Registers member `member`'s medium for protocol band `band` and
  /// installs its on_tx hook. Members with several enabled modes attach one
  /// port per band; images only ever flow between ports of the same band.
  /// Capture must be off on every attached medium (order-dependent
  /// verdicts; begin_remote_tx enforces it).
  void attach(std::size_t member, std::size_t band, ContendedMedium& medium);

  /// Round-edge delivery (lax mode): drains every port's outbox, in port
  /// attach order, into each same-band port whose member hears the source
  /// cell. Call from MultiScheduler::set_round_hook with all lanes parked
  /// at the edge; the no-op in immediate mode keeps one engine code path.
  void exchange();

  /// Replaces the cell-granular reach matrix (CouplingSpec::reach_script).
  /// Legal only at a lockstep round edge, *after* exchange() has drained the
  /// outboxes: forward() reads the reach at delivery time, so with revisions
  /// pinned to edges the reach is constant across each round and the lax
  /// (drain-at-edge) and immediate (forward-at-generation) paths read the
  /// same matrix for every event — digest equality survives the revision.
  /// No-op (not an epoch) when the matrix is unchanged.
  void set_reach(const AudibilityMatrix& reach);
  /// Reach revisions applied so far.
  u64 reach_epoch() const noexcept { return reach_epoch_; }

  /// The lax-sync lookahead horizon (== Params::latency).
  Cycle horizon() const noexcept { return params_.latency; }
  /// Events forwarded into member media across all ports so far.
  u64 forwarded() const noexcept { return forwarded_; }

  /// Checkpoint support (sim/checkpoint.hpp): only the forward counter —
  /// snapshots land at round edges, where exchange() has already drained
  /// every outbox, so the ports carry no logical state.
  template <class Ar>
  void persist(Ar& ar) {
    ar.io(forwarded_);
  }

 private:
  struct Pending {
    Cycle start;
    Cycle end;
    int source;
  };
  struct Port {
    std::size_t member;
    std::size_t band;
    ContendedMedium* medium;
    /// Lax mode: events this port's begin_tx generated since the last
    /// exchange. Single writer (the owning lane's thread); read and cleared
    /// on the calling thread between rounds — the round barrier orders it.
    std::vector<Pending> outbox;
  };

  void forward(const Port& from, Cycle start, Cycle end, int source);

  Params params_;
  std::vector<Port> ports_;
  u64 forwarded_ = 0;
  /// Not persisted: the engine re-applies due reach revisions on resume, so
  /// counter and matrix re-derive and coupler snapshot layouts stay stable.
  u64 reach_epoch_ = 0;
};

}  // namespace drmp::net
