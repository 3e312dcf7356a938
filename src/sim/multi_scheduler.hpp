// MultiScheduler — lockstep advancement of many per-device schedulers.
//
// The scenario engine gives every DRMP device its own Scheduler (its own
// clock domain, component list and statistics). A fleet run advances all of
// them in lockstep: time moves in strides of `stride` cycles, and within one
// stride every active lane runs the same cycle interval through
// Scheduler::run_cycles. After each stride the per-lane early-exit
// predicate is evaluated once; a lane whose predicate fired stops ticking
// (its device has drained its workload) while the rest of the fleet
// continues. Evaluating predicates once per stride — instead of per
// executed cycle as run_until does — keeps an 8-64 device fleet out of
// std::function dispatch on the per-cycle path.
//
// Lanes share no Clockables, so within a round each lane's results are its
// own and the stride only bounds how far one lane's clock may lead
// another's. Cross-lane *events* are still possible — channel couplers
// exchange them at round edges through set_round_hook (Graphite-style lax
// synchronization): a round hook may inject state into any lane as long as
// the injected effects land at or after the round edge, which holds
// whenever the stride is at most the physical interaction horizon (see
// net/channel_coupler.hpp). Uncoupled fleets never set the hook and keep
// the original fully-independent behaviour.
//
// Quiescence-aware round skipping: after each run a lane's scheduler
// publishes next_wake() — a lower bound on the cycle any of its components
// could execute a real tick. A lane whose wake lies beyond the round's
// target is not dispatched at all (not even for a fast-forward call); the
// cycles it owes accumulate and are replayed in one run the moment its wake
// falls inside a round (or at run exit, so lane clocks still line up with
// the lockstep clock). Between rounds a lane is read by its done-predicate
// and mutated only by the round hook, whose every input wakes its target
// (which collapses next_wake()), so the skip decision is exact and the
// results remain bit-identical to dispatching every round — with any
// worker count.
//
// Held lanes: every lane runs through Scheduler::run_held, which keeps the
// lane's quiescence state (active set, wake wheel, sleeper marks) open
// between rounds. A round costs the lane its wakes and executed ticks, not
// a re-partition and a settle of every component; a skip span reported to
// a SchedulerObserver ends where its component wakes or the state closes,
// not at a round edge. The state is closed
// — every sleeper settled, as a direct run_cycles leaves it — when a lane
// retires, for every lane before the edge hook, and at the end of run(),
// on a throw too, once the worker pool is joined. Between held rounds
// sleepers are unsettled, so a done-predicate and the round hook read
// only event state (completion counters, callback flags) or state that
// settles on read; a hook that mutates a lane component calls wake_self()
// on it first.
#pragma once

#include <functional>
#include <vector>

#include "common/types.hpp"
#include "sim/scheduler.hpp"

namespace drmp::sim {

class MultiScheduler {
 public:
  /// Fires once a lane's workload is drained; evaluated once per stride.
  using DonePredicate = std::function<bool()>;

  static constexpr Cycle kDefaultStride = 1024;

  /// Registers a device scheduler as a lane. A null predicate means the lane
  /// runs for the full cycle budget. Returns the lane index.
  std::size_t add(Scheduler& sched, DonePredicate done = nullptr);

  /// Installs a hook invoked on the calling thread at the end of every
  /// lockstep round, after lanes ran and retirements were decided (workers
  /// are parked on the barrier). This is the lax-synchronization exchange
  /// point: cross-lane event couplers (net::ChannelCoupler) drain their
  /// outboxes here, so anything one lane generated in the round just ended
  /// is visible to its peers before any lane enters the next round. The
  /// hook may mutate lane components after waking them (Clockable::wake_self
  /// settles the component and collapses the lane's next_wake hint, so a
  /// round-skipped lane is dispatched again); it reads held lanes' sleepers
  /// only through event or settle-on-read state, and it must schedule
  /// effects only at or after the current round edge, or bit-identity
  /// across worker counts is lost.
  void set_round_hook(std::function<void()> hook) { round_hook_ = std::move(hook); }

  /// Installs a hook fired at the first round edge at or past every multiple
  /// of `every` run-relative cycles, after the round hook, with workers
  /// parked. Before it fires, every still-active lane's deferred cycles are
  /// flushed (skipped rounds are provably no-op replays, so flushing early
  /// is bit-identical) and its held state closed, which puts *every* lane —
  /// retired lanes were flushed and closed at retirement — exactly on the
  /// lockstep edge with every component settled: the quiescent state the
  /// checkpoint machinery (scenario::ScenarioEngine::checkpoint_every)
  /// snapshots. The hook receives the run-relative elapsed cycle count and
  /// must not advance any lane.
  void set_edge_hook(Cycle every, std::function<void(Cycle)> hook) {
    edge_every_ = every;
    edge_hook_ = std::move(hook);
  }

  struct RunResult {
    Cycle cycles = 0;              ///< Lockstep cycles elapsed (max over lanes).
    std::size_t lanes_finished = 0;  ///< Lanes whose predicate fired.
    bool all_finished = false;       ///< Every predicated lane finished.
    u64 rounds = 0;                  ///< Lockstep rounds executed.
  };

  /// Advances all lanes in lockstep until every predicate fired or
  /// `max_cycles` elapsed. `stride` is the lockstep granularity: a finished
  /// lane overshoots its predicate by at most stride-1 cycles.
  ///
  /// `workers` > 1 advances the lanes of each stride round on a persistent
  /// pool of that many threads (spawned once per run, parked on a barrier
  /// between rounds). Lanes are independent clock domains sharing no state,
  /// and predicates run on the calling thread while workers are parked, so
  /// the result is bit-identical to the single-threaded run — only
  /// wall-clock time changes. An exception from a lane (on any thread), a
  /// predicate or a hook stops and joins the pool, closes every lane that
  /// did not fault, then propagates to the caller; the lanes are left
  /// mid-run, each settled at its own now().
  RunResult run(Cycle max_cycles, Cycle stride = kDefaultStride,
                unsigned workers = 1);

  std::size_t lane_count() const noexcept { return lanes_.size(); }
  bool lane_finished(std::size_t i) const { return lanes_[i].finished; }
  /// Cycles this lane actually ran across all run() calls.
  Cycle lane_cycles(std::size_t i) const { return lanes_[i].cycles_run; }
  // ---- Lane-stall profile: quiescence-aware round skips ----
  /// Rounds this lane was not dispatched because its next_wake lay past the
  /// round target.
  u64 lane_rounds_skipped(std::size_t i) const {
    return lanes_[i].rounds_skipped;
  }
  /// Cycles this lane spent parked in skipped rounds (later replayed).
  Cycle lane_stall_cycles(std::size_t i) const {
    return lanes_[i].stall_cycles;
  }
  /// The lockstep rows of the execution profile (sim/exec_profile.hpp)
  /// over every run() call: rounds, and the lane-stall counts summed over
  /// lanes. The per-domain rows come from each lane's Scheduler::profile().
  ExecProfile profile() const;

 private:
  struct Lane {
    Scheduler* sched;
    DonePredicate done;
    bool finished = false;
    Cycle cycles_run = 0;
    u64 rounds_skipped = 0;
    Cycle stall_cycles = 0;
  };

  /// run() without the final close: the lockstep rounds and the pool.
  RunResult run_rounds(Cycle max_cycles, Cycle stride, unsigned workers);
  /// Closes every lane's held quiescence state (Scheduler::close_held).
  void close_lanes();

  std::vector<Lane> lanes_;
  std::function<void()> round_hook_;
  std::function<void(Cycle)> edge_hook_;
  Cycle edge_every_ = 0;
  u64 rounds_ = 0;  ///< Lockstep rounds over every run() call.
};

}  // namespace drmp::sim
