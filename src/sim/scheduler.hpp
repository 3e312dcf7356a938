// Cycle-stepped simulation scheduler with quiescence-aware batching.
//
// The DRMP prototype was modelled in Simulink at "cycle-approximate"
// abstraction (thesis Ch. 5). This kernel reproduces that abstraction: every
// registered component exposes tick(), invoked once per architecture-clock
// cycle in a fixed deterministic order. Components communicate through plain
// member state sampled at tick boundaries; the fixed tick order replaces
// Simulink's dataflow ordering.
//
// Tick order is organised in *stages*: all components of a lower stage tick
// before any component of a higher stage, and within a stage registration
// order is preserved (stable sort). Every add() defaults to kStageDefault, so
// a scheduler built without explicit stages ticks in exact registration order
// — identical to the original single-vector kernel. Stages let fleet
// assemblers (scenario engine, multi-device testbenches) express "media
// before devices before observers" without depending on construction order.
//
// One kernel advances the clock, behind both run_cycles and run_until: the
// component list is frozen into one stage-ordered array at entry, and
// components that declare themselves quiescent are *not ticked* until their
// bound expires or an external input wakes them. Skipped ticks are
// bulk-accounted through Clockable::skip_idle, so all state ends up
// cycle-for-cycle identical to set_idle_skip(false) — the every-tick mode
// and equivalence oracle — including now() as seen from inside a tick,
// provided no component registers mid-run (none does in this code base).
//
// run_until evaluates done() at entry, after every executed cycle and after
// every fast-forward hop. A gap executes no tick, so a predicate over event
// state (callback flags, frame and completion counters) stops on the
// every-tick cycle. done() must not read now() or a sleeping component's
// time-integrated counters unless that component settles on read (below):
// otherwise both are exact only once the run returns.
//
// ---- The quiescence contract ----
//
// MAC workloads are idle-dominated: the paper's power argument (clock
// gating, PSO, Fig. 5.12 state occupation) rests on components spending most
// cycles quiescent. The kernel exploits the same property. A component
// may override:
//
//   * quiescent_for() — a conservative bound Q: "my next Q tick() calls
//     would be bookkeeping that skip_idle(Q) reproduces exactly (absent
//     external input); you may replace them with that one call". 0 means
//     "tick me next cycle"; kIdleForever means "skippable until woken". The
//     scheduler calls it only at well-defined points — immediately after
//     the component's own tick(), or at a run boundary with the component
//     fully caught up — so implementations may assume their internal
//     clocks equal the index of their next tick. Under-estimating Q is
//     always safe (the component wakes, ticks once, and may sleep again);
//     over-estimating breaks bit-identity.
//   * skip_idle(n) — bulk-account n skipped ticks: advance internal cycle
//     counters and fold n samples into busy/occupancy statistics. After
//     skip_idle(n) the component must be in exactly the state n tick()
//     calls would have produced. Chunking is additive: skip_idle(a) then
//     skip_idle(b) equals skip_idle(a+b).
//
// Quiescent is not the same as idle. Besides idle stretches, four busy
// stretches are fixed the cycle they start and are slept through: a CPU
// handler body (cpu::CpuModel, busy_until_ is set at dispatch), a streaming
// RFU's compute stall (rfu::StreamingRfu, a Stall micro-op at the head of
// its queue), a packet-bus grant held with no access (hw::PacketBus) and a
// word run — a bus master moving one word per cycle. A streaming RFU that
// holds the grant declares the rest of its run to the bus with
// hw::PacketBus::declare_run, contiguous words or a scatter run's (offset,
// word) pairs; the IRC declares an op's arguments after the command word
// as a trigger burst (hw::PacketBus::declare_burst), which the addressed
// RFU reads by its own progress. The master, the bus and a bursting RFU
// all sleep through it. Their skip_idle adds the busy, hold and wait
// counts the skipped ticks would have added, and a run's skip moves its
// words in one call.
//
// Input delivered between runs is state at the next run's entry, not a
// future wake: wake_self() outside a run only resets next_wake(). A bound
// must therefore read every input it depends on — a CPU's pending
// interrupts, a bus's request lines and trigger flags — rather than rely
// on being woken when it arrives. The exception is a held lane
// (MultiScheduler): between its rounds the quiescence state stays open, so
// input between runs is input mid-run — wake_self() settles the target,
// activates it and collapses next_wake() to now(), and every mutation from
// a round hook must call it before mutating. Between held rounds sleepers
// are unsettled: a done predicate or hook reads event state or settle-on-
// read state only, the rule run_until's done() follows.
//
// Settle-on-read: a component whose externally visible state is time-
// derived (media: now(), idle_for(), cca_idle_for() advance every cycle and
// are polled by transmit gates and access RFUs; the CPU's, bus's and RFUs'
// cycle counters) calls settle_self() at the top of every public read. The
// same holds for state a sleeper writes elsewhere: a word run's words land
// in packet memory only when its unit settles, so every port-B access
// (hw::PacketMemory cpu_read/cpu_write and the page helpers) settles the
// streaming unit first. The scheduler then bulk-accounts the cycles it
// has slept so far — by the catch-up rule below — and leaves it asleep, so
// the reader sees exactly the every-tick value while the component still
// executes only its event ticks.
//
// Wake invalidation: a quiescence bound is conditional on "no external
// input". Every path that delivers input to a potentially-sleeping component
// (bus trigger push, bus request, release and access, bus grant to an IRC
// mode, interrupt/host-request/timer arm, medium begin_tx and frame
// delivery, Tx/Rx buffer pushes, IRC submissions, doorbell writes)
// must call wake_self() on the target before mutating it. The scheduler then
// settles the component (the catch-up rule) and re-inserts it into the
// active set. Catch-up rule: mid-cycle, a component whose tick slot has not
// yet passed this cycle is owed the cycles before now_ and, if woken, really
// ticks at now_ (every-tick mode would observe the just-delivered input
// this cycle); one whose slot already passed is owed now_ as well and
// resumes at now_+1 — exactly when every-tick mode would first see the
// input. skip_idle implementations must not wake other components.
//
// Globally-quiescent gaps: when no component is awake, the scheduler
// fast-forwards now_ to the earliest wake bound in one step (the timing
// wheel holds sleeping components' bounds). Sleepers are settled lazily —
// on read, on wake, or when the run's state closes (at run exit, or for a
// held lane at MultiScheduler's close points) — so a gap costs one jump,
// not a sweep.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "sim/clock.hpp"
#include "sim/exec_profile.hpp"

namespace drmp::sim {

class Scheduler;

namespace snap {
class Writer;
class Reader;
}  // namespace snap

/// Sleep-bound helper for components gated on a clock they read one ahead:
/// media lead the cycle, so a tick at cycle u reads a medium clock of u+1,
/// and the first tick observing `reading` is reading-1. Returns the count
/// of skippable ticks strictly before that tick, given the caller's next
/// tick index (== its reference clock at both contract evaluation points).
/// Single-sourcing the +2/-1 conversion matters: an off-by-one over-
/// estimate at any call site silently breaks bit-identity.
constexpr Cycle ticks_until_reading(Cycle reading, Cycle next_tick) noexcept {
  return reading >= next_tick + 2 ? reading - 1 - next_tick : 0;
}

/// Anything driven by the architecture clock.
class Clockable {
 public:
  virtual ~Clockable() = default;
  virtual void tick() = 0;

  /// Sentinel bound: quiescent until externally woken.
  static constexpr Cycle kIdleForever = ~Cycle{0};

  /// Conservative count of upcoming tick() calls that are bookkeeping
  /// skip_idle reproduces exactly (see the header comment). The default —
  /// never quiescent — is always correct.
  virtual Cycle quiescent_for() const { return 0; }

  /// Bulk-accounts `n` skipped ticks. Must be overridden (together with
  /// quiescent_for) by any component that can report a non-zero bound.
  virtual void skip_idle(Cycle n) { (void)n; }

  /// Invalidates this component's quiescence bound: external input arrived.
  /// Safe to call at any time (no-op when awake, unregistered, or outside a
  /// skipping run). Defined in scheduler.cpp.
  void wake_self() noexcept;

  /// Settle-on-read (see the header comment): brings a sleeping component
  /// up to the current cycle without waking it. Same no-op cases as
  /// wake_self(). Defined below Scheduler.
  void settle_self() const noexcept;

 private:
  friend class Scheduler;
  Scheduler* wake_sched_ = nullptr;  ///< Owning scheduler (set by freeze()).
  u32 wake_index_ = 0;               ///< Position in the frozen stage array.
};

/// Thrown by every run and save_state after a tick threw; what() names the
/// component and the cycle.
struct SchedulerFaulted : std::logic_error {
  using std::logic_error::logic_error;
};

/// Execution-domain introspection callbacks. sim/ stays ignorant of the
/// observability layer (src/obs/ may include sim/, never the reverse); the
/// flight recorder attaches through this interface to record skip spans and
/// fast-forwards. Callbacks fire only with idle-skip on, on the
/// thread running the scheduler (for a MultiScheduler lane, also on the
/// thread running MultiScheduler::run, where a round hook's wake or a
/// close settles it), and must not mutate simulation state.
class SchedulerObserver {
 public:
  virtual ~SchedulerObserver() = default;
  /// `name`'s skipped stretch [from, from+len) was settled in bulk.
  virtual void on_skip_span(std::string_view name, Cycle from, Cycle len) = 0;
  /// A globally-quiescent gap [from, from+len) was crossed in one jump.
  virtual void on_fast_forward(Cycle from, Cycle len) = 0;
};

/// Flat membership bitmap over the frozen component array: O(1) insert and
/// erase, cache-linear iteration in frozen (stage) order. Replaces the
/// std::set the active set grew up as — at fleet scale the per-cycle loop
/// walks one cached word per 64 components instead of chasing red-black
/// tree nodes.
class ActiveSet {
 public:
  void reset(std::size_t n) {
    words_.assign((n + 63) / 64, 0);
    count_ = 0;
  }
  void insert(u32 i) noexcept {
    u64& w = words_[i >> 6];
    const u64 m = u64{1} << (i & 63);
    count_ += static_cast<std::size_t>((w & m) == 0);
    w |= m;
  }
  void erase(u32 i) noexcept {
    u64& w = words_[i >> 6];
    const u64 m = u64{1} << (i & 63);
    count_ -= static_cast<std::size_t>((w & m) != 0);
    w &= ~m;
  }
  bool contains(u32 i) const noexcept {
    return (words_[i >> 6] >> (i & 63) & 1) != 0;
  }
  std::size_t size() const noexcept { return count_; }
  std::size_t word_count() const noexcept { return words_.size(); }
  u64 word(std::size_t k) const noexcept { return words_[k]; }

 private:
  std::vector<u64> words_;
  std::size_t count_ = 0;
};

/// Bucketed hierarchical timing wheel for sleeping components' wake bounds:
/// O(1) push, O(occupied) advance, with far-future bounds parked on a flat
/// overflow level. Replaces the binary-heap wake wheel, whose log-depth
/// sift-downs and one-at-a-time stale pops dominated the scheduler loop on
/// wake-heavy cells.
///
/// Layout: kLevels levels of 64 slots; a slot at level l spans 2^(6l)
/// cycles, so the wheel covers kSpan = 2^(6*kLevels) cycles past `base_`.
/// Entries hash by the absolute wake time's level-l digit; a per-level
/// occupancy word makes "earliest occupied slot" one bit-scan. advance()
/// walks base_ through successive next_bound() stops, cascading each
/// higher-level bucket it enters strictly downward until due entries drain
/// out of level 0. Deletion is lazy: the scheduler's generation check
/// rejects stale entries at drain time, and purge() sweeps them out when
/// they become the majority.
///
/// next_bound() is a *lower* bound on the earliest stored wake time — exact
/// at level 0, a bucket floor above — which is safe for fast-forwarding
/// because skip chunking is additive by the quiescence contract: a gap
/// crossed in several hops lands on the same cycle with the same state.
class TimingWheel {
 public:
  struct Entry {
    Cycle wake_at;
    u32 index;
    u32 gen;
  };

  static constexpr int kLevels = 4;
  static constexpr int kSlotBits = 6;
  static constexpr std::size_t kSlots = 64;
  static constexpr Cycle kSpan = Cycle{1} << (kLevels * kSlotBits);
  static constexpr Cycle kNever = ~Cycle{0};

  /// Drops every entry and rebases the wheel (O(occupied buckets); bucket
  /// capacity is retained, so steady-state re-entry allocates nothing).
  void reset(Cycle base) {
    for (int l = 0; l < kLevels; ++l) {
      u64 bits = occ_[l];
      while (bits != 0) {
        buckets_[l][static_cast<std::size_t>(std::countr_zero(bits))].clear();
        bits &= bits - 1;
      }
      occ_[l] = 0;
    }
    overflow_.clear();
    overflow_min_ = kNever;
    base_ = base;
    size_ = 0;
  }

  /// Stores a bound. Requires wake_at > the base advance() last settled on
  /// (the scheduler always pushes strictly-future bounds).
  void push(Cycle wake_at, u32 index, u32 gen) {
    ++size_;
    place(Entry{wake_at, index, gen});
  }

  /// Moves the wheel to `now`, invoking `due` on every entry whose wake
  /// time has arrived (in bucket order; the scheduler's gen check makes
  /// drain order irrelevant). Requires now >= the previous advance point.
  template <typename F>
  void advance(Cycle now, F&& due) {
    while (base_ < now) {
      const Cycle nb = next_bound();
      if (nb > now) {
        base_ = now;
        return;
      }
      base_ = nb;
      service(due);
    }
  }

  /// Lower bound (> the current base) on the earliest stored wake time;
  /// kNever when empty. Valid after advance() caught the wheel up to now.
  Cycle next_bound() const noexcept {
    Cycle nb = overflow_min_;
    for (int l = 0; l < kLevels; ++l) {
      if (occ_[l] != 0) nb = std::min(nb, first_bucket(l).second);
    }
    return nb;
  }

  /// next_bound() tightened by one bucket scan per level: the earliest
  /// wake time `live` accepts in each level's earliest bucket (which holds
  /// that level's earliest entry), or the bucket floor when every entry
  /// there is stale. Still a lower bound, exact whenever those buckets hold
  /// a live entry.
  template <typename P>
  Cycle next_live_bound(P&& live) const {
    Cycle nb = overflow_min_;
    for (int l = 0; l < kLevels; ++l) {
      if (occ_[l] == 0) continue;
      const auto [s, floor] = first_bucket(l);
      Cycle best = kNever;
      for (const Entry& e : buckets_[static_cast<std::size_t>(l)][s]) {
        if (e.wake_at < best && live(e)) best = e.wake_at;
      }
      nb = std::min(nb, best != kNever ? best : floor);
    }
    return nb;
  }

  /// Filters out entries `keep` rejects (the scheduler's stale predicate).
  template <typename P>
  void purge(P&& keep) {
    for (int l = 0; l < kLevels; ++l) {
      u64 bits = occ_[l];
      while (bits != 0) {
        const auto s = static_cast<std::size_t>(std::countr_zero(bits));
        bits &= bits - 1;
        filter(buckets_[l][s], keep);
        if (buckets_[l][s].empty()) occ_[l] &= ~(u64{1} << s);
      }
    }
    filter(overflow_, keep);
    overflow_min_ = kNever;
    for (const Entry& e : overflow_) overflow_min_ = std::min(overflow_min_, e.wake_at);
  }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  u64 cascades() const noexcept { return cascades_; }

 private:
  /// Earliest occupied bucket of level l (occ_[l] != 0): its slot and the
  /// first cycle of its window. Slot order wraps at the base's own slot,
  /// whose window the wheel has already entered and drained.
  std::pair<std::size_t, Cycle> first_bucket(int l) const noexcept {
    const u64 occ = occ_[static_cast<std::size_t>(l)];
    const int shift = kSlotBits * l;
    const Cycle width = Cycle{1} << shift;
    const Cycle frame = width << kSlotBits;
    const Cycle frame_base = base_ & ~(frame - 1);
    const u64 c = (base_ >> shift) & 63;
    const u64 hi = occ & ~((u64{2} << c) - 1);
    const auto s = static_cast<std::size_t>(std::countr_zero(hi != 0 ? hi : occ));
    return {s, (hi != 0 ? frame_base : frame_base + frame) + width * s};
  }

  /// Requires e.wake_at > base_ (due entries are drained before placement).
  void place(const Entry& e) {
    const Cycle delta = e.wake_at - base_;
    if (delta >= kSpan) {
      overflow_.push_back(e);
      overflow_min_ = std::min(overflow_min_, e.wake_at);
      return;
    }
    const int l = (std::bit_width(delta) - 1) / kSlotBits;
    const auto s =
        static_cast<std::size_t>((e.wake_at >> (kSlotBits * l)) & 63);
    buckets_[static_cast<std::size_t>(l)][s].push_back(e);
    occ_[static_cast<std::size_t>(l)] |= u64{1} << s;
  }

  /// Drains / cascades everything anchored at base_ (called at each
  /// next_bound() stop): refills overflow entries inside the horizon,
  /// cascades every higher-level bucket whose window opens here strictly
  /// downward, then hands the level-0 bucket — whose entries are all due
  /// exactly now — to `due`.
  template <typename F>
  void service(F&& due) {
    if (!overflow_.empty() && overflow_min_ - base_ < kSpan) refill(due);
    for (int l = kLevels - 1; l >= 1; --l) {
      const int shift = kSlotBits * l;
      if ((base_ & ((Cycle{1} << shift) - 1)) != 0) continue;
      const auto s = static_cast<std::size_t>((base_ >> shift) & 63);
      auto& b = buckets_[static_cast<std::size_t>(l)][s];
      if (b.empty()) continue;
      occ_[static_cast<std::size_t>(l)] &= ~(u64{1} << s);
      scratch_.clear();
      scratch_.insert(scratch_.end(), b.begin(), b.end());
      b.clear();
      ++cascades_;
      for (const Entry& e : scratch_) {
        if (e.wake_at <= base_) {
          --size_;
          due(e);
        } else {
          place(e);
        }
      }
    }
    const auto s0 = static_cast<std::size_t>(base_ & 63);
    if ((occ_[0] >> s0 & 1) != 0) {
      auto& b = buckets_[0][s0];
      occ_[0] &= ~(u64{1} << s0);
      scratch_.clear();
      scratch_.insert(scratch_.end(), b.begin(), b.end());
      b.clear();
      for (const Entry& e : scratch_) {
        --size_;
        due(e);  // Level-0 residents here are due at exactly base_.
      }
    }
  }

  template <typename F>
  void refill(F&& due) {
    Cycle new_min = kNever;
    std::size_t w = 0;
    for (const Entry& e : overflow_) {
      if (e.wake_at <= base_) {
        --size_;
        due(e);
      } else if (e.wake_at - base_ < kSpan) {
        place(e);
      } else {
        new_min = std::min(new_min, e.wake_at);
        overflow_[w++] = e;
      }
    }
    overflow_.resize(w);
    overflow_min_ = new_min;
  }

  template <typename P>
  void filter(std::vector<Entry>& v, P&& keep) {
    std::size_t w = 0;
    for (const Entry& e : v) {
      if (keep(e)) v[w++] = e;
    }
    size_ -= v.size() - w;
    v.resize(w);
  }

  std::array<std::array<std::vector<Entry>, kSlots>, kLevels> buckets_{};
  std::array<u64, kLevels> occ_{};
  std::vector<Entry> overflow_;  ///< wake_at >= base_ + kSpan, unsorted.
  Cycle overflow_min_ = kNever;
  std::vector<Entry> scratch_;  ///< Cascade staging (capacity retained).
  Cycle base_ = 0;
  std::size_t size_ = 0;
  u64 cascades_ = 0;
};

class Scheduler {
 public:
  /// Stage of every add() that does not ask for one. Components that must
  /// tick before the default population (shared media) use a negative stage;
  /// pure observers (probes, traffic sinks) use a positive one.
  static constexpr int kStageDefault = 0;
  static constexpr int kStageMedium = -1;   ///< Shared media lead the cycle.
  static constexpr int kStageObserver = 1;  ///< Probes sample the completed cycle.

  explicit Scheduler(Hz arch_freq) : timebase_(arch_freq) {}

  /// Registers a component; tick order is (stage, registration order).
  void add(Clockable& c, std::string name, int stage = kStageDefault);

  /// Advances by n architecture cycles. A tick that throws faults the
  /// scheduler: later runs and save_state throw SchedulerFaulted.
  void run_cycles(Cycle n);

  /// Runs until `done()` returns true or `max_cycles` elapse (whichever is
  /// first). Returns true iff the predicate fired. See the header comment
  /// for what `done` may read.
  bool run_until(const std::function<bool()>& done, Cycle max_cycles);

  /// false selects every-tick mode: every component ticks every cycle (the
  /// baseline the equivalence tests compare against). A toggle closes a
  /// held lane's quiescence state (see MultiScheduler) and invalidates the
  /// published next_wake() hint — the bound was computed under the other
  /// policy — so it collapses to now(): always safe (a dispatched lane with
  /// nothing to do just fast-forwards), never stale.
  void set_idle_skip(bool enabled) {
    if (idle_skip_ == enabled) return;
    close_held();
    next_wake_ = now_;
    idle_skip_ = enabled;
  }
  bool idle_skip() const noexcept { return idle_skip_; }

  /// A lower bound on the first cycle at which any component might execute
  /// a real tick, as established at the end of the last run: now() when
  /// anything is awake, else the earliest live wake-wheel bound (stale
  /// entries can only pull it earlier), and kIdleForever when every
  /// component sleeps until woken. A wake between
  /// runs collapses it to now(). MultiScheduler uses it to skip lockstep
  /// rounds for fully-quiescent lanes.
  Cycle next_wake() const noexcept { return next_wake_; }

  Cycle now() const noexcept { return now_; }
  const TimeBase& timebase() const noexcept { return timebase_; }
  double now_us() const noexcept { return timebase_.cycles_to_us(now_); }

  std::size_t component_count() const noexcept { return entries_.size(); }
  /// Name, stage and tick counts by registration index. The counts cover
  /// the ticks this scheduler ran since construction or the last
  /// load_state: executed + skipped is the cycles run, for every component
  /// registered before the first of them.
  const std::string& component_name(std::size_t i) const { return names_[i]; }
  int component_stage(std::size_t i) const { return entries_[i].stage; }
  u64 component_executed(std::size_t i) const { return ticks_of(i).executed; }
  u64 component_skipped(std::size_t i) const { return ticks_of(i).skipped; }

  /// This clock domain's execution profile (sim/exec_profile.hpp): its
  /// ticks_* and medium_ticks_* rows are sums of the per-component counts
  /// plus what the last load restored; the lockstep rows stay zero.
  ExecProfile profile() const;

  /// Attaches (or detaches, with nullptr) an execution-domain observer.
  void set_observer(SchedulerObserver* o) noexcept { observer_ = o; }

  // ---- Checkpoint (sim/checkpoint.hpp) ----
  /// Persists the clock and execution counters. Legal only between runs.
  /// A held lane's quiescence state is closed (every sleeper settled)
  /// first, so the only simulation state a scheduler carries is now_ —
  /// enter_batched rebuilds the whole quiescence apparatus (active set,
  /// wake wheel, per-component states) from component bounds at the next
  /// entry. load_state collapses next_wake() to now(), which is always safe
  /// and never stale (the set_idle_skip argument).
  void save_state(snap::Writer& w);
  void load_state(snap::Reader& r);

 private:
  friend class MultiScheduler;
  /// run_cycles for a MultiScheduler lane: a skipping run leaves its
  /// quiescence state (active set, wake wheel, sleeper marks) open, so the
  /// next held run resumes it instead of re-partitioning every component,
  /// and the exit settles nobody. Between held runs sleepers are unsettled
  /// unless read through settle-on-read, and a wake settles the component,
  /// activates it and collapses next_wake() to now().
  void run_held(Cycle n);
  /// Closes a held state: settles every sleeper, as every direct run does
  /// at its exit. No-op when nothing is held or the scheduler faulted.
  void close_held();

  /// The kernel, templated on the stop predicate: run_cycles' folds away.
  template <typename Done>
  bool advance(Cycle n, const Done& done, bool hold);
  template <typename Done>
  bool run_every_tick(Cycle n, const Done& done);
  template <typename Done>
  bool run_skipping(Cycle limit, const Done& done);
  /// Rebuilds the contiguous stage-ordered execution array.
  void freeze();
  void enter_batched();
  void exit_batched();
  /// Sets next_wake() from the active set and the wake wheel.
  void publish_wake_hint();
  /// Settles a sleeping component and re-inserts it into the active set.
  void wake_component(u32 idx);
  /// Catches a sleeping component up through the catch-up rule (it stays
  /// asleep); the inline part is the no-op fast path every media read pays.
  void settle_component(u32 idx) {
    if (in_batched_run_ && states_[idx].sleeping) settle_sleeper(idx);
  }
  void settle_sleeper(u32 idx);
  /// Settles and wakes a sleeper's state, reporting its skip span.
  void end_sleep(u32 idx);
  /// Poisons the scheduler after a throw in a run (cursor_ names the tick).
  void fault();
  friend class Clockable;

  struct Entry {
    Clockable* component;
    int stage;
  };

  /// Per-component quiescence state, parallel to batch_; live only inside
  /// a skipping run or between held runs.
  struct CompState {
    bool sleeping = false;
    bool in_wheel = false;  ///< A live wheel entry exists for this sleep.
    u32 gen = 0;            ///< Invalidates stale wake-wheel entries.
    Cycle slept_from = 0;   ///< First skipped tick not yet settled.
    Cycle span_from = 0;    ///< First skipped tick of this sleep (observer).
  };

  /// Eagerly sweep the wheel when stale entries both exceed this floor and
  /// outnumber live ones — bounding wheel depth on wake-heavy workloads
  /// without paying a sweep for isolated early wakes.
  static constexpr std::size_t kPurgeMinStale = 64;

  static constexpr std::size_t kNoCursor = ~std::size_t{0};

  /// Drains due wheel entries at now_ and purges when stale entries
  /// dominate (the lazy-deletion leak fix).
  void drain_wheel();
  /// A wheel entry still names its component's current sleep.
  bool is_live(const TimingWheel::Entry& e) const noexcept {
    const CompState& st = states_[e.index];
    return st.sleeping && st.gen == e.gen;
  }

  TimeBase timebase_;
  Cycle now_ = 0;
  std::vector<Entry> entries_;  ///< Registration order.
  std::vector<std::string> names_;
  std::vector<Clockable*> batch_;  ///< Stage-ordered, rebuilt when dirty.
  bool batch_dirty_ = false;

  bool idle_skip_ = true;
  /// The quiescence state is open: inside a skipping run, or held after one.
  bool in_batched_run_ = false;
  bool in_cycle_ = false;
  std::size_t cursor_ = kNoCursor;  ///< Frozen index currently ticking.
  std::vector<CompState> states_;
  ActiveSet active_;  ///< Awake components, iterated in frozen order.
  TimingWheel wheel_;
  std::size_t wheel_stale_ = 0;  ///< Known-stale entries still in the wheel.
  Cycle next_wake_ = 0;
  std::string fault_;  ///< SchedulerFaulted message; empty while healthy.

  // ---- Execution profile ----
  struct TickCounts {
    u64 executed = 0;
    u64 skipped = 0;
  };
  /// Registration index i's counts; zero until a run freezes it in.
  TickCounts ticks_of(std::size_t i) const {
    return i < rank_.size() ? counts_[rank_[i]] : TickCounts{};
  }
  /// {executed, skipped} per stage: the components' counts plus what the
  /// last load_state restored.
  std::map<int, std::pair<u64, u64>> ticks_by_stage() const;
  std::vector<u32> order_;          ///< Frozen index -> registration index.
  std::vector<u32> rank_;           ///< Registration index -> frozen index.
  std::vector<TickCounts> counts_;  ///< Per-component ticks, by frozen index.
  /// Per-stage {executed, skipped} totals the last load_state restored.
  std::map<int, std::pair<u64, u64>> restored_stages_;
  Cycle ff_cycles_ = 0;
  u64 ff_events_ = 0;
  u64 wheel_depth_max_ = 0;
  u64 wheel_purges_ = 0;
  SchedulerObserver* observer_ = nullptr;
};

inline void Clockable::settle_self() const noexcept {
  if (wake_sched_ != nullptr) wake_sched_->settle_component(wake_index_);
}

}  // namespace drmp::sim
