// Simulation-kernel tests: scheduler determinism, derived clocks, trace
// bookkeeping, statistics collectors.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <memory>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "sim/checkpoint.hpp"
#include "sim/clock.hpp"
#include "sim/multi_scheduler.hpp"
#include "sim/scheduler.hpp"
#include "sim/stats.hpp"

namespace drmp::sim {
namespace {

class Counter : public Clockable {
 public:
  void tick() override { ++ticks; }
  Cycle ticks = 0;
};

/// Appends its id to a shared log on every tick — pins down exact tick order.
class OrderLogger : public Clockable {
 public:
  OrderLogger(std::vector<int>& log, int id) : log_(log), id_(id) {}
  void tick() override { log_.push_back(id_); }

 private:
  std::vector<int>& log_;
  int id_;
};

TEST(Scheduler, RunsRegisteredComponentsEveryCycle) {
  Scheduler s(200e6);
  Counter a, b;
  s.add(a, "a");
  s.add(b, "b");
  s.run_cycles(100);
  EXPECT_EQ(a.ticks, 100u);
  EXPECT_EQ(b.ticks, 100u);
  EXPECT_EQ(s.now(), 100u);
}

/// Sleeps until its clock reaches `at`, ticks once there (the event), then
/// sleeps for good. `clock` is a time-integrated counter: exact only once a
/// run has settled it.
class OneShotEvent : public Clockable {
 public:
  explicit OneShotEvent(Cycle at) : at_(at) {}
  void tick() override {
    if (clock == at_) ++fired;
    ++clock;
  }
  Cycle quiescent_for() const override {
    return clock < at_ ? at_ - clock : kIdleForever;
  }
  void skip_idle(Cycle n) override { clock += n; }
  Cycle clock = 0;
  u32 fired = 0;

 private:
  Cycle at_;
};

TEST(Scheduler, RunUntilStopsAtPredicate) {
  // The event lands inside a fast-forward gap (the wheel reaches it in a
  // few hops); both modes must stop on the cycle after it with the sleeper
  // settled, and the skipping kernel must really skip.
  for (const bool skip : {true, false}) {
    SCOPED_TRACE(skip);
    Scheduler s(200e6);
    s.set_idle_skip(skip);
    OneShotEvent e(5'000);
    s.add(e, "event");
    EXPECT_TRUE(s.run_until([&] { return true; }, 1000));  // True at entry.
    EXPECT_EQ(s.now(), 0u);
    EXPECT_EQ(e.clock, 0u);
    EXPECT_TRUE(s.run_until([&] { return e.fired > 0; }, 100'000));
    EXPECT_EQ(s.now(), 5'001u);
    EXPECT_EQ(e.clock, 5'001u);
    EXPECT_EQ(s.profile().ticks_skipped > 0, skip);
  }
  Scheduler s(200e6);
  Counter a;
  s.add(a, "a");
  EXPECT_TRUE(s.run_until([&] { return a.ticks >= 42; }, 1000));
  EXPECT_EQ(a.ticks, 42u);
  EXPECT_EQ(s.now(), 42u);
}

TEST(Scheduler, RunUntilTimesOut) {
  for (const bool skip : {true, false}) {
    SCOPED_TRACE(skip);
    Scheduler s(200e6);
    s.set_idle_skip(skip);
    OneShotEvent e(5'000);
    s.add(e, "event");
    s.run_cycles(100);
    EXPECT_FALSE(s.run_until([&] { return e.fired > 1; }, 10'000));
    EXPECT_EQ(s.now(), 10'100u);
    EXPECT_EQ(e.clock, 10'100u);
    EXPECT_EQ(e.fired, 1u);
    EXPECT_EQ(s.profile().ticks_skipped > 0, skip);
  }
}

TEST(Scheduler, BatchedMatchesEveryTickCycleForCycle) {
  // Identical component populations through both modes must leave
  // identical state: same tick sequence, same tick counts, same clock.
  std::vector<int> every_log, batched_log;
  Scheduler every(200e6), batched(200e6);
  every.set_idle_skip(false);
  OrderLogger l0(every_log, 0), l1(every_log, 1), l2(every_log, 2);
  OrderLogger b0(batched_log, 0), b1(batched_log, 1), b2(batched_log, 2);
  every.add(l0, "a");
  every.add(l1, "b");
  every.add(l2, "c");
  batched.add(b0, "a");
  batched.add(b1, "b");
  batched.add(b2, "c");
  every.run_cycles(37);
  batched.run_cycles(37);
  EXPECT_EQ(every.now(), batched.now());
  EXPECT_EQ(every_log, batched_log);
}

TEST(Scheduler, StagesOverrideRegistrationOrderInBothPaths) {
  // A medium-stage component registered last still ticks first; within a
  // stage, registration order is preserved.
  for (const bool skip : {false, true}) {
    std::vector<int> log;
    Scheduler s(200e6);
    s.set_idle_skip(skip);
    OrderLogger dev1(log, 1), dev2(log, 2), probe(log, 3), medium(log, 0);
    s.add(dev1, "dev1");
    s.add(probe, "probe", Scheduler::kStageObserver);
    s.add(dev2, "dev2");
    s.add(medium, "medium", Scheduler::kStageMedium);
    s.run_cycles(2);
    EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3, 0, 1, 2, 3}));
    EXPECT_EQ(s.component_stage(1), Scheduler::kStageObserver);
    EXPECT_EQ(s.component_stage(3), Scheduler::kStageMedium);
    EXPECT_EQ(s.component_name(3), "medium");
  }
}

TEST(Scheduler, BatchedAdvancesNowEveryCycleAsSeenFromTicks) {
  // Components that sample now() mid-tick (latency bookkeeping does) must
  // observe the same clock in both modes.
  class NowSampler : public Clockable {
   public:
    explicit NowSampler(Scheduler& s) : s_(s) {}
    void tick() override { seen.push_back(s_.now()); }
    std::vector<Cycle> seen;

   private:
    Scheduler& s_;
  };
  Scheduler every(200e6), batched(200e6);
  every.set_idle_skip(false);
  NowSampler nl(every), nb(batched);
  every.add(nl, "n");
  batched.add(nb, "n");
  every.run_cycles(5);
  batched.run_cycles(5);
  EXPECT_EQ(nl.seen, nb.seen);
  EXPECT_EQ(nb.seen, (std::vector<Cycle>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, BatchedZeroCyclesIsANoop) {
  Scheduler s(200e6);
  Counter a;
  s.add(a, "a");
  s.run_cycles(0);
  EXPECT_EQ(s.now(), 0u);
  EXPECT_EQ(a.ticks, 0u);
}

TEST(MultiScheduler, LockstepMatchesIndividualRuns) {
  Scheduler s1(200e6), s2(200e6);
  Counter a, b;
  s1.add(a, "a");
  s2.add(b, "b");
  MultiScheduler multi;
  multi.add(s1);
  multi.add(s2);
  const auto res = multi.run(10'000, /*stride=*/64);
  EXPECT_EQ(res.cycles, 10'000u);
  EXPECT_EQ(a.ticks, 10'000u);
  EXPECT_EQ(b.ticks, 10'000u);
  EXPECT_EQ(s1.now(), s2.now());
  // Unpredicated lanes never "finish" but don't block all_finished.
  EXPECT_TRUE(res.all_finished);
  EXPECT_EQ(res.lanes_finished, 0u);
}

TEST(MultiScheduler, EarlyExitStopsALaneAtStrideGranularity) {
  Scheduler s1(200e6), s2(200e6);
  Counter a, b;
  s1.add(a, "a");
  s2.add(b, "b");
  MultiScheduler multi;
  multi.add(s1, [&] { return a.ticks >= 100; });  // Fires inside stride 1.
  multi.add(s2, [&] { return b.ticks >= 5000; });
  const auto res = multi.run(100'000, /*stride=*/256);
  EXPECT_TRUE(res.all_finished);
  EXPECT_EQ(res.lanes_finished, 2u);
  // Lane 1 stopped at its first stride boundary after the predicate fired.
  EXPECT_EQ(a.ticks, 256u);
  EXPECT_TRUE(multi.lane_finished(0));
  EXPECT_EQ(multi.lane_cycles(0), 256u);
  // Lane 2 ran on without lane 1: 5000 rounded up to the stride boundary.
  EXPECT_EQ(b.ticks, 5120u);
  EXPECT_EQ(res.cycles, 5120u);
}

TEST(MultiScheduler, WorkerThreadsMatchSerialExactly) {
  // Lanes are independent clock domains, so a 4-worker run must leave every
  // lane in the same state as the serial run.
  constexpr std::size_t kLanes = 6;
  std::vector<std::unique_ptr<Scheduler>> serial_s, parallel_s;
  std::vector<std::unique_ptr<Counter>> serial_c, parallel_c;
  MultiScheduler serial, parallel;
  for (std::size_t i = 0; i < kLanes; ++i) {
    for (auto* side : {&serial_s, &parallel_s}) {
      side->push_back(std::make_unique<Scheduler>(200e6));
    }
    serial_c.push_back(std::make_unique<Counter>());
    parallel_c.push_back(std::make_unique<Counter>());
    serial_s[i]->add(*serial_c[i], "c");
    parallel_s[i]->add(*parallel_c[i], "c");
    const Cycle target = 1000 + 700 * i;
    Counter* sc = serial_c[i].get();
    Counter* pc = parallel_c[i].get();
    serial.add(*serial_s[i], [sc, target] { return sc->ticks >= target; });
    parallel.add(*parallel_s[i], [pc, target] { return pc->ticks >= target; });
  }
  const auto rs = serial.run(100'000, 256, /*workers=*/1);
  const auto rp = parallel.run(100'000, 256, /*workers=*/4);
  EXPECT_EQ(rs.cycles, rp.cycles);
  EXPECT_EQ(rs.lanes_finished, rp.lanes_finished);
  for (std::size_t i = 0; i < kLanes; ++i) {
    EXPECT_EQ(serial_c[i]->ticks, parallel_c[i]->ticks) << "lane " << i;
    EXPECT_EQ(serial.lane_cycles(i), parallel.lane_cycles(i)) << "lane " << i;
  }
}

TEST(MultiScheduler, BudgetExhaustionReportsUnfinishedLanes) {
  Scheduler s1(200e6);
  Counter a;
  s1.add(a, "a");
  MultiScheduler multi;
  multi.add(s1, [&] { return false; });
  const auto res = multi.run(1000, /*stride=*/300);
  EXPECT_FALSE(res.all_finished);
  EXPECT_EQ(res.lanes_finished, 0u);
  EXPECT_EQ(res.cycles, 1000u);  // Final partial stride honours the budget.
  EXPECT_EQ(a.ticks, 1000u);
}

TEST(MultiScheduler, AlreadyDrainedLaneNeverTicks) {
  Scheduler s1(200e6);
  Counter a;
  s1.add(a, "a");
  MultiScheduler multi;
  multi.add(s1, [] { return true; });
  const auto res = multi.run(1000);
  EXPECT_TRUE(res.all_finished);
  EXPECT_EQ(a.ticks, 0u);
  EXPECT_EQ(res.cycles, 0u);
}

TEST(Stats, DigestIsOrderSensitiveAndStable) {
  Digest d1, d2, d3;
  d1.mix(1).mix(2);
  d2.mix(1).mix(2);
  d3.mix(2).mix(1);
  EXPECT_EQ(d1.value(), d2.value());
  EXPECT_NE(d1.value(), d3.value());
  EXPECT_NE(Digest{}.value(), d1.value());
}

TEST(TimeBase, CycleConversionsAt200MHz) {
  TimeBase tb(200e6);
  EXPECT_EQ(tb.us_to_cycles(10.0), 2000u);       // SIFS = 10 us.
  EXPECT_DOUBLE_EQ(tb.cycles_to_us(2000), 10.0);
  EXPECT_EQ(tb.ns_to_cycles(5.0), 1u);           // One cycle = 5 ns.
}

TEST(DerivedClock, FractionalDividerLongRunAccuracy) {
  // 11 Mbps byte clock from a 200 MHz master: 1.375 M edges/s.
  TimeBase tb(200e6);
  DerivedClock byte_clk(200e6, 11e6 / 8.0);
  u64 edges = 0;
  const u64 cycles = 2'000'000;  // 10 ms.
  for (u64 i = 0; i < cycles; ++i) edges += byte_clk.advance();
  // 10 ms * 1.375 MHz = 13750 edges.
  EXPECT_NEAR(static_cast<double>(edges), 13750.0, 1.0);
}

TEST(Stats, BusyCounterFraction) {
  BusyCounter c;
  for (int i = 0; i < 100; ++i) c.sample(i < 25);
  EXPECT_DOUBLE_EQ(c.busy_fraction(), 0.25);
}

TEST(Stats, StateOccupancyTotals) {
  StateOccupancy occ;
  for (int i = 0; i < 10; ++i) occ.sample(0);
  for (int i = 0; i < 5; ++i) occ.sample(2);
  EXPECT_EQ(occ.cycles_in(0), 10u);
  EXPECT_EQ(occ.cycles_in(2), 5u);
  EXPECT_EQ(occ.cycles_in(7), 0u);
  EXPECT_EQ(occ.total(), 15u);
}

/// Walks a statechart through fixed dwell times, sampling its state into a
/// StateOccupancy each tick and sleeping through the rest of a dwell.
class StateWalker : public Clockable {
 public:
  explicit StateWalker(StateOccupancy& occ) : occ_(occ) {}
  void tick() override {
    occ_.sample(state());
    advance(1);
  }
  Cycle quiescent_for() const override { return left_ - 1; }
  void skip_idle(Cycle n) override {
    occ_.sample_n(state(), n);
    advance(n);
  }

 private:
  static constexpr std::array<int, 5> kStates = {0, 9, 3, 9, 15};
  static constexpr std::array<Cycle, 5> kDwell = {40, 7, 1, 120, 33};
  int state() const { return kStates[at_]; }
  void advance(Cycle n) {
    left_ -= n;
    if (left_ != 0) return;
    at_ = (at_ + 1) % kStates.size();
    left_ = kDwell[at_];
  }
  StateOccupancy& occ_;
  std::size_t at_ = 0;
  Cycle left_ = kDwell[0];
};

Bytes occupancy_bytes(StateOccupancy& occ) {
  snap::Writer w;
  w.io(occ);
  return w.envelope();
}

TEST(Stats, StateOccupancySnapshotIsTheMapEncoding) {
  // The histogram used to be a std::map<int, Cycle>; snapshots written then
  // must load now and the bytes written now must be the same, in both
  // idle-skip modes. State 7 is sampled for 0 cycles: still a key.
  std::map<int, Cycle> ref;
  for (bool skip : {false, true}) {
    SCOPED_TRACE(skip);
    Scheduler s(100e6);
    s.set_idle_skip(skip);
    StateOccupancy occ;
    StateWalker walker(occ);
    s.add(walker, "walker");
    s.run_cycles(1000);
    occ.sample_n(7, 0);
    if (!skip) {
      for (int st = 0; st < StateOccupancy::kMaxStates; ++st) {
        if (occ.cycles_in(st) != 0 || st == 7) ref[st] = occ.cycles_in(st);
      }
      EXPECT_EQ(ref.size(), 5u);
    }
    snap::Writer wm;
    wm.io(ref);
    EXPECT_EQ(occupancy_bytes(occ), wm.envelope());

    // Map bytes in: the load replaces what was there.
    StateOccupancy back;
    back.sample_n(4, 11);
    snap::Reader r(wm.envelope());
    r.io(back);
    EXPECT_TRUE(r.at_end());
    EXPECT_EQ(back.cycles_in(4), 0u);
    for (const auto& [st, c] : ref) EXPECT_EQ(back.cycles_in(st), c);
    EXPECT_EQ(back.total(), occ.total());
    // ...and back out as the same map.
    snap::Reader r2(occupancy_bytes(back));
    std::map<int, Cycle> again;
    r2.io(again);
    EXPECT_EQ(again, ref);
  }
}

TEST(Stats, StateOccupancyRange) {
  StateOccupancy occ;
  occ.sample(StateOccupancy::kMaxStates - 1);
  EXPECT_EQ(occ.cycles_in(StateOccupancy::kMaxStates - 1), 1u);
  EXPECT_EQ(occ.cycles_in(2), 0u);  // Unseen.
  EXPECT_EQ(occ.cycles_in(-1), 0u);
  EXPECT_EQ(occ.cycles_in(StateOccupancy::kMaxStates), 0u);
  EXPECT_EQ(occ.cycles_in(1 << 20), 0u);
  EXPECT_THROW(occ.sample(StateOccupancy::kMaxStates), std::out_of_range);
  EXPECT_THROW(occ.sample_n(-1, 3), std::out_of_range);
  // A snapshot naming a state the histogram cannot hold is refused.
  std::map<int, Cycle> bad = {{StateOccupancy::kMaxStates, 1}};
  snap::Writer w;
  w.io(bad);
  snap::Reader r(w.envelope());
  EXPECT_THROW(r.io(occ), std::out_of_range);
}

TEST(Stats, BulkSamplesMatchLoopedSamples) {
  BusyCounter a, b;
  for (int i = 0; i < 37; ++i) a.sample(true);
  for (int i = 0; i < 63; ++i) a.sample(false);
  b.sample_n(true, 37);
  b.sample_n(false, 63);
  EXPECT_EQ(a.busy_cycles(), b.busy_cycles());
  EXPECT_EQ(a.total_cycles(), b.total_cycles());
  StateOccupancy oa, ob;
  for (int i = 0; i < 12; ++i) oa.sample(3);
  ob.sample_n(3, 12);
  EXPECT_EQ(oa.cycles_in(3), ob.cycles_in(3));
}

// ---- Quiescence-aware batching -------------------------------------------

/// Periodic worker honouring the full quiescence contract: does real work
/// every `period` cycles, declares the gaps skippable, and keeps an internal
/// clock that must stay cycle-exact through skips.
class PeriodicWorker : public Clockable {
 public:
  explicit PeriodicWorker(Cycle period) : period_(period), next_due_(period) {}

  void tick() override {
    const Cycle t = clock_++;
    if (t >= next_due_) {
      work_log.push_back(t);
      next_due_ = t + period_;
    }
  }
  Cycle quiescent_for() const override {
    ++bound_calls;
    return next_due_ > clock_ ? next_due_ - clock_ : 0;
  }
  void skip_idle(Cycle n) override {
    clock_ += n;
    skipped += n;
  }

  Cycle clock() const noexcept { return clock_; }
  std::vector<Cycle> work_log;
  Cycle skipped = 0;
  mutable u64 bound_calls = 0;  ///< quiescent_for() calls.

 private:
  Cycle period_;
  Cycle next_due_;
  Cycle clock_ = 0;
};

TEST(Quiescence, LateRegistrationKeepsEveryComponentsTickCounts) {
  // A late add() re-freezes the tick order (a medium now ticks first); each
  // count stays with its component, read by registration index, and the
  // newcomer counts from its first run.
  for (const bool skip : {false, true}) {
    Scheduler s(200e6);
    s.set_idle_skip(skip);
    Counter dev, medium;
    PeriodicWorker worker(50);
    s.add(dev, "dev");
    s.add(worker, "worker");
    s.run_cycles(100);
    s.add(medium, "medium", Scheduler::kStageMedium);
    s.run_cycles(60);
    EXPECT_EQ(s.component_executed(0), 160u);
    EXPECT_EQ(s.component_executed(1) + s.component_skipped(1), 160u);
    EXPECT_EQ(s.component_skipped(1), worker.skipped);
    EXPECT_EQ(worker.skipped > 0, skip);
    EXPECT_EQ(s.component_executed(2), 60u);
    const ExecProfile p = s.profile();
    EXPECT_EQ(p.ticks_executed + p.ticks_skipped, 160u + 160u + 60u);
    EXPECT_EQ(p.medium_ticks_executed, 60u);
  }
}

/// Mailbox consumer: sleeps indefinitely while empty; producers wake it.
class MailboxConsumer : public Clockable {
 public:
  void tick() override {
    const Cycle t = clock_++;
    if (pending_ > 0) {
      --pending_;
      rx_log.push_back(t);
    }
  }
  Cycle quiescent_for() const override { return pending_ > 0 ? 0 : kIdleForever; }
  void skip_idle(Cycle n) override { clock_ += n; }
  void push() {
    wake_self();
    ++pending_;
  }

  Cycle clock() const noexcept { return clock_; }
  std::vector<Cycle> rx_log;

 private:
  u32 pending_ = 0;
  Cycle clock_ = 0;
};

/// Producer ticked every cycle that pushes into a consumer at given cycles.
class ScriptedProducer : public Clockable {
 public:
  ScriptedProducer(MailboxConsumer& c, std::vector<Cycle> at)
      : consumer_(c), at_(std::move(at)) {}
  void tick() override {
    for (Cycle a : at_) {
      if (a == now_) consumer_.push();
    }
    ++now_;
  }

 private:
  MailboxConsumer& consumer_;
  std::vector<Cycle> at_;
  Cycle now_ = 0;
};

TEST(Quiescence, PeriodicWorkerSkipsButMatchesEveryTickExactly) {
  Scheduler every(200e6), batched(200e6);
  every.set_idle_skip(false);
  PeriodicWorker wl(137), wb(137);
  every.add(wl, "w");
  batched.add(wb, "w");
  every.run_cycles(10'000);
  batched.run_cycles(10'000);
  EXPECT_EQ(wl.work_log, wb.work_log);
  EXPECT_EQ(wl.clock(), wb.clock());
  EXPECT_EQ(batched.now(), every.now());
  EXPECT_GT(wb.skipped, 0u);                 // It really slept...
  EXPECT_GT(batched.profile().ticks_skipped, 0u);  // ...through the wake-wheel...
  EXPECT_GT(batched.profile().ff_cycles, 0u);      // ...across global gaps.
  EXPECT_LT(batched.profile().ticks_executed, 10'000u);
}

TEST(Quiescence, WakeLandsOnTheEveryTickCycleEitherSideOfTheProducer) {
  // The consumer must observe a push in the same cycle as in every-tick
  // mode, whether its tick slot comes before or after the producer's.
  for (const bool consumer_first : {true, false}) {
    Scheduler every(200e6), batched(200e6);
    every.set_idle_skip(false);
    MailboxConsumer cl, cb;
    ScriptedProducer pl(cl, {100, 101, 500}), pb(cb, {100, 101, 500});
    if (consumer_first) {
      every.add(cl, "c");
      every.add(pl, "p");
      batched.add(cb, "c");
      batched.add(pb, "p");
    } else {
      every.add(pl, "p");
      every.add(cl, "c");
      batched.add(pb, "p");
      batched.add(cb, "c");
    }
    every.run_cycles(1'000);
    batched.run_cycles(1'000);
    EXPECT_EQ(cl.rx_log, cb.rx_log) << "consumer_first=" << consumer_first;
    EXPECT_EQ(cl.clock(), cb.clock()) << "consumer_first=" << consumer_first;
  }
}

/// Settle-on-read component: sleeps until poked, and its public clock()
/// settles it first, so readers always see the every-tick value.
class SettledClock : public Clockable {
 public:
  void tick() override {
    ++clock_;
    pending_ = false;
  }
  Cycle quiescent_for() const override { return pending_ ? 0 : kIdleForever; }
  void skip_idle(Cycle n) override { clock_ += n; }
  Cycle clock() const noexcept {
    settle_self();
    return clock_;
  }
  void poke() {
    wake_self();
    pending_ = true;
  }

 private:
  bool pending_ = false;
  Cycle clock_ = 0;
};

/// Never quiescent: reads the settled clock every cycle, and at scripted
/// cycles pokes it between two reads (a settle, then a wake, then a read
/// in one cycle).
class ClockReader : public Clockable {
 public:
  ClockReader(SettledClock& c, std::vector<Cycle> poke_at)
      : c_(c), poke_at_(std::move(poke_at)) {}
  void tick() override {
    log.push_back(c_.clock());
    for (const Cycle a : poke_at_) {
      if (a == now_) {
        c_.poke();
        log.push_back(c_.clock());
      }
    }
    ++now_;
  }
  std::vector<Cycle> log;

 private:
  SettledClock& c_;
  std::vector<Cycle> poke_at_;
  Cycle now_ = 0;
};

TEST(Quiescence, SettleOnReadMatchesEveryTickEitherSideOfTheReader) {
  for (const bool reader_first : {true, false}) {
    Scheduler every(200e6), batched(200e6);
    every.set_idle_skip(false);
    SettledClock cl, cb;
    ClockReader rl(cl, {3, 4, 250}), rb(cb, {3, 4, 250});
    for (auto [s, c, r] :
         {std::tuple{&every, &cl, &rl}, std::tuple{&batched, &cb, &rb}}) {
      if (reader_first) s->add(*r, "r");
      s->add(*c, "c");
      if (!reader_first) s->add(*r, "r");
    }
    every.run_cycles(300);
    batched.run_cycles(300);
    EXPECT_EQ(rl.log, rb.log) << "reader_first=" << reader_first;
    EXPECT_EQ(cl.clock(), cb.clock());
    // Reads did not wake it: one tick per poke, the rest settled.
    const std::size_t ci = reader_first ? 1 : 0;
    EXPECT_EQ(batched.component_executed(ci), 3u);
    EXPECT_EQ(batched.component_executed(1 - ci), 300u);
  }
}

TEST(Quiescence, SplitRunsMatchOneRun) {
  // run_cycles(a); run_cycles(b) must equal one (a+b) run: the settle and
  // re-partition at the boundary change nothing.
  Scheduler one(200e6), split(200e6);
  PeriodicWorker w1(97), w2(97);
  one.add(w1, "w");
  split.add(w2, "w");
  one.run_cycles(4'000);
  split.run_cycles(1'000);
  split.run_cycles(512);
  split.run_cycles(2'488);
  EXPECT_EQ(w1.work_log, w2.work_log);
  EXPECT_EQ(w1.clock(), w2.clock());
}

TEST(Quiescence, IdleSkipDisabledTicksEverything) {
  Scheduler s(200e6);
  s.set_idle_skip(false);
  PeriodicWorker w(50);
  s.add(w, "w");
  s.run_cycles(1'000);
  EXPECT_EQ(w.skipped, 0u);
  EXPECT_EQ(w.clock(), 1'000u);
  EXPECT_EQ(s.profile().ticks_executed, 1'000u);
}

TEST(Quiescence, NextWakeReportsTheEarliestRealTick) {
  Scheduler s(200e6);
  PeriodicWorker w(1'000);
  s.add(w, "w");
  s.run_cycles(100);  // Well inside the first idle stretch.
  EXPECT_EQ(s.next_wake(), 1'000u);
  Scheduler busy(200e6);
  Counter c;  // Default contract: never quiescent.
  busy.add(c, "c");
  busy.run_cycles(100);
  EXPECT_EQ(busy.next_wake(), busy.now());
}

TEST(Quiescence, NextWakeRecomputedWhenIdleSkipTogglesMidRun) {
  // The hint published at the end of a batched run was computed under the
  // skip policy active then; flipping the policy must invalidate it at once.
  // A MultiScheduler consulting a stale far-future hint right after
  // set_idle_skip(false) would skip a lane that now needs every cycle ticked.
  Scheduler s(200e6);
  PeriodicWorker w(1'000);
  s.add(w, "w");
  s.run_cycles(100);  // Idle until cycle 1'000 under skipping.
  ASSERT_EQ(s.next_wake(), 1'000u);
  s.set_idle_skip(false);
  EXPECT_EQ(s.next_wake(), s.now());  // Collapsed, not stale.
  s.run_cycles(100);
  EXPECT_EQ(s.next_wake(), s.now());  // Non-skipping runs pin it to now.
  s.set_idle_skip(true);
  EXPECT_EQ(s.next_wake(), s.now());  // Conservative until the next run...
  s.run_cycles(100);
  EXPECT_EQ(s.next_wake(), 1'000u);  // ...which re-establishes the bound.
  EXPECT_EQ(w.clock(), 300u);  // And the worker stayed cycle-exact throughout.
}

TEST(Quiescence, MultiSchedulerSkipsQuiescentLanesBitIdentically) {
  // Lane 0 works every 100 cycles, lane 1 every 40'000 (it skips whole
  // strides); both must land exactly where dispatch-every-round lands.
  for (const unsigned workers : {1u, 4u}) {
    Scheduler s0(200e6), s1(200e6);
    PeriodicWorker w0(100), w1(40'000);
    s0.add(w0, "w0");
    s1.add(w1, "w1");
    MultiScheduler multi;
    multi.add(s0);
    multi.add(s1);
    const auto res = multi.run(100'000, 1'024, workers);
    EXPECT_EQ(res.cycles, 100'000u);
    EXPECT_EQ(s0.now(), 100'000u);
    EXPECT_EQ(s1.now(), 100'000u);  // Flushed to the lockstep clock.
    EXPECT_EQ(multi.lane_cycles(0), 100'000u);
    EXPECT_EQ(multi.lane_cycles(1), 100'000u);
    Scheduler ref(200e6);
    PeriodicWorker wr(40'000);
    ref.add(wr, "w");
    ref.run_cycles(100'000);
    EXPECT_EQ(w1.work_log, wr.work_log) << "workers=" << workers;
  }
}

// ---- Held lanes: quiescence state kept across lockstep rounds ------------

/// Sleeps until woken; post(at) stamps an input due at cycle `at` (never
/// before the round edge it is posted at), and the first tick at or past
/// `at` consumes it — the shape of a coupler's foreign-carrier image.
class StampedInbox : public Clockable {
 public:
  void tick() override {
    if (clock_ >= due_) {
      fired.push_back(clock_);
      due_ = kNever;
    }
    ++clock_;
  }
  Cycle quiescent_for() const override {
    if (due_ == kNever) return kIdleForever;
    return due_ > clock_ ? due_ - clock_ : 0;
  }
  void skip_idle(Cycle n) override { clock_ += n; }
  void post(Cycle at) {
    wake_self();
    due_ = at;
  }

  Cycle clock() const noexcept { return clock_; }
  std::vector<Cycle> fired;

 private:
  static constexpr Cycle kNever = ~Cycle{0};
  Cycle due_ = kNever;
  Cycle clock_ = 0;
};

TEST(HeldLanes, WakeBetweenRoundsRedispatchesASkippedLane) {
  // Lane 0 holds one forever-sleeper, so it is round-skipped from round 2
  // on. The round hook posts into it at edge 10; it must consume the input
  // on the every-tick cycle, and the hook must see that at edge 11.
  constexpr Cycle kStride = 256;
  for (const unsigned workers : {1u, 4u}) {
    SCOPED_TRACE(workers);
    std::vector<std::vector<std::size_t>> seen_by_mode;
    for (const bool skip : {true, false}) {
      Scheduler s0(200e6), s1(200e6);
      s0.set_idle_skip(skip);
      s1.set_idle_skip(skip);
      StampedInbox inbox;
      PeriodicWorker w(100);
      s0.add(inbox, "inbox");
      s1.add(w, "w");
      MultiScheduler multi;
      multi.add(s0);
      multi.add(s1);
      std::vector<std::size_t> seen;  // inbox.fired.size() at each edge.
      Cycle edge = 0;
      multi.set_round_hook([&] {
        edge += kStride;
        seen.push_back(inbox.fired.size());
        if (edge == 10 * kStride) inbox.post(edge + 7);
      });
      multi.run(20 * kStride, kStride, workers);
      EXPECT_EQ(inbox.fired, (std::vector<Cycle>{10 * kStride + 7}));
      EXPECT_EQ(inbox.clock(), 20 * kStride);
      ASSERT_EQ(seen.size(), 20u);
      EXPECT_EQ(seen[9], 0u);   // Edge 10: posted, not yet consumed.
      EXPECT_EQ(seen[10], 1u);  // Edge 11: consumed inside round 11.
      EXPECT_EQ(multi.lane_rounds_skipped(0) > 0, skip);
      seen_by_mode.push_back(seen);
    }
    EXPECT_EQ(seen_by_mode[0], seen_by_mode[1]);
  }
}

TEST(HeldLanes, BoundCallsScaleWithTicksNotRounds) {
  // A round re-partitioning and settling every component would cost
  // quiescent_for() calls per component per round. Held lanes pay one per
  // executed tick, plus one per component each time a lane (re)opens: at
  // its first run and after each edge-hook close.
  Scheduler s0(200e6), s1(200e6);
  PeriodicWorker a(5'000), b(7'000), c(11'000), d(3'000);
  s0.add(a, "a");
  s0.add(b, "b");
  s0.add(c, "c");
  s1.add(d, "d");
  MultiScheduler multi;
  multi.add(s0);
  multi.add(s1, [&] { return d.work_log.size() >= 3; });  // Retires early.
  u64 firings = 0;
  multi.set_edge_hook(100 * 64, [&](Cycle) { ++firings; });
  const auto res = multi.run(1'000 * 64, 64);
  ASSERT_EQ(res.rounds, 1'000u);
  EXPECT_TRUE(multi.lane_finished(1));
  EXPECT_EQ(firings, 10u);
  const u64 calls = a.bound_calls + b.bound_calls + c.bound_calls + d.bound_calls;
  const u64 ticks = s0.profile().ticks_executed + s1.profile().ticks_executed;
  constexpr u64 kComponents = 4;
  constexpr u64 kRetirements = 1;
  EXPECT_LE(calls, ticks + kComponents * (1 + firings + kRetirements))
      << "ticks " << ticks;
  EXPECT_LT(ticks, 100u);  // Mostly asleep: the bound is not vacuous.
}

/// Three lanes under one round hook and one checkpoint edge hook. Lane A
/// works often, lane B rarely (round-skipped, and it retires), lane C
/// receives hook input.
struct HeldRig {
  static constexpr Cycle kStride = 256;
  static constexpr Cycle kRounds = 200;
  static constexpr Cycle kEdgeEvery = 4 * kStride;

  Scheduler sa{200e6}, sb{200e6}, sc{200e6};
  PeriodicWorker a1{97}, a2{1'500}, b1{5'000}, c2{300};
  StampedInbox c1;
  Cycle edge = 0;
  std::vector<std::vector<u64>> round_samples, edge_samples;

  explicit HeldRig(bool skip) {
    for (Scheduler* s : {&sa, &sb, &sc}) s->set_idle_skip(skip);
    sa.add(a1, "a1");
    sa.add(a2, "a2");
    sb.add(b1, "b1");
    sc.add(c1, "c1");
    sc.add(c2, "c2");
  }
  bool b_done() const { return b1.work_log.size() >= 6; }
  /// Event state only: a held lane's sleepers are unsettled here.
  void round_hook() {
    edge += kStride;
    round_samples.push_back({a1.work_log.size(), a2.work_log.size(),
                             b1.work_log.size(), c1.fired.size(),
                             c2.work_log.size()});
    if ((edge / kStride) % 7 == 3) c1.post(edge + 5);
  }
  /// Every lane is flushed and settled: every counter is exact.
  void edge_hook(Cycle cycles) {
    edge_samples.push_back({cycles, sa.now(), sb.now(), sc.now(), a1.clock(),
                            a2.clock(), b1.clock(), c1.clock(), c2.clock()});
    for (const PeriodicWorker* w : {&a1, &a2, &b1, &c2}) {
      edge_samples.back().insert(edge_samples.back().end(), w->work_log.begin(),
                                 w->work_log.end());
    }
  }
};

TEST(HeldLanes, RoundsMatchDispatchEveryRoundAndEveryTick) {
  // Reference: a hand-driven lockstep that calls run_cycles on every live
  // lane every round (each run closes), with the same hooks.
  HeldRig ref(true);
  {
    bool b_finished = false;
    Cycle edge_next = HeldRig::kEdgeEvery;
    for (Cycle done = 0; done < HeldRig::kRounds * HeldRig::kStride;) {
      ref.sa.run_cycles(HeldRig::kStride);
      if (!b_finished) ref.sb.run_cycles(HeldRig::kStride);
      ref.sc.run_cycles(HeldRig::kStride);
      done += HeldRig::kStride;
      if (!b_finished && ref.b_done()) b_finished = true;
      ref.round_hook();
      if (done >= edge_next) {
        ref.edge_hook(done);
        edge_next = (done / HeldRig::kEdgeEvery + 1) * HeldRig::kEdgeEvery;
      }
    }
    ASSERT_TRUE(b_finished);
  }
  for (const unsigned workers : {1u, 4u}) {
    for (const bool skip : {true, false}) {
      SCOPED_TRACE(testing::Message() << "workers=" << workers << " skip=" << skip);
      HeldRig rig(skip);
      MultiScheduler multi;
      multi.add(rig.sa);
      multi.add(rig.sb, [&] { return rig.b_done(); });
      multi.add(rig.sc);
      multi.set_round_hook([&] { rig.round_hook(); });
      multi.set_edge_hook(HeldRig::kEdgeEvery, [&](Cycle c) { rig.edge_hook(c); });
      multi.run(HeldRig::kRounds * HeldRig::kStride, HeldRig::kStride, workers);
      EXPECT_EQ(rig.round_samples, ref.round_samples);
      EXPECT_EQ(rig.edge_samples, ref.edge_samples);
      EXPECT_EQ(rig.c1.fired, ref.c1.fired);
      EXPECT_EQ(rig.b1.clock(), ref.b1.clock());
      EXPECT_TRUE(multi.lane_finished(1));
      EXPECT_EQ(multi.lane_rounds_skipped(1) > 0, skip);
    }
  }
  EXPECT_FALSE(ref.c1.fired.empty());
}

TEST(HeldLanes, ALaneThrowingLeavesTheOthersSettled) {
  // The exception reaches the caller with every other lane closed: plain
  // (not settle-on-read) counters equal every-tick at the lane's now().
  class Thrower : public Clockable {
   public:
    void tick() override {
      if (clock_++ == 5'123) throw std::runtime_error("lane fault");
    }

   private:
    Cycle clock_ = 0;
  };
  for (const unsigned workers : {1u, 4u}) {
    SCOPED_TRACE(workers);
    std::vector<std::unique_ptr<Scheduler>> lanes;
    std::vector<std::unique_ptr<PeriodicWorker>> fast, slow;
    Thrower thrower;
    MultiScheduler multi;
    for (std::size_t i = 0; i < 4; ++i) {
      lanes.push_back(std::make_unique<Scheduler>(200e6));
      if (i < 3) {
        fast.push_back(std::make_unique<PeriodicWorker>(700 + 300 * i));
        slow.push_back(std::make_unique<PeriodicWorker>(40'000));
        lanes[i]->add(*fast[i], "fast");
        lanes[i]->add(*slow[i], "slow");
      } else {
        lanes[i]->add(thrower, "thrower");  // Last: usually a pool thread.
      }
      multi.add(*lanes[i]);
    }
    EXPECT_THROW((void)multi.run(100'000, 256, workers), std::runtime_error);
    for (std::size_t i = 0; i < 3; ++i) {
      SCOPED_TRACE(i);
      const Cycle now = lanes[i]->now();
      EXPECT_GT(now, 0u);
      EXPECT_EQ(fast[i]->clock(), now);
      EXPECT_EQ(slow[i]->clock(), now);
      Scheduler ref(200e6);
      ref.set_idle_skip(false);
      PeriodicWorker rf(700 + 300 * i), rs(40'000);
      ref.add(rf, "fast");
      ref.add(rs, "slow");
      ref.run_cycles(now);
      EXPECT_EQ(fast[i]->work_log, rf.work_log);
      EXPECT_EQ(slow[i]->work_log, rs.work_log);
    }
  }
}

}  // namespace
}  // namespace drmp::sim
