// Simulation-kernel tests: scheduler determinism, derived clocks, trace
// bookkeeping, statistics collectors.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "sim/clock.hpp"
#include "sim/multi_scheduler.hpp"
#include "sim/scheduler.hpp"
#include "sim/stats.hpp"
#include "sim/trace.hpp"

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
    EXPECT_EQ(s.ticks_skipped() > 0, skip);
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
    EXPECT_EQ(s.ticks_skipped() > 0, skip);
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

TEST(Trace, DisabledRecorderDropsEventsUntilReenabled) {
  TraceRecorder rec;
  rec.channel("sig").record(0, 1);
  rec.set_enabled(false);
  rec.channel("sig").record(10, 2);    // Dropped: existing channel muted.
  rec.channel("other").record(11, 7);  // Dropped: new channels inherit mute.
  EXPECT_EQ(rec.channel("sig").events().size(), 1u);
  EXPECT_EQ(rec.channel("other").events().size(), 0u);
  rec.set_enabled(true);
  rec.channel("sig").record(20, 3);
  EXPECT_EQ(rec.channel("sig").events().size(), 2u);
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

TEST(Trace, ActiveCyclesAndValueAt) {
  TraceChannel ch("x");
  ch.record(0, 0);
  ch.record(10, 3);
  ch.record(20, 0);
  ch.record(30, 1);
  EXPECT_EQ(ch.active_cycles(0, 40), 10u + 10u);
  EXPECT_EQ(ch.value_at(5).value(), 0);
  EXPECT_EQ(ch.value_at(15).value(), 3);
  EXPECT_EQ(ch.value_at(25).value(), 0);
  EXPECT_EQ(ch.value_at(35).value(), 1);
}

TEST(Trace, RecordCollapsesDuplicates) {
  TraceChannel ch("x");
  ch.record(0, 5);
  ch.record(1, 5);
  ch.record(2, 5);
  EXPECT_EQ(ch.events().size(), 1u);
}

TEST(Trace, AsciiWaveformRenders) {
  TraceRecorder rec;
  rec.channel("sig").record(0, 0);
  rec.channel("sig").record(50, 1);
  rec.channel("sig").record(75, 0);
  const std::string wf = rec.ascii_waveform({"sig"}, 0, 100, 20);
  EXPECT_NE(wf.find("sig"), std::string::npos);
  EXPECT_NE(wf.find('1'), std::string::npos);
  EXPECT_NE(wf.find('.'), std::string::npos);
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

TEST(Stats, LatencyPercentiles) {
  LatencyStats l;
  for (int i = 1; i <= 100; ++i) l.add(i);
  EXPECT_DOUBLE_EQ(l.min(), 1.0);
  EXPECT_DOUBLE_EQ(l.max(), 100.0);
  EXPECT_DOUBLE_EQ(l.mean(), 50.5);
  EXPECT_NEAR(l.percentile(0.5), 50.0, 1.0);
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
    return next_due_ > clock_ ? next_due_ - clock_ : 0;
  }
  void skip_idle(Cycle n) override {
    clock_ += n;
    skipped += n;
  }

  Cycle clock() const noexcept { return clock_; }
  std::vector<Cycle> work_log;
  Cycle skipped = 0;

 private:
  Cycle period_;
  Cycle next_due_;
  Cycle clock_ = 0;
};

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
  EXPECT_GT(batched.ticks_skipped(), 0u);    // ...through the wake-wheel...
  EXPECT_GT(batched.cycles_fast_forwarded(), 0u);  // ...across global gaps.
  EXPECT_LT(batched.ticks_executed(), 10'000u);
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
    EXPECT_EQ(batched.profile().stages[0].executed, 300u + 3u);
  }
}

TEST(Quiescence, SplitRunsMatchOneRun) {
  // run_cycles(a); run_cycles(b) must equal one (a+b) run —
  // the settle/re-partition at the boundary is what MultiScheduler strides
  // rely on.
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
  EXPECT_EQ(s.ticks_executed(), 1'000u);
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

}  // namespace
}  // namespace drmp::sim
