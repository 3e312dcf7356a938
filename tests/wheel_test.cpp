// Timing-wheel tests: the hierarchical wake wheel behind the batched
// scheduler (sim/scheduler.hpp). A reference model (sorted multimap) pins
// the delivery semantics — every entry surfaces on the first advance() at
// or past its wake time, never earlier — across randomized pushes spanning
// all levels and the overflow layer; separate tests pin purge() filtering
// and the scheduler-level lazy-deletion bound: a wake-heavy workload that
// strands stale entries in the wheel must trigger purges and keep the
// wheel's high-watermark bounded instead of leaking one entry per wake.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "sim/scheduler.hpp"

namespace drmp::sim {
namespace {

u64 lcg(u64& x) {
  x = x * 6364136223846793005ull + 1442695040888963407ull;
  return x >> 33;
}

TEST(TimingWheel, RandomizedDrainMatchesReferenceModel) {
  for (const u64 seed : {11ull, 29ull, 1234ull}) {
    u64 x = seed;
    auto rnd = [&x](u64 lim) { return lcg(x) % lim; };
    TimingWheel wheel;
    wheel.reset(0);
    std::multimap<Cycle, u32> ref;  // wake_at -> index
    Cycle now = 0;
    u32 next_index = 0;
    for (int round = 0; round < 500; ++round) {
      // Push a handful of entries with horizons spanning every wheel level
      // and, occasionally, the far-future overflow layer.
      const u64 n_push = rnd(4);
      for (u64 i = 0; i < n_push; ++i) {
        Cycle delta;
        switch (rnd(5)) {
          case 0: delta = 1 + rnd(63); break;                      // Level 0.
          case 1: delta = 64 + rnd(4032); break;                   // Level 1.
          case 2: delta = 4096 + rnd((1u << 18) - 4096); break;    // Level 2.
          case 3: delta = (Cycle{1} << 18) + rnd(1u << 20); break; // Level 3.
          default: delta = TimingWheel::kSpan + rnd(1u << 20); break;
        }
        const Cycle at = now + delta;
        wheel.push(at, next_index, 0);
        ref.emplace(at, next_index);
        ++next_index;
      }
      // Advance by a random stride: mostly short hops, sometimes a jump
      // that crosses several cascade boundaries at once.
      now += rnd(10) == 0 ? 1 + rnd(1u << 19) : 1 + rnd(3000);
      std::vector<u32> due;
      wheel.advance(now, [&](const TimingWheel::Entry& e) {
        EXPECT_LE(e.wake_at, now) << "entry delivered before its wake time";
        due.push_back(e.index);
      });
      std::vector<u32> expected;
      while (!ref.empty() && ref.begin()->first <= now) {
        expected.push_back(ref.begin()->second);
        ref.erase(ref.begin());
      }
      std::sort(due.begin(), due.end());
      std::sort(expected.begin(), expected.end());
      ASSERT_EQ(due, expected) << "seed " << seed << " round " << round;
      ASSERT_EQ(wheel.size(), ref.size());
      // next_bound() is a strictly-future lower bound on the earliest
      // stored wake time (exact at level 0, a bucket floor above).
      if (ref.empty()) {
        EXPECT_EQ(wheel.next_bound(), TimingWheel::kNever);
      } else {
        EXPECT_GT(wheel.next_bound(), now);
        EXPECT_LE(wheel.next_bound(), ref.begin()->first);
      }
    }
    EXPECT_GT(wheel.cascades(), 0u) << "sweep never exercised a cascade";
  }
}

TEST(TimingWheel, PurgeFiltersEntriesAcrossLevelsAndOverflow) {
  TimingWheel wheel;
  wheel.reset(0);
  // Two entries per layer — one stale (gen 0), one live (gen 1).
  const Cycle deltas[] = {5, 300, 70'000, Cycle{1} << 19, TimingWheel::kSpan + 9};
  u32 idx = 0;
  for (const Cycle d : deltas) {
    wheel.push(d, idx++, 0);
    wheel.push(d + 1, idx++, 1);
  }
  ASSERT_EQ(wheel.size(), 10u);
  wheel.purge([](const TimingWheel::Entry& e) { return e.gen == 1; });
  EXPECT_EQ(wheel.size(), 5u);
  std::vector<u32> survivors;
  wheel.advance(2 * TimingWheel::kSpan, [&](const TimingWheel::Entry& e) {
    EXPECT_EQ(e.gen, 1u);
    survivors.push_back(e.index);
  });
  std::sort(survivors.begin(), survivors.end());
  EXPECT_EQ(survivors, (std::vector<u32>{1, 3, 5, 7, 9}));
  EXPECT_TRUE(wheel.empty());
}

TEST(TimingWheel, ResetDropsEntriesAndRebases) {
  TimingWheel wheel;
  wheel.reset(0);
  for (u32 i = 0; i < 40; ++i) wheel.push(10 + i * 97, i, 0);
  wheel.reset(1'000'000);
  EXPECT_TRUE(wheel.empty());
  EXPECT_EQ(wheel.next_bound(), TimingWheel::kNever);
  wheel.push(1'000'004, 7, 0);
  u32 delivered = 0;
  wheel.advance(1'000'010, [&](const TimingWheel::Entry& e) {
    EXPECT_EQ(e.index, 7u);
    ++delivered;
  });
  EXPECT_EQ(delivered, 1u);
}

// ---- Scheduler-level lazy deletion -------------------------------------

/// Sleeps in long stretches; tick/skip_idle only count cycles.
class LongSleeper : public Clockable {
 public:
  void tick() override { ++cycles; }
  Cycle quiescent_for() const override { return 10'000; }
  void skip_idle(Cycle n) override { cycles += n; }
  Cycle cycles = 0;
};

/// Always awake; wakes one sleeper round-robin every few cycles, stranding
/// the sleeper's previous wheel entry as a stale record each time.
class RoundRobinWaker : public Clockable {
 public:
  explicit RoundRobinWaker(std::vector<LongSleeper>& targets)
      : targets_(targets) {}
  void tick() override {
    if (++phase_ % 5 == 0) {
      targets_[next_++ % targets_.size()].wake_self();
      ++wakes;
    }
  }
  u64 wakes = 0;

 private:
  std::vector<LongSleeper>& targets_;
  std::size_t next_ = 0;
  u64 phase_ = 0;
};

TEST(Scheduler, WakeHeavyWorkloadPurgesStaleWheelEntries) {
  // 32 sleepers re-arming a 10k-cycle bound after every early wake: without
  // the stale-majority purge the wheel would accrete one dead entry per
  // wake (~40k over this run). The profile must show purges firing and a
  // depth high-watermark near the live population, not the wake count.
  Scheduler sched(200e6);
  std::vector<LongSleeper> sleepers(32);
  RoundRobinWaker waker(sleepers);
  sched.add(waker, "waker");
  for (std::size_t i = 0; i < sleepers.size(); ++i) {
    sched.add(sleepers[i], "sleeper" + std::to_string(i));
  }
  sched.run_cycles(200'000);
  for (const LongSleeper& s : sleepers) {
    EXPECT_EQ(s.cycles, 200'000u);  // skip accounting stayed exact.
  }
  const ExecProfile p = sched.profile();
  EXPECT_GT(waker.wakes, 10'000u);
  EXPECT_GT(p.wheel_purges, 0u);
  EXPECT_LT(p.wheel_depth_max, 512u)
      << "stale wheel entries accreting (lazy-deletion leak)";
}

}  // namespace
}  // namespace drmp::sim
