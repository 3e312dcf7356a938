// CPU-model tests: interrupt dispatch, mode priority, cycle-cost accounting,
// software timers, and the busy statistics the partitioning argument uses.
#include <gtest/gtest.h>

#include <bit>
#include <functional>

#include "cpu/cpu_model.hpp"
#include "sim/scheduler.hpp"

namespace drmp::cpu {
namespace {

class CpuTest : public ::testing::Test {
 protected:
  CpuTest() : sched(200e6) {
    CpuModel::Config cfg;
    cfg.cpu_freq_hz = 50e6;   // 1 CPU cycle = 4 arch cycles.
    cfg.arch_freq_hz = 200e6;
    cfg.isr_overhead_instr = 10;
    cpu = std::make_unique<CpuModel>(cfg);
    sched.add(*cpu, "cpu");
  }
  sim::Scheduler sched;
  std::unique_ptr<CpuModel> cpu;
};

TEST_F(CpuTest, HandlerInvokedWithContext) {
  IsrContext seen{};
  int calls = 0;
  cpu->set_handler(Mode::B, [&](const IsrContext& ctx) {
    seen = ctx;
    ++calls;
    return 5u;
  });
  cpu->raise_hw_interrupt(Mode::B, 7, 0xAB);
  sched.run_cycles(10);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(seen.cause, IsrCause::HwInterrupt);
  EXPECT_EQ(seen.event, 7u);
  EXPECT_EQ(seen.param, 0xABu);
}

TEST_F(CpuTest, CostAccountingScalesByClockRatio) {
  cpu->set_handler(Mode::A, [](const IsrContext&) { return 90u; });
  cpu->raise_hw_interrupt(Mode::A, 1, 0);
  sched.run_cycles(2);
  // (10 overhead + 90 body) instr * 4 arch-cycles each = 400 busy cycles.
  EXPECT_TRUE(cpu->busy());
  sched.run_cycles(500);
  EXPECT_FALSE(cpu->busy());
  EXPECT_NEAR(static_cast<double>(cpu->busy_cycles()), 400.0, 8.0);
}

TEST_F(CpuTest, ModePriorityDispatchesAOverC) {
  std::vector<Mode> order;
  for (Mode m : {Mode::A, Mode::C}) {
    cpu->set_handler(m, [&order, m](const IsrContext&) {
      order.push_back(m);
      return 10u;
    });
  }
  // Post C first, then A; while the CPU is idle both pend -> A must win.
  cpu->raise_hw_interrupt(Mode::C, 1, 0);
  cpu->raise_hw_interrupt(Mode::A, 1, 0);
  sched.run_cycles(500);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], Mode::A);
  EXPECT_EQ(order[1], Mode::C);
}

TEST_F(CpuTest, BusyCpuQueuesInterrupts) {
  int calls = 0;
  cpu->set_handler(Mode::A, [&](const IsrContext&) {
    ++calls;
    return 200u;  // 840 arch cycles busy.
  });
  cpu->raise_hw_interrupt(Mode::A, 1, 0);
  sched.run_cycles(5);
  cpu->raise_hw_interrupt(Mode::A, 2, 0);  // Arrives mid-handler.
  sched.run_cycles(5);
  EXPECT_EQ(calls, 1);
  sched.run_cycles(3000);
  EXPECT_EQ(calls, 2);
  EXPECT_GT(cpu->max_dispatch_latency(), 0u);
}

TEST_F(CpuTest, TimerFiresOnceAtDeadline) {
  std::vector<Cycle> fired;
  cpu->set_handler(Mode::A, [&](const IsrContext& ctx) {
    if (ctx.cause == IsrCause::Timer) fired.push_back(sched.now());
    return 1u;
  });
  cpu->set_timer(Mode::A, 9, 1000);
  sched.run_cycles(5000);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_NEAR(static_cast<double>(fired[0]), 1000.0, 10.0);
}

TEST_F(CpuTest, CancelledTimerNeverFires) {
  int fired = 0;
  cpu->set_handler(Mode::A, [&](const IsrContext& ctx) {
    if (ctx.cause == IsrCause::Timer) ++fired;
    return 1u;
  });
  cpu->set_timer(Mode::A, 9, 1000);
  sched.run_cycles(500);
  cpu->cancel_timer(Mode::A, 9);
  sched.run_cycles(5000);
  EXPECT_EQ(fired, 0);
}

TEST_F(CpuTest, ReArmedTimerReplacesOld) {
  std::vector<Cycle> fired;
  cpu->set_handler(Mode::A, [&](const IsrContext& ctx) {
    if (ctx.cause == IsrCause::Timer) fired.push_back(sched.now());
    return 1u;
  });
  cpu->set_timer(Mode::A, 9, 1000);
  cpu->set_timer(Mode::A, 9, 3000);  // Re-arm before expiry.
  sched.run_cycles(10000);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_GE(fired[0], 3000u);
}

TEST_F(CpuTest, HostRequestsDispatchLikeInterrupts) {
  IsrContext seen{};
  cpu->set_handler(Mode::C, [&](const IsrContext& ctx) {
    seen = ctx;
    return 1u;
  });
  cpu->post_host_request(Mode::C, 42, 7);
  sched.run_cycles(10);
  EXPECT_EQ(seen.cause, IsrCause::HostRequest);
  EXPECT_EQ(seen.event, 42u);
  EXPECT_EQ(seen.param, 7u);
}

TEST_F(CpuTest, PerModeCycleAttribution) {
  cpu->set_handler(Mode::A, [](const IsrContext&) { return 40u; });
  cpu->set_handler(Mode::B, [](const IsrContext&) { return 90u; });
  cpu->raise_hw_interrupt(Mode::A, 1, 0);
  cpu->raise_hw_interrupt(Mode::B, 1, 0);
  sched.run_cycles(2000);
  EXPECT_GT(cpu->mode_cpu_cycles(Mode::B), cpu->mode_cpu_cycles(Mode::A));
  EXPECT_EQ(cpu->mode_cpu_cycles(Mode::C), 0u);
  EXPECT_EQ(cpu->isr_invocations(), 2u);
}

// ---------------------------------------------------------------------------
// Pre-emptive priority dispatch (§4.1.1's proposed priority mechanism).
// ---------------------------------------------------------------------------

class PreemptiveCpuTest : public ::testing::Test {
 protected:
  explicit PreemptiveCpuTest(bool preemptive = true) : sched(200e6) {
    CpuModel::Config cfg;
    cfg.cpu_freq_hz = 50e6;  // 1 CPU cycle = 4 arch cycles.
    cfg.arch_freq_hz = 200e6;
    cfg.isr_overhead_instr = 10;
    cfg.preemptive = preemptive;
    cfg.preempt_overhead_instr = 20;
    cpu = std::make_unique<CpuModel>(cfg);
    sched.add(*cpu, "cpu");
  }
  sim::Scheduler sched;
  std::unique_ptr<CpuModel> cpu;
};

TEST_F(PreemptiveCpuTest, HigherPriorityModePreemptsMidHandler) {
  // Mode C runs a long handler; mode A's interrupt arrives mid-flight and
  // must be serviced without waiting for C to finish.
  std::vector<std::pair<Mode, Cycle>> entries;
  cpu->set_handler(Mode::C, [&](const IsrContext&) {
    entries.emplace_back(Mode::C, sched.now());
    return 1000u;  // 4040 arch cycles.
  });
  cpu->set_handler(Mode::A, [&](const IsrContext&) {
    entries.emplace_back(Mode::A, sched.now());
    return 10u;
  });
  cpu->raise_hw_interrupt(Mode::C, 1, 0);
  sched.run_cycles(100);
  cpu->raise_hw_interrupt(Mode::A, 2, 0);
  sched.run_cycles(50);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[1].first, Mode::A);
  EXPECT_EQ(cpu->preemptions(), 1u);
  // A's dispatch latency is a couple of cycles, far below C's handler length.
  EXPECT_LE(cpu->max_dispatch_latency(Mode::A), 4u);
}

TEST_F(PreemptiveCpuTest, PreemptedHandlerStillCompletesItsBudget) {
  cpu->set_handler(Mode::C, [](const IsrContext&) { return 500u; });
  cpu->set_handler(Mode::A, [](const IsrContext&) { return 50u; });
  cpu->raise_hw_interrupt(Mode::C, 1, 0);
  sched.run_cycles(100);
  cpu->raise_hw_interrupt(Mode::A, 2, 0);
  sched.run_cycles(20000);
  EXPECT_FALSE(cpu->busy());
  // C's accounted cycles cover at least its own budget: (10+500)*4 = 2040.
  EXPECT_GE(cpu->mode_cpu_cycles(Mode::C), 2040u);
  // A's cycles include the pre-emption save half: (10+50+10)*4 = 280, less
  // the boundary tick that is credited to the pre-empted handler.
  EXPECT_GE(cpu->mode_cpu_cycles(Mode::A), 276u);
}

TEST_F(PreemptiveCpuTest, NestedPreemptionResumesInStackOrder) {
  // C starts, B pre-empts C, A pre-empts B; entry order C, B, A, and the
  // whole nest drains back out.
  std::vector<Mode> entry_order;
  for (Mode m : {Mode::A, Mode::B, Mode::C}) {
    cpu->set_handler(m, [&entry_order, m](const IsrContext&) {
      entry_order.push_back(m);
      return 400u;
    });
  }
  cpu->raise_hw_interrupt(Mode::C, 1, 0);
  sched.run_cycles(50);
  cpu->raise_hw_interrupt(Mode::B, 1, 0);
  sched.run_cycles(50);
  cpu->raise_hw_interrupt(Mode::A, 1, 0);
  sched.run_cycles(50);
  ASSERT_EQ(entry_order.size(), 3u);
  EXPECT_EQ(entry_order[0], Mode::C);
  EXPECT_EQ(entry_order[1], Mode::B);
  EXPECT_EQ(entry_order[2], Mode::A);
  EXPECT_EQ(cpu->preemptions(), 2u);
  EXPECT_EQ(cpu->running_mode(), Mode::A);
  sched.run_cycles(30000);
  EXPECT_FALSE(cpu->busy());
  EXPECT_FALSE(cpu->running_mode().has_value());
  EXPECT_EQ(cpu->isr_invocations(), 3u);
}

TEST_F(PreemptiveCpuTest, EqualOrLowerPriorityNeverPreempts) {
  cpu->set_handler(Mode::B, [](const IsrContext&) { return 500u; });
  cpu->set_handler(Mode::C, [](const IsrContext&) { return 10u; });
  cpu->raise_hw_interrupt(Mode::B, 1, 0);
  sched.run_cycles(50);
  cpu->raise_hw_interrupt(Mode::B, 2, 0);  // Same priority.
  cpu->raise_hw_interrupt(Mode::C, 3, 0);  // Lower priority.
  sched.run_cycles(20000);
  EXPECT_EQ(cpu->preemptions(), 0u);
  EXPECT_EQ(cpu->isr_invocations(), 3u);
}

class NonPreemptiveCpuTest : public PreemptiveCpuTest {
 protected:
  NonPreemptiveCpuTest() : PreemptiveCpuTest(false) {}
};

TEST_F(NonPreemptiveCpuTest, HighPriorityWaitsForRunningHandler) {
  // The thesis-prototype behaviour: handlers run to completion, so mode A's
  // worst-case dispatch latency is bounded by the longest handler.
  cpu->set_handler(Mode::C, [](const IsrContext&) { return 1000u; });
  cpu->set_handler(Mode::A, [](const IsrContext&) { return 10u; });
  cpu->raise_hw_interrupt(Mode::C, 1, 0);
  sched.run_cycles(100);
  cpu->raise_hw_interrupt(Mode::A, 2, 0);
  sched.run_cycles(20000);
  EXPECT_EQ(cpu->preemptions(), 0u);
  // (10+1000)*4 = 4040 cycle handler started ~2 cycles in; A posted at ~100.
  EXPECT_GT(cpu->max_dispatch_latency(Mode::A), 3000u);
}

// ---------------------------------------------------------------------------
// Busy-stretch sleep: a CPU sleeps through handler bodies, and every
// time-derived read settles it to the every-tick value.
// ---------------------------------------------------------------------------

/// One scripted input. In-run inputs fire at cycle `at`; between-run inputs
/// are delivered before run number `at`.
struct CpuInput {
  Cycle at;
  IsrCause cause;
  Mode mode;
  Cycle delay = 0;  ///< Timer arms only.
};

void deliver(CpuModel& cpu, const CpuInput& in, u32 id) {
  switch (in.cause) {
    case IsrCause::HwInterrupt: cpu.raise_hw_interrupt(in.mode, id, 0); break;
    case IsrCause::HostRequest: cpu.post_host_request(in.mode, id, 0); break;
    case IsrCause::Timer: cpu.set_timer(in.mode, id, in.delay); break;
  }
}

/// Delivers the in-run inputs from a stage ahead of the CPU, as the IRC
/// does in a device. Never quiescent.
class CpuScript : public sim::Clockable {
 public:
  CpuScript(CpuModel& cpu, std::vector<CpuInput> script)
      : cpu_(cpu), script_(std::move(script)) {}
  void tick() override {
    while (next_ < script_.size() && script_[next_].at == now_) {
      deliver(cpu_, script_[next_], static_cast<u32>(next_));
      ++next_;
    }
    ++now_;
  }

 private:
  CpuModel& cpu_;
  std::vector<CpuInput> script_;
  std::size_t next_ = 0;
  Cycle now_ = 0;
};

/// Samples every time-derived CPU view each cycle from the observer stage.
/// Never quiescent, so every read of a sleeping CPU is served by a settle;
/// the view read first rotates each cycle, so a view that forgets to
/// settle reads stale state on the cycles it leads.
class CpuProbe : public sim::Clockable {
 public:
  explicit CpuProbe(const CpuModel& cpu) {
    views_.push_back([&cpu] { return u64{cpu.busy()}; });
    views_.push_back([&cpu] { return cpu.busy_cycles(); });
    views_.push_back([&cpu] { return cpu.total_cycles(); });
    views_.push_back([&cpu] { return std::bit_cast<u64>(cpu.busy_fraction()); });
    for (Mode m : {Mode::A, Mode::B, Mode::C}) {
      views_.push_back([&cpu, m] { return cpu.mode_cpu_cycles(m); });
    }
  }
  void tick() override {
    const std::size_t n = views_.size();
    for (std::size_t k = 0; k < n; ++k) samples.push_back(views_[(first_ + k) % n]());
    first_ = (first_ + 1) % n;
  }
  std::vector<u64> samples;

 private:
  std::vector<std::function<u64()>> views_;
  std::size_t first_ = 0;
};

struct CpuRun {
  std::vector<u64> samples;
  std::vector<std::pair<Mode, Cycle>> entries;  ///< Handler entries.
  u64 cpu_executed = 0;
  u64 cpu_skipped = 0;
  u64 isr = 0;
  u64 preemptions = 0;
  u64 timer_fires = 0;
  Cycle max_latency = 0;
};

constexpr int kCpuRuns = 16;
constexpr Cycle kCpuRunCycles = 997;

CpuRun run_scripted_cpu(bool preemptive, bool idle_skip) {
  sim::Scheduler sched(200e6);
  sched.set_idle_skip(idle_skip);
  CpuModel::Config cfg;
  cfg.cpu_freq_hz = 50e6;  // 1 CPU cycle = 4 arch cycles.
  cfg.arch_freq_hz = 200e6;
  cfg.isr_overhead_instr = 10;
  cfg.preemptive = preemptive;
  cfg.preempt_overhead_instr = 20;
  CpuModel cpu(cfg);
  CpuRun r;
  // Bodies of 160, 840 and 2040 arch cycles for modes A, B and C.
  for (const auto& [m, instr] : {std::pair{Mode::A, 30u}, {Mode::B, 200u}, {Mode::C, 500u}}) {
    cpu.set_handler(m, [&r, &sched, m = m, instr = instr](const IsrContext& ctx) {
      r.entries.emplace_back(m, sched.now());
      if (ctx.cause == IsrCause::Timer) ++r.timer_fires;
      return instr;
    });
  }
  using C = IsrCause;
  // C runs long; B and then a timer-driven A land mid-handler (a two-deep
  // nest when preemptive) while a low-priority host request waits.
  std::vector<CpuInput> in_run = {
      {10, C::HwInterrupt, Mode::C},   {400, C::HwInterrupt, Mode::B},
      {450, C::Timer, Mode::A, 150},   {700, C::HostRequest, Mode::C},
      {2900, C::HwInterrupt, Mode::C}, {3100, C::HwInterrupt, Mode::A},
      {5000, C::Timer, Mode::C, 1000}, {6010, C::HwInterrupt, Mode::B},
      {6020, C::HwInterrupt, Mode::A}, {6500, C::Timer, Mode::A, 10},
  };
  // Delivered between runs: state at the next run's entry, never a wake.
  const std::vector<CpuInput> between = {
      {1, C::HwInterrupt, Mode::A},  {3, C::Timer, Mode::B, 50},
      {4, C::HostRequest, Mode::B},  {6, C::HwInterrupt, Mode::C},
      {8, C::Timer, Mode::A, 500},
  };
  CpuScript script(cpu, in_run);
  CpuProbe probe(cpu);
  sched.add(script, "script");
  sched.add(cpu, "cpu");  // Registration index 1.
  sched.add(probe, "probe", sim::Scheduler::kStageObserver);
  u32 id = 100;
  for (int k = 0; k < kCpuRuns; ++k) {
    for (const CpuInput& in : between) {
      if (in.at == static_cast<Cycle>(k)) deliver(cpu, in, id++);
    }
    sched.run_cycles(kCpuRunCycles);
  }
  r.samples = std::move(probe.samples);
  r.cpu_executed = sched.component_executed(1);
  r.cpu_skipped = sched.component_skipped(1);
  r.isr = cpu.isr_invocations();
  r.preemptions = cpu.preemptions();
  r.max_latency = cpu.max_dispatch_latency();
  return r;
}

class CpuBusySleep : public ::testing::TestWithParam<bool> {};

TEST_P(CpuBusySleep, SettleOnReadMatchesEveryTick) {
  const CpuRun every = run_scripted_cpu(GetParam(), false);
  const CpuRun lazy = run_scripted_cpu(GetParam(), true);
  ASSERT_EQ(every.samples.size(), lazy.samples.size());
  for (std::size_t i = 0; i < every.samples.size(); ++i) {
    ASSERT_EQ(every.samples[i], lazy.samples[i]) << "sample " << i;
  }
  EXPECT_EQ(every.entries, lazy.entries);
  EXPECT_EQ(every.preemptions, lazy.preemptions);
  EXPECT_EQ(every.max_latency, lazy.max_latency);
  // Not vacuous: every input was serviced, the preemptive script nests.
  EXPECT_EQ(every.isr, 15u);
  EXPECT_EQ(every.timer_fires, 5u);
  if (GetParam()) {
    EXPECT_GE(every.preemptions, 4u);
  } else {
    EXPECT_EQ(every.preemptions, 0u);
  }
}

TEST_P(CpuBusySleep, ExecutedTicksScaleWithHandlersNotCycles) {
  const CpuRun lazy = run_scripted_cpu(GetParam(), true);
  EXPECT_EQ(lazy.cpu_executed + lazy.cpu_skipped, kCpuRuns * kCpuRunCycles);
  // A dispatch (or wake) tick and a completion tick per handler, one tick
  // per timer expiry, and at most one entry tick per run.
  EXPECT_LE(lazy.cpu_executed, 2 * lazy.isr + lazy.timer_fires + kCpuRuns)
      << "of " << kCpuRuns * kCpuRunCycles;
}

INSTANTIATE_TEST_SUITE_P(Dispatch, CpuBusySleep, ::testing::Bool());

}  // namespace
}  // namespace drmp::cpu
