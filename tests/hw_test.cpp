// Hardware-substrate tests: packet memory pages, bus arbitration (priority,
// grant delay, grant override), trigger decode, reconfiguration memory.
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <utility>
#include <vector>

#include "hw/bus.hpp"
#include "hw/ctrl_layout.hpp"
#include "hw/memory_map.hpp"
#include "hw/packet_memory.hpp"
#include "hw/reconfig_memory.hpp"

namespace drmp::hw {
namespace {

TEST(MemoryMap, PagesAreDisjointAndInRange) {
  for (std::size_t mi = 0; mi < kNumModes; ++mi) {
    for (u32 p = 0; p < kPagesPerMode; ++p) {
      const u32 base = page_base(mode_from_index(mi), static_cast<Page>(p));
      EXPECT_GE(base, kModePagesBase);
      EXPECT_LE(base + kPageWords, kMemWords);
    }
  }
  // Adjacent pages must not overlap.
  EXPECT_EQ(page_base(Mode::A, Page::Raw), page_base(Mode::A, Page::Ctrl) + kPageWords);
  EXPECT_EQ(page_base(Mode::B, Page::Ctrl),
            page_base(Mode::A, Page::Ctrl) + kPagesPerMode * kPageWords);
}

TEST(MemoryMap, RfuTriggerDecode) {
  EXPECT_TRUE(is_rfu_trigger_addr(rfu_trigger_addr(2)));
  EXPECT_TRUE(is_rfu_trigger_addr(rfu_trigger_addr(15)));
  EXPECT_FALSE(is_rfu_trigger_addr(kModePagesBase));
  EXPECT_FALSE(is_rfu_trigger_addr(kOverrideAddr));
}

TEST(PacketMemory, PageByteRoundTrip) {
  PacketMemory mem;
  Bytes data(1501);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<u8>(i);
  mem.write_page_bytes(Mode::B, Page::Raw, data);
  EXPECT_EQ(mem.page_byte_len(Mode::B, Page::Raw), 1501u);
  EXPECT_EQ(mem.read_page_bytes(Mode::B, Page::Raw), data);
}

TEST(PacketMemory, PageOverflowThrows) {
  PacketMemory mem;
  Bytes data(kPagePayloadBytes + 1);
  EXPECT_THROW(mem.write_page_bytes(Mode::A, Page::Raw, data), std::length_error);
}

TEST(PacketMemory, DualPortSeesSameData) {
  PacketMemory mem;
  mem.write(0x200, 0xDEADBEEF);
  EXPECT_EQ(mem.cpu_read(0x200), 0xDEADBEEFu);
  mem.cpu_write(0x201, 42);
  EXPECT_EQ(mem.read(0x201), 42u);
}

TEST(ReconfigMemory, BlobStorage) {
  ReconfigMemory rmem;
  EXPECT_FALSE(rmem.has_blob(2, 1));
  EXPECT_EQ(rmem.blob_len(2, 1), 0u);
  rmem.load_blob(2, 1, {1, 2, 3, 4});
  EXPECT_TRUE(rmem.has_blob(2, 1));
  EXPECT_EQ(rmem.blob_len(2, 1), 4u);
  EXPECT_EQ(rmem.blob(2, 1)[2], 3u);
}

// ----------------------------------------------------------------- bus

class BusTest : public ::testing::Test {
 protected:
  PacketMemory mem;
  PacketBus bus{mem};
};

TEST_F(BusTest, PriorityModeAWins) {
  bus.request_for_irc(Mode::B);
  bus.request_for_irc(Mode::A);
  bus.tick();
  EXPECT_TRUE(bus.granted_irc(Mode::A));
  EXPECT_FALSE(bus.granted_irc(Mode::B));
}

TEST_F(BusTest, NonPreemptiveHold) {
  bus.request_for_irc(Mode::C);
  bus.tick();
  EXPECT_TRUE(bus.granted_irc(Mode::C));
  // A higher-priority request arrives mid-transaction; C keeps the bus.
  bus.request_for_irc(Mode::A);
  bus.tick();
  EXPECT_TRUE(bus.granted_irc(Mode::C));
  // On release, A gets it.
  bus.release(Mode::C);
  bus.tick();
  bus.tick();
  EXPECT_TRUE(bus.granted_irc(Mode::A));
}

TEST_F(BusTest, OneAccessPerCycleEnforced) {
  bus.request_for_irc(Mode::A);
  bus.tick();
  ASSERT_TRUE(bus.granted_irc(Mode::A));
  EXPECT_TRUE(bus.can_access());
  bus.write(0x300, 7);
  EXPECT_FALSE(bus.can_access());
  bus.tick();
  EXPECT_TRUE(bus.can_access());
  EXPECT_EQ(bus.read(0x300), 7u);
}

TEST_F(BusTest, WriteToRfuAddressBecomesTrigger) {
  bus.request_for_irc(Mode::A);
  bus.tick();
  bus.write(rfu_trigger_addr(5), 0x1234);
  // Not a memory write.
  EXPECT_EQ(mem.read(rfu_trigger_addr(5)), 0u);
  auto t = bus.triggers().take(5);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(*t, 0x1234u);
  EXPECT_FALSE(bus.triggers().take(5).has_value());
}

TEST_F(BusTest, GrantDelayUntilRfuTriggered) {
  // The IRC requests on behalf of RFU 6 before triggering it: the grant must
  // stay with the IRC until the trigger is observed (Fig. 3.12).
  bus.request_for_irc(Mode::A);
  bus.tick();
  ASSERT_TRUE(bus.granted_irc(Mode::A));
  bus.request_for_rfu(Mode::A, 6);
  bus.tick();
  // No trigger yet -> still IRC.
  EXPECT_TRUE(bus.granted_irc(Mode::A));
  EXPECT_FALSE(bus.granted_rfu(6));
  bus.write(rfu_trigger_addr(6), 0);  // Trigger.
  bus.tick();
  EXPECT_TRUE(bus.granted_rfu(6));
}

TEST_F(BusTest, GrantOverrideMasterSlaveHandshake) {
  // Promote RFU 8 to master, then 8 overrides to slave 4 and back.
  bus.request_for_irc(Mode::A);
  bus.tick();
  bus.write(rfu_trigger_addr(8), 0);
  bus.request_for_rfu(Mode::A, 8);
  bus.tick();
  ASSERT_TRUE(bus.granted_rfu(8));

  bus.write(kOverrideAddr, 4);  // Master 8 delegates to slave 4.
  EXPECT_TRUE(bus.granted_rfu(4));
  bus.tick();
  EXPECT_TRUE(bus.granted_rfu(4));  // Override survives arbitration.
  bus.write(kOverrideAddr, 4);      // Slave returns the bus (writes own id).
  EXPECT_TRUE(bus.granted_rfu(8));
}

TEST_F(BusTest, ModeWaitCyclesAccrueUnderContention) {
  bus.request_for_irc(Mode::A);
  bus.request_for_irc(Mode::B);
  for (int i = 0; i < 10; ++i) bus.tick();
  EXPECT_GT(bus.mode_wait_cycles(Mode::B), 0u);
  EXPECT_EQ(bus.mode_wait_cycles(Mode::A), 0u);
}

// ------------------------------------------------------ quiet bus holds

/// One scripted bus input. In-run actions fire at cycle `at`; between-run
/// actions are applied before run number `at`.
struct BusAction {
  enum class Kind : u8 { RequestIrc, RequestRfu, Access, Trigger, Release };
  Cycle at;
  Kind kind;
  Mode mode;
  u8 rfu = 0;
};

void apply(PacketBus& bus, const BusAction& a) {
  switch (a.kind) {
    case BusAction::Kind::RequestIrc: bus.request_for_irc(a.mode); break;
    case BusAction::Kind::RequestRfu: bus.request_for_rfu(a.mode, a.rfu); break;
    case BusAction::Kind::Access: bus.write(page_base(a.mode, Page::Raw), 0x5A); break;
    case BusAction::Kind::Trigger: bus.write(rfu_trigger_addr(a.rfu), 0); break;
    case BusAction::Kind::Release: bus.release(a.mode); break;
  }
}

/// Drives request lines and accesses from the stage after the bus, as the
/// IRC and the RFUs do in a device. Never quiescent.
class BusScript : public sim::Clockable {
 public:
  BusScript(PacketBus& bus, std::vector<BusAction> script)
      : bus_(bus), script_(std::move(script)) {}
  void tick() override {
    while (next_ < script_.size() && script_[next_].at == now_) {
      apply(bus_, script_[next_]);
      if (on_apply) on_apply(script_[next_]);
      ++next_;
    }
    ++now_;
  }
  /// Called after each action the script applies.
  std::function<void(const BusAction&)> on_apply;

 private:
  PacketBus& bus_;
  std::vector<BusAction> script_;
  std::size_t next_ = 0;
  Cycle now_ = 0;
};

/// Samples every bus counter each cycle from the observer stage, rotating
/// the view read first, so a counter that forgets to settle reads stale.
class BusProbe : public sim::Clockable {
 public:
  explicit BusProbe(const PacketBus& bus) {
    views_.push_back([&bus] { return bus.busy_cycles(); });
    views_.push_back([&bus] { return bus.total_cycles(); });
    for (Mode m : {Mode::A, Mode::B, Mode::C}) {
      views_.push_back([&bus, m] { return bus.mode_hold_cycles(m); });
      views_.push_back([&bus, m] { return bus.mode_wait_cycles(m); });
    }
  }
  void tick() override {
    const std::size_t n = views_.size();
    for (std::size_t k = 0; k < n; ++k) samples.push_back(views_[(first_ + k) % n]());
    first_ = (first_ + 1) % n;
  }
  std::vector<Cycle> samples;

 private:
  std::vector<std::function<Cycle()>> views_;
  std::size_t first_ = 0;
};

struct BusRun {
  std::vector<Cycle> samples;
  std::vector<PacketBus::Grant> grants;  ///< Grant at each run boundary.
  u64 bus_executed = 0;
  u64 bus_skipped = 0;
  Cycle wait_a = 0;
};

constexpr int kBusRuns = 10;
constexpr Cycle kBusRunCycles = 997;

BusRun run_scripted_bus(bool idle_skip) {
  sim::Scheduler sched(200e6);
  sched.set_idle_skip(idle_skip);
  PacketMemory mem;
  PacketBus bus(mem);
  using K = BusAction::Kind;
  // C holds the bus while A requests (A waits); C releases mid-run, then
  // A's grant passes through the grant delay to RFU 5 on its trigger.
  const std::vector<BusAction> in_run = {
      {10, K::RequestIrc, Mode::C}, {20, K::Access, Mode::C},
      {21, K::Access, Mode::C},     {22, K::Access, Mode::C},
      {200, K::RequestIrc, Mode::A}, {500, K::Access, Mode::C},
      {900, K::Release, Mode::C},   {1500, K::RequestRfu, Mode::A, 5},
      {1600, K::Trigger, Mode::A, 5}, {1700, K::Access, Mode::A},
      {1701, K::Access, Mode::A},   {5500, K::Access, Mode::B},
  };
  // Between runs: B requests during A's hold, A releases, B's grant waits
  // on RFU 6 and its trigger arrives, all as state at a run's entry.
  const std::vector<BusAction> between = {
      {2, K::RequestIrc, Mode::B}, {3, K::Release, Mode::A},
      {4, K::RequestRfu, Mode::B, 6}, {5, K::Trigger, Mode::B, 6},
      {7, K::Release, Mode::B},
  };
  BusScript script(bus, in_run);
  BusProbe probe(bus);
  sched.add(bus, "bus");  // Registration index 0.
  sched.add(script, "script");
  sched.add(probe, "probe", sim::Scheduler::kStageObserver);
  BusRun r;
  for (int k = 0; k < kBusRuns; ++k) {
    for (const BusAction& a : between) {
      if (a.at == static_cast<Cycle>(k)) apply(bus, a);
    }
    sched.run_cycles(kBusRunCycles);
    r.grants.push_back(bus.grant());
  }
  r.samples = std::move(probe.samples);
  r.bus_executed = sched.component_executed(0);
  r.bus_skipped = sched.component_skipped(0);
  r.wait_a = bus.mode_wait_cycles(Mode::A);
  return r;
}

TEST(BusQuietHold, CountersMatchEveryTick) {
  const BusRun every = run_scripted_bus(false);
  const BusRun lazy = run_scripted_bus(true);
  ASSERT_EQ(every.samples.size(), lazy.samples.size());
  for (std::size_t i = 0; i < every.samples.size(); ++i) {
    ASSERT_EQ(every.samples[i], lazy.samples[i]) << "sample " << i;
  }
  EXPECT_EQ(every.grants, lazy.grants);
  // Not vacuous: A waited through C's hold, the between-run trigger
  // promoted B's grant to RFU 6, and the holds were slept through.
  EXPECT_GT(every.wait_a, 600u);
  EXPECT_EQ(every.grants[5], (PacketBus::Grant{PacketBus::MasterKind::Rfu, Mode::B, 6}));
  EXPECT_EQ(lazy.bus_executed + lazy.bus_skipped, kBusRuns * kBusRunCycles);
  // A tick per access and per request-line change, plus run entries.
  EXPECT_LE(lazy.bus_executed, 48u);
}

// ------------------------------------------------------------ word runs

/// A streaming master on the word-run contract of rfu/streaming.hpp: once
/// it holds the grant it reads one word per cycle, declares the rest of
/// its run after each ticked word, and on settle moves the words it slept
/// through on the bus's bulk path.
class RunMaster : public sim::Clockable {
 public:
  RunMaster(PacketBus& bus, u8 id, u32 addr, u32 words)
      : bus_(bus), id_(id), addr_(addr), words_(words) {}
  void tick() override {
    if (got.size() >= words_ || !bus_.granted_rfu(id_) || !bus_.can_access()) return;
    got.push_back(bus_.read(addr_ + static_cast<u32>(got.size())));
    if (left() > 1) bus_.declare_run(this, left() - 1);
  }
  Cycle quiescent_for() const override {
    return bus_.in_run(this) && left() > 1 ? left() - 1 : 0;
  }
  void skip_idle(Cycle n) override {
    std::vector<Word> w(n);
    bus_.read_run(addr_ + static_cast<u32>(got.size()), w);
    got.insert(got.end(), w.begin(), w.end());
  }
  std::vector<Word> got;

 private:
  Cycle left() const { return words_ - got.size(); }
  PacketBus& bus_;
  u8 id_;
  u32 addr_;
  u32 words_;
};

struct StreamRun {
  BusRun bus;
  std::vector<Word> got;
};

constexpr u32 kRunWords = 600;

/// Mode A hands the bus to RFU 5, which reads a 600-word run while `extra`
/// drives the other request lines; run boundaries fall mid-run.
StreamRun run_scripted_stream(bool idle_skip, const std::vector<BusAction>& extra) {
  sim::Scheduler sched(200e6);
  sched.set_idle_skip(idle_skip);
  PacketMemory mem;
  PacketBus bus(mem);
  const u32 src = page_base(Mode::A, Page::Raw);
  for (u32 i = 0; i < kRunWords; ++i) mem.write(src + i, i * 2654435761u);
  using K = BusAction::Kind;
  std::vector<BusAction> script = {{2, K::RequestIrc, Mode::A},
                                   {4, K::Trigger, Mode::A, 5},
                                   {5, K::RequestRfu, Mode::A, 5}};
  script.insert(script.end(), extra.begin(), extra.end());
  BusScript inputs(bus, script);
  RunMaster master(bus, 5, src, kRunWords);
  BusProbe probe(bus);
  sched.add(bus, "bus");  // Registration index 0.
  sched.add(inputs, "script");
  sched.add(master, "rfu5");
  sched.add(probe, "probe", sim::Scheduler::kStageObserver);
  StreamRun r;
  for (int k = 0; k < 3; ++k) {
    sched.run_cycles(kBusRunCycles / 3);
    r.bus.grants.push_back(bus.grant());
  }
  r.bus.samples = std::move(probe.samples);
  r.bus.bus_executed = sched.component_executed(0);
  r.got = std::move(master.got);
  return r;
}

void expect_stream_matches(const StreamRun& every, const StreamRun& lazy) {
  ASSERT_EQ(every.bus.samples.size(), lazy.bus.samples.size());
  for (std::size_t i = 0; i < every.bus.samples.size(); ++i) {
    ASSERT_EQ(every.bus.samples[i], lazy.bus.samples[i]) << "sample " << i;
  }
  EXPECT_EQ(every.bus.grants, lazy.bus.grants);
  EXPECT_EQ(every.got, lazy.got);
}

TEST(BusWordRun, ForeignRequestAndReleaseLeaveTheGrant) {
  // Mode B asserts and drops its request mid-run: B waits, the grant is
  // not preempted, and the bus sleeps again after each request-line wake.
  using K = BusAction::Kind;
  const std::vector<BusAction> foreign = {{100, K::RequestIrc, Mode::B},
                                          {300, K::Release, Mode::B}};
  const StreamRun every = run_scripted_stream(false, foreign);
  const StreamRun lazy = run_scripted_stream(true, foreign);
  expect_stream_matches(every, lazy);
  EXPECT_EQ(lazy.got.size(), kRunWords);
  EXPECT_EQ(lazy.bus.grants.back(), (PacketBus::Grant{PacketBus::MasterKind::Rfu, Mode::A, 5}));
  // B's 200 waiting cycles are in the samples compared above.
  EXPECT_LE(lazy.bus.bus_executed, 24u);
}

TEST(BusWordRun, OriginReleaseEndsTheRunWhereEveryTickDoes) {
  // Mode A drops its own request mid-run: the next arbitration drops the
  // grant, so the master's words stop on the every-tick cycle.
  using K = BusAction::Kind;
  const std::vector<BusAction> release = {{100, K::RequestIrc, Mode::B},
                                          {400, K::Release, Mode::A}};
  const StreamRun every = run_scripted_stream(false, release);
  const StreamRun lazy = run_scripted_stream(true, release);
  expect_stream_matches(every, lazy);
  EXPECT_GT(lazy.got.size(), 300u);
  EXPECT_LT(lazy.got.size(), kRunWords);
  // The bus re-arbitrated to the waiting mode B.
  EXPECT_EQ(lazy.bus.grants.back(), (PacketBus::Grant{PacketBus::MasterKind::Irc, Mode::B, 0xFF}));
}

// ------------------------------------------------------------ grant waker

/// A task handler's WAIT4_PBUS on its own: armed when its mode raises a
/// request line, it sleeps until arbitration grants that mode's IRC and
/// records the cycle it sees the grant. Once armed, only the bus's grant
/// waker can wake it.
class GrantWaiter : public sim::Clockable {
 public:
  explicit GrantWaiter(const PacketBus& bus) : bus_(bus) {}
  void arm(Mode m) {
    wake_self();
    armed_[index(m)] = true;
  }
  void tick() override {
    ++ticks;
    for (std::size_t i = 0; i < kNumModes; ++i) {
      const Mode m = mode_from_index(i);
      if (!armed_[i] || !bus_.granted_irc(m)) continue;
      seen.emplace_back(now_, m);
      armed_[i] = false;
    }
    ++now_;
  }
  Cycle quiescent_for() const override {
    for (std::size_t i = 0; i < kNumModes; ++i) {
      if (armed_[i] && bus_.granted_irc(mode_from_index(i))) return 0;
    }
    return kIdleForever;
  }
  void skip_idle(Cycle n) override { now_ += n; }

  std::vector<std::pair<Cycle, Mode>> seen;
  u64 ticks = 0;

 private:
  const PacketBus& bus_;
  std::array<bool, kNumModes> armed_{};
  Cycle now_ = 0;
};

struct GrantRun {
  BusRun bus;
  std::vector<std::pair<Cycle, Mode>> seen;
  u64 waiter_ticks = 0;
};

GrantRun run_grant_waits(bool idle_skip) {
  sim::Scheduler sched(200e6);
  sched.set_idle_skip(idle_skip);
  PacketMemory mem;
  PacketBus bus(mem);
  using K = BusAction::Kind;
  // C takes the idle bus; B waits behind C and gets a plain grant when C
  // releases; A asks on behalf of RFU 7 behind B and gets the grant-delay
  // grant when B releases, which its trigger then promotes.
  const std::vector<BusAction> script = {
      {5, K::RequestIrc, Mode::C},      {20, K::Access, Mode::C},
      {50, K::RequestIrc, Mode::B},     {400, K::Release, Mode::C},
      {402, K::Access, Mode::B},        {450, K::RequestRfu, Mode::A, 7},
      {1200, K::Release, Mode::B},      {1250, K::Trigger, Mode::A, 7},
      {1800, K::Release, Mode::A},
  };
  BusScript inputs(bus, script);
  GrantWaiter waiter(bus);
  inputs.on_apply = [&waiter](const BusAction& a) {
    if (a.kind == K::RequestIrc || a.kind == K::RequestRfu) waiter.arm(a.mode);
  };
  BusProbe probe(bus);
  bus.set_grant_waker(&waiter);
  sched.add(bus, "bus", -1);
  sched.add(inputs, "script");
  sched.add(waiter, "waiter");
  sched.add(probe, "probe", sim::Scheduler::kStageObserver);
  GrantRun r;
  for (int k = 0; k < 3; ++k) {
    sched.run_cycles(kBusRunCycles);
    r.bus.grants.push_back(bus.grant());
  }
  r.bus.samples = std::move(probe.samples);
  r.seen = std::move(waiter.seen);
  r.waiter_ticks = waiter.ticks;
  return r;
}

TEST(BusGrantWaker, WaitingIrcSleepsUntilItsGrant) {
  const GrantRun every = run_grant_waits(false);
  const GrantRun lazy = run_grant_waits(true);
  ASSERT_EQ(every.bus.samples.size(), lazy.bus.samples.size());
  for (std::size_t i = 0; i < every.bus.samples.size(); ++i) {
    ASSERT_EQ(every.bus.samples[i], lazy.bus.samples[i]) << "sample " << i;
  }
  EXPECT_EQ(every.bus.grants, lazy.bus.grants);
  // Each grant is seen on the cycle the bus makes it: C's on the idle bus,
  // B's plain grant and A's grant-delay grant on the cycle after a release.
  const std::vector<std::pair<Cycle, Mode>> expected = {
      {6, Mode::C}, {401, Mode::B}, {1201, Mode::A}};
  EXPECT_EQ(every.seen, expected);
  EXPECT_EQ(lazy.seen, expected);
  // The waiter ticks when armed (the arming wake) and on each grant; the
  // rest it sleeps.
  EXPECT_EQ(lazy.waiter_ticks, 2 * expected.size());
}

TEST(CtrlLayout, StatusAddressesInsideCtrlPage) {
  const u32 base = page_base(Mode::C, Page::Ctrl);
  const u32 a = ctrl_status_addr(Mode::C, CtrlWord::kSeqOut);
  EXPECT_GT(a, base);
  EXPECT_LT(a, base + kPageWords);
  const u32 tmpl = ctrl_hdr_tmpl_addr(Mode::C);
  EXPECT_GT(tmpl, a);
  EXPECT_LT(tmpl + 40, base + kPageWords);  // Room for a header template.
}

}  // namespace
}  // namespace drmp::hw
