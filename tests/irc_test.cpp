// IRC tests: super-op-code delegation through the TH_R/TH_M statecharts,
// dynamic reconfiguration via the RC, cross-mode queueing (sleep/wake),
// table mutexes, the In-Interface doorbell path, request queueing, the
// IRC's sleep through bus waits and between doorbells, and tracing that
// observes without changing execution.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/crc.hpp"
#include "drmp/testbench.hpp"
#include "hw/bus_trace.hpp"
#include "hw/ctrl_layout.hpp"
#include "irc/irc.hpp"
#include "rfu/rfu_ids.hpp"
#include "sim/checkpoint.hpp"

namespace drmp {
namespace {

using hw::CtrlWord;
using hw::ctrl_status_addr;
using hw::Page;
using hw::page_base;
using irc::ServiceRequest;
using rfu::Op;

Bytes payload(std::size_t n, u8 seed = 1) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<u8>(i * 5 + seed);
  return b;
}

class IrcTest : public ::testing::Test {
 protected:
  IrcTest() : tb_() {}

  /// Submits a request directly to the IRC and waits for completion.
  bool run_request(Mode m, std::vector<irc::OpCall> ops, Cycle max_cycles = 8'000'000) {
    ServiceRequest req;
    req.ops = std::move(ops);
    req.from_cpu = false;  // Bypass the CPU: completion routed to nothing.
    bool done = false;
    u32 my_tag = 0;
    auto& eh_irc = tb_.device().irc();
    auto prev = eh_irc.on_complete;
    eh_irc.on_complete = [&](Mode cm, const ServiceRequest& r) {
      if (cm == m && r.tag == my_tag) {
        done = true;
      } else if (prev) {
        prev(cm, r);
      }
    };
    my_tag = eh_irc.submit(m, std::move(req));
    const bool ok = tb_.run_until([&] { return done; }, max_cycles);
    eh_irc.on_complete = prev;
    return ok;
  }

  Testbench tb_;
};

TEST_F(IrcTest, SingleOpRequestCompletes) {
  auto& mem = tb_.device().memory();
  const u32 status = ctrl_status_addr(Mode::A, CtrlWord::kSeqOut);
  ASSERT_TRUE(run_request(Mode::A, {{Op::SeqAssign, {0, status}}}));
  EXPECT_EQ(mem.cpu_read(status), 0u);
  ASSERT_TRUE(run_request(Mode::A, {{Op::SeqAssign, {0, status}}}));
  EXPECT_EQ(mem.cpu_read(status), 1u);
}

TEST_F(IrcTest, ReconfigurationHappensOnFirstUse) {
  auto& crypto = tb_.device().crypto_rfu();
  EXPECT_EQ(crypto.config_state(), 0u);  // Uninitialized.
  auto& mem = tb_.device().memory();
  mem.write_page_bytes(Mode::A, Page::Raw, payload(64));
  ASSERT_TRUE(run_request(Mode::A, {{Op::EncryptRc4,
                                     {page_base(Mode::A, Page::Raw),
                                      page_base(Mode::A, Page::Crypt), 1, 0}}}));
  EXPECT_EQ(crypto.config_state(), rfu::cfg::kCryptoRc4);
  EXPECT_EQ(crypto.reconfig_count(), 1u);
  // Same op again: no further reconfiguration.
  ASSERT_TRUE(run_request(Mode::A, {{Op::EncryptRc4,
                                     {page_base(Mode::A, Page::Raw),
                                      page_base(Mode::A, Page::Crypt), 1, 0}}}));
  EXPECT_EQ(crypto.reconfig_count(), 1u);
}

TEST_F(IrcTest, PacketByPacketReconfigurationAcrossModes) {
  // Mode A (WiFi, RC4) and mode B (WiMAX, DES) alternately use the Crypto
  // RFU: the IRC must reconfigure it packet-by-packet (§1.3).
  auto& mem = tb_.device().memory();
  auto& crypto = tb_.device().crypto_rfu();
  mem.write_page_bytes(Mode::A, Page::Raw, payload(64, 1));
  mem.write_page_bytes(Mode::B, Page::Raw, payload(64, 2));

  ASSERT_TRUE(run_request(Mode::A, {{Op::EncryptRc4,
                                     {page_base(Mode::A, Page::Raw),
                                      page_base(Mode::A, Page::Crypt), 1, 0}}}));
  const u64 rc1 = crypto.reconfig_count();
  EXPECT_EQ(crypto.config_state(), rfu::cfg::kCryptoRc4);

  ASSERT_TRUE(run_request(Mode::B, {{Op::EncryptDes,
                                     {page_base(Mode::B, Page::Raw),
                                      page_base(Mode::B, Page::Crypt), 1, 0}}}));
  EXPECT_EQ(crypto.config_state(), rfu::cfg::kCryptoDes);
  EXPECT_GT(crypto.reconfig_count(), rc1);

  ASSERT_TRUE(run_request(Mode::A, {{Op::DecryptRc4,
                                     {page_base(Mode::A, Page::Crypt),
                                      page_base(Mode::A, Page::Defrag), 1, 0}}}));
  EXPECT_EQ(crypto.config_state(), rfu::cfg::kCryptoRc4);
  // Round-trip correctness across the reconfigurations.
  EXPECT_EQ(mem.read_page_bytes(Mode::A, Page::Defrag), payload(64, 1));
}

TEST_F(IrcTest, MultiOpSuperOpCodeExecutesInOrder) {
  // [SeqAssign, Encrypt, Fragment]: op k+1 must observe op k's effects.
  auto& mem = tb_.device().memory();
  const Bytes msdu = payload(1000);
  mem.write_page_bytes(Mode::A, Page::Raw, msdu);
  const u32 status = ctrl_status_addr(Mode::A, CtrlWord::kSeqOut);
  ASSERT_TRUE(run_request(
      Mode::A,
      {
          {Op::SeqAssign, {0, status}},
          {Op::EncryptRc4,
           {page_base(Mode::A, Page::Raw), page_base(Mode::A, Page::Crypt), 5, 0}},
          {Op::FragmentWifi,
           {page_base(Mode::A, Page::Crypt), page_base(Mode::A, Page::Scratch), 256, 1}},
      }));
  // Fragment 1 of the encrypted payload = bytes [256, 512).
  const Bytes crypt = mem.read_page_bytes(Mode::A, Page::Crypt);
  const Bytes frag = mem.read_page_bytes(Mode::A, Page::Scratch);
  ASSERT_EQ(frag.size(), 256u);
  EXPECT_TRUE(std::equal(frag.begin(), frag.end(), crypt.begin() + 256));
}

TEST_F(IrcTest, CrossModeContentionQueuesAndWakes) {
  // Both modes request the (shared) Seq RFU back-to-back; the lower-priority
  // mode must queue in the rfu_table and be woken.
  auto& irc = tb_.device().irc();
  auto& mem = tb_.device().memory();
  const u32 sa = ctrl_status_addr(Mode::A, CtrlWord::kSeqOut);
  const u32 sb = ctrl_status_addr(Mode::B, CtrlWord::kSeqOut);
  const u32 sc = ctrl_status_addr(Mode::C, CtrlWord::kSeqOut);

  int completions = 0;
  irc.on_complete = [&](Mode, const ServiceRequest&) { ++completions; };
  ServiceRequest ra, rb, rc;
  ra.ops = {{Op::SeqAssign, {0u, sa}}};
  rb.ops = {{Op::SeqAssign, {1u, sb}}};
  rc.ops = {{Op::SeqAssign, {2u, sc}}};
  ra.from_cpu = rb.from_cpu = rc.from_cpu = false;
  irc.submit(Mode::A, std::move(ra));
  irc.submit(Mode::B, std::move(rb));
  irc.submit(Mode::C, std::move(rc));
  ASSERT_TRUE(tb_.run_until([&] { return completions == 3; }, 1'000'000));
  EXPECT_EQ(mem.cpu_read(sa), 0u);
  EXPECT_EQ(mem.cpu_read(sb), 0u);
  EXPECT_EQ(mem.cpu_read(sc), 0u);
}

TEST_F(IrcTest, ThreeModesConcurrentCryptoWithDifferentCiphers) {
  // The stress case: three modes each run their own cipher on the single
  // Crypto RFU concurrently — queueing + reconfiguration + data integrity.
  auto& mem = tb_.device().memory();
  auto& irc = tb_.device().irc();
  const Bytes pa = payload(512, 1), pb = payload(512, 2), pc = payload(512, 3);
  mem.write_page_bytes(Mode::A, Page::Raw, pa);
  mem.write_page_bytes(Mode::B, Page::Raw, pb);
  mem.write_page_bytes(Mode::C, Page::Raw, pc);

  int completions = 0;
  irc.on_complete = [&](Mode, const ServiceRequest&) { ++completions; };
  auto enc_dec = [&](Mode m, Op enc, Op dec) {
    ServiceRequest r;
    r.from_cpu = false;
    r.ops = {
        {enc, {page_base(m, Page::Raw), page_base(m, Page::Crypt), 9, 9}},
        {dec, {page_base(m, Page::Crypt), page_base(m, Page::Defrag), 9, 9}},
    };
    irc.submit(m, std::move(r));
  };
  enc_dec(Mode::A, Op::EncryptRc4, Op::DecryptRc4);
  enc_dec(Mode::B, Op::EncryptDes, Op::DecryptDes);
  enc_dec(Mode::C, Op::EncryptAes, Op::DecryptAes);
  ASSERT_TRUE(tb_.run_until([&] { return completions == 3; }, 20'000'000));
  EXPECT_EQ(mem.read_page_bytes(Mode::A, Page::Defrag), pa);
  EXPECT_EQ(mem.read_page_bytes(Mode::B, Page::Defrag), pb);
  EXPECT_EQ(mem.read_page_bytes(Mode::C, Page::Defrag), pc);
  // The crypto RFU must have ping-ponged between cipher states.
  EXPECT_GE(tb_.device().crypto_rfu().reconfig_count(), 3u);
}

TEST_F(IrcTest, DoorbellPathParsesSuperOpCode) {
  // Exercise the CPU-side path: serialize via write_super_op_code and let
  // the In-Interface parse it.
  auto& mem = tb_.device().memory();
  const u32 status = ctrl_status_addr(Mode::B, CtrlWord::kSeqOut);
  ServiceRequest req;
  req.ops = {{Op::SeqAssign, {1, status}}};
  req.tag = 99;
  req.from_cpu = true;

  u32 done_tag = 0;
  tb_.device().irc().on_complete = [&](Mode, const ServiceRequest& r) {
    done_tag = r.tag;
  };
  irc::write_super_op_code(mem, Mode::B, req);
  ASSERT_TRUE(tb_.run_until([&] { return done_tag == 99; }, 1'000'000));
  EXPECT_EQ(mem.cpu_read(status), 0u);
}

TEST_F(IrcTest, RequestsQueuePerMode) {
  // Two requests for the same mode: the second must wait, then run.
  auto& irc = tb_.device().irc();
  const u32 status = ctrl_status_addr(Mode::A, CtrlWord::kSeqOut);
  int completions = 0;
  irc.on_complete = [&](Mode, const ServiceRequest&) { ++completions; };
  for (int i = 0; i < 2; ++i) {
    ServiceRequest r;
    r.from_cpu = false;
    r.ops = {{Op::SeqAssign, {0u, status}}};
    irc.submit(Mode::A, std::move(r));
  }
  EXPECT_EQ(irc.queued_requests(Mode::A), 2u);
  ASSERT_TRUE(tb_.run_until([&] { return completions == 2; }, 1'000'000));
  EXPECT_EQ(tb_.device().memory().cpu_read(status), 1u);  // Ran twice.
}

TEST_F(IrcTest, RcUpdatesRfuTableState) {
  auto& mem = tb_.device().memory();
  mem.write_page_bytes(Mode::C, Page::Raw, payload(32));
  ASSERT_TRUE(run_request(Mode::C, {{Op::EncryptAes,
                                     {page_base(Mode::C, Page::Raw),
                                      page_base(Mode::C, Page::Crypt), 1, 1}}}));
  const auto& entry = tb_.device().irc().rfu_table().entry(rfu::kCryptoRfu);
  EXPECT_EQ(entry.c_state, rfu::cfg::kCryptoAes);
  EXPECT_FALSE(entry.in_use);
  EXPECT_GE(tb_.device().irc().rc().reconfigs_performed(), 1u);
}

TEST_F(IrcTest, TaskHandlerStateOccupancyRecorded) {
  auto& mem = tb_.device().memory();
  mem.write_page_bytes(Mode::A, Page::Raw, payload(256));
  ASSERT_TRUE(run_request(Mode::A, {{Op::EncryptRc4,
                                     {page_base(Mode::A, Page::Raw),
                                      page_base(Mode::A, Page::Crypt), 1, 0}}}));
  const sim::StatsRegistry stats = tb_.device().stats();
  const auto& occ = stats.all_occupancy();
  ASSERT_TRUE(occ.count("irc.thm.A"));
  ASSERT_TRUE(occ.count("irc.thr.A"));
  // The TH_M must have spent cycles outside IDLE.
  const sim::StateOccupancy& thm = *occ.at("irc.thm.A");
  Cycle non_idle = thm.total() - thm.cycles_in(static_cast<int>(irc::ThMState::Idle));
  EXPECT_GT(non_idle, 0u);
}

// ------------------------------------------------ the IRC's event-paced sleep

/// A device with every protocol mode off: no controller traffic, so the
/// IRC works only on the requests a test hands it and may sleep.
DrmpConfig quiet_config() { return DrmpConfig{}; }

/// Counts the IRC's slept-through cycles (observer callbacks fire with
/// idle-skip on only; every run settles its sleepers at exit).
class IrcSkipTally : public sim::SchedulerObserver {
 public:
  void on_skip_span(std::string_view name, Cycle, Cycle len) override {
    if (name == "irc") skipped += len;
  }
  void on_fast_forward(Cycle, Cycle) override {}
  Cycle skipped = 0;
};

/// Every IRC statistic (TH_R/TH_M/RC occupancy per state and busy counts)
/// and the bus's cycle, hold and wait counters, flattened for comparison.
std::vector<Cycle> irc_and_bus_counters(DrmpDevice& dev) {
  std::vector<Cycle> v;
  const sim::StatsRegistry stats = dev.stats();
  for (const auto& [name, occ] : stats.all_occupancy()) {
    if (name.rfind("irc.", 0) != 0) continue;
    for (int s = 0; s < sim::StateOccupancy::kMaxStates; ++s) {
      v.push_back(occ->cycles_in(s));
    }
  }
  for (const auto& [name, busy] : stats.all_busy()) {
    if (name.rfind("irc.", 0) != 0) continue;
    v.push_back(busy->busy_cycles());
    v.push_back(busy->total_cycles());
  }
  const hw::PacketBus& bus = dev.bus();
  v.push_back(bus.busy_cycles());
  v.push_back(bus.total_cycles());
  for (Mode m : {Mode::A, Mode::B, Mode::C}) {
    v.push_back(bus.mode_hold_cycles(m));
    v.push_back(bus.mode_wait_cycles(m));
  }
  return v;
}

ServiceRequest engine_request(std::vector<irc::OpCall> ops, u32 tag) {
  ServiceRequest r;
  r.ops = std::move(ops);
  r.from_cpu = false;
  r.tag = tag;
  return r;
}

struct WaitPhase {
  Cycle cycles = 0;        ///< Length of the measured phase.
  u64 irc_executed = 0;    ///< IRC ticks executed in it.
  Cycle b_wait4pbus = 0;   ///< Mode B's TH_M cycles in WAIT4_PBUS, all told.
  std::vector<Cycle> counters;
};

/// Mode A's frag RFU moves `words` words (a read run, then a write run)
/// while mode B's TH_M, submitted once the RFU holds the bus, waits for the
/// grant in WAIT4_PBUS. A warm-up pair of requests configures both RFUs
/// first, so the measured phase holds no reconfiguration.
WaitPhase wait_through_run(bool idle_skip, u32 words) {
  Testbench tb(quiet_config());
  tb.scheduler().set_idle_skip(idle_skip);
  IrcSkipTally tally;
  tb.scheduler().set_observer(&tally);
  DrmpDevice& dev = tb.device();
  auto& irc = dev.irc();
  auto& mem = dev.memory();
  std::map<Mode, int> done;
  irc.on_complete = [&](Mode m, const ServiceRequest&) { ++done[m]; };
  const u32 raw = page_base(Mode::A, Page::Raw);
  const u32 scratch = page_base(Mode::A, Page::Scratch);
  const u32 seq_b = ctrl_status_addr(Mode::B, CtrlWord::kSeqOut);
  auto frag = [&](u32 bytes, u32 tag) {
    mem.write_page_bytes(Mode::A, Page::Raw, payload(bytes));
    irc.submit(Mode::A,
               engine_request({{Op::FragmentWifi, {raw, scratch, bytes, 0}}}, tag));
  };
  auto seq = [&](u32 tag) {
    irc.submit(Mode::B, engine_request({{Op::SeqAssign, {1, seq_b}}}, tag));
  };

  frag(16, 1);
  seq(2);
  auto both_done = [&](int n) {
    return [&done, n] { return done[Mode::A] == n && done[Mode::B] == n; };
  };
  EXPECT_TRUE(tb.run_until(both_done(1), 100'000));

  WaitPhase r;
  const Cycle t0 = tb.scheduler().now();
  const Cycle skipped0 = tally.skipped;
  frag(2 * words, 3);
  const hw::PacketBus& bus = dev.bus();
  EXPECT_TRUE(tb.run_until([&] { return bus.granted_rfu(rfu::kFragRfu); }, 100'000));
  seq(4);
  EXPECT_TRUE(tb.run_until(both_done(2), 100'000));
  r.cycles = tb.scheduler().now() - t0;
  r.irc_executed = idle_skip ? r.cycles - (tally.skipped - skipped0) : r.cycles;
  const sim::StatsRegistry stats = dev.stats();
  r.b_wait4pbus = stats.all_occupancy().at("irc.thm.B")->cycles_in(
      static_cast<int>(irc::ThMState::Wait4Pbus));
  r.counters = irc_and_bus_counters(dev);
  EXPECT_EQ(mem.read_page_bytes(Mode::A, Page::Scratch), payload(2 * words));
  tb.scheduler().set_observer(nullptr);
  return r;
}

TEST(IrcSleep, WaitingHandlerSleepsThroughAnotherModesRun) {
  std::vector<u64> executed;
  for (u32 words : {64u, 1024u}) {
    SCOPED_TRACE(words);
    const WaitPhase every = wait_through_run(false, words);
    const WaitPhase lazy = wait_through_run(true, words);
    EXPECT_EQ(every.cycles, lazy.cycles);
    EXPECT_EQ(every.counters, lazy.counters);
    // Not vacuous: B waited for the bus through A's read run at least.
    EXPECT_GE(every.b_wait4pbus, words / 2);
    EXPECT_LT(lazy.irc_executed, every.irc_executed);
    executed.push_back(lazy.irc_executed);
  }
  // The IRC's cost is per event: the run's length does not reach it.
  EXPECT_EQ(executed[0], executed[1]);
}

/// What the doorbell tests ring mode B's doorbell with.
constexpr u32 kDoorbellTag = 77;
ServiceRequest doorbell_request() {
  ServiceRequest req;
  req.ops = {{Op::SeqAssign, {1, ctrl_status_addr(Mode::B, CtrlWord::kSeqOut)}}};
  req.tag = kDoorbellTag;
  return req;
}

/// Rings mode B's doorbell from its own tick at cycle `at`, from a stage
/// before the device (the IRC's slot has not passed) or after it.
class DoorbellRinger : public sim::Clockable {
 public:
  DoorbellRinger(hw::PacketMemory& mem, Cycle at) : mem_(mem), at_(at) {}
  void tick() override {
    if (now_++ == at_) irc::write_super_op_code(mem_, Mode::B, doorbell_request());
  }

 private:
  hw::PacketMemory& mem_;
  Cycle at_;
  Cycle now_ = 0;
};

struct DoorbellRun {
  Cycle completed_at = 0;
  u64 irc_executed_before = 0;  ///< IRC ticks before the ring.
  std::vector<Cycle> counters;
};

DoorbellRun ring_while_asleep(bool idle_skip, int ringer_stage) {
  constexpr Cycle kRingAt = 3000;
  Testbench tb(quiet_config());
  tb.scheduler().set_idle_skip(idle_skip);
  IrcSkipTally tally;
  tb.scheduler().set_observer(&tally);
  DoorbellRinger ringer(tb.device().memory(), kRingAt);
  tb.scheduler().add(ringer, "ringer", ringer_stage);
  DoorbellRun r;
  tb.device().irc().on_complete = [&](Mode, const ServiceRequest& req) {
    if (req.tag == kDoorbellTag) r.completed_at = tb.scheduler().now();
  };
  tb.run_cycles(kRingAt);
  r.irc_executed_before = idle_skip ? kRingAt - tally.skipped : kRingAt;
  EXPECT_TRUE(tb.run_until([&] { return r.completed_at != 0; }, 100'000));
  r.counters = irc_and_bus_counters(tb.device());
  tb.scheduler().set_observer(nullptr);
  return r;
}

TEST(IrcSleep, DoorbellRungWhileAsleepDispatchesOnTheEveryTickCycle) {
  for (int stage : {sim::Scheduler::kStageMedium, sim::Scheduler::kStageObserver}) {
    SCOPED_TRACE(stage);
    const DoorbellRun every = ring_while_asleep(false, stage);
    const DoorbellRun lazy = ring_while_asleep(true, stage);
    EXPECT_EQ(every.completed_at, lazy.completed_at);
    EXPECT_EQ(every.counters, lazy.counters);
    // Not vacuous: the IRC slept until the ring, reading no doorbell.
    EXPECT_LE(lazy.irc_executed_before, 2u);
  }
}

/// The scheduler's clock and the whole device (an all-modes-off testbench
/// has no media or peers to carry).
Bytes save_quiet(Testbench& tb) {
  sim::snap::Writer w;
  tb.scheduler().save_state(w);
  tb.device().save_state(w);
  return w.envelope();
}

void load_quiet(Testbench& tb, const Bytes& snap) {
  sim::snap::Reader r(snap);
  tb.scheduler().load_state(r);
  tb.device().load_state(r);
  ASSERT_TRUE(r.at_end());
}

struct ResumeRun {
  Cycle completed_at = 0;
  Bytes final_state;  ///< The device's snapshot 500 cycles after completion.
};

/// Runs `tb` until the doorbell request completes, and 500 cycles more.
ResumeRun finish(Testbench& tb) {
  ResumeRun r;
  tb.device().irc().on_complete = [&](Mode, const ServiceRequest& req) {
    if (req.tag == kDoorbellTag) r.completed_at = tb.scheduler().now();
  };
  EXPECT_TRUE(tb.run_until([&] { return r.completed_at != 0; }, 100'000));
  tb.run_cycles(500);
  sim::snap::Writer w;
  tb.device().save_state(w);
  r.final_state = w.envelope();
  return r;
}

TEST(IrcSleep, SnapshotWithARungUnpolledDoorbellResumesExactly) {
  // The doorbell is rung between runs and saved before any IRC tick polls
  // it: the snapshot holds the rung doorbell, not the flag that says so.
  for (bool saved_skip : {false, true}) {
    SCOPED_TRACE(saved_skip);
    Testbench tb(quiet_config());
    tb.scheduler().set_idle_skip(saved_skip);
    tb.run_cycles(2000);
    irc::write_super_op_code(tb.device().memory(), Mode::B, doorbell_request());
    const Bytes snap = save_quiet(tb);
    const ResumeRun uninterrupted = finish(tb);
    for (bool skip : {false, true}) {
      SCOPED_TRACE(skip);
      Testbench resumed(quiet_config());
      resumed.scheduler().set_idle_skip(skip);
      // A run-in IRC has polled its doorbells: nothing of its own says
      // one is rung when the load lands.
      resumed.run_cycles(10);
      load_quiet(resumed, snap);
      const ResumeRun r = finish(resumed);
      EXPECT_EQ(r.completed_at, uninterrupted.completed_at);
      EXPECT_EQ(r.final_state, uninterrupted.final_state);
    }
  }
}

// ------------------------------------------- tracing observes, never steers

/// What one three-mode transmit leaves behind: the execution cost, the
/// counters, the task handlers' state channels and the bus tenures.
struct TracedRun {
  u64 ticks_executed = 0;
  std::vector<Cycle> counters;
  std::map<std::string, std::vector<sim::TraceEvent>> handler_events;
  std::vector<hw::BusTransaction> transactions;
};

TracedRun three_mode_tx(bool trace, bool bus_recorder, bool idle_skip) {
  DrmpConfig cfg = DrmpConfig::standard_three_mode();
  cfg.trace_enabled = trace;
  Testbench tb(cfg);
  tb.scheduler().set_idle_skip(idle_skip);
  hw::BusTraceRecorder rec;
  if (bus_recorder) tb.device().bus().attach_recorder(&rec);
  for (Mode m : {Mode::A, Mode::B, Mode::C}) {
    tb.send_async(m, payload(400, static_cast<u8>(index(m) + 1)));
  }
  for (Mode m : {Mode::A, Mode::B, Mode::C}) {
    EXPECT_TRUE(tb.wait_tx_count(m, 1, 600'000'000));
  }
  DrmpDevice& dev = tb.device();
  rec.finish(dev.bus().total_cycles());
  TracedRun r;
  r.ticks_executed = tb.scheduler().ticks_executed();
  r.counters = irc_and_bus_counters(dev);
  for (const char* kind : {"thr.", "thm."}) {
    for (Mode m : {Mode::A, Mode::B, Mode::C}) {
      const std::string name = kind + std::string(to_string(m));
      r.handler_events[name] = dev.trace().channel(name).events();
    }
  }
  r.transactions = rec.transactions();
  return r;
}

TEST(TraceObserver, TracingDoesNotChangeExecution) {
  const TracedRun traced = three_mode_tx(true, true, true);
  const TracedRun bare = three_mode_tx(false, false, true);
  const TracedRun every = three_mode_tx(true, true, false);
  // A live scope and a bus recorder leave the sleeping path as it is.
  EXPECT_EQ(traced.ticks_executed, bare.ticks_executed);
  EXPECT_EQ(traced.counters, bare.counters);
  EXPECT_LT(traced.ticks_executed, every.ticks_executed);
  // And they see what the every-tick oracle sees.
  EXPECT_EQ(traced.handler_events, every.handler_events);
  EXPECT_EQ(traced.transactions, every.transactions);
  // Not vacuous: every handler traced its charts, and the tenures moved
  // words.
  for (const auto& [name, events] : traced.handler_events) {
    EXPECT_GT(events.size(), 2u) << name;
  }
  u64 words = 0;
  for (const hw::BusTransaction& t : traced.transactions) words += t.words;
  EXPECT_GT(words, 300u);
}

TEST(TraceObserver, DisabledDeviceRecordsNoHandlerEvents) {
  const TracedRun bare = three_mode_tx(false, false, true);
  for (const auto& [name, events] : bare.handler_events) {
    EXPECT_TRUE(events.empty()) << name;
  }
}

}  // namespace
}  // namespace drmp
