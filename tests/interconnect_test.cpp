// Interconnect-model tests (§3.6.3/§7.1 alternatives): the bus-tenure
// replay of a recorder's packet_bus track, and the replay models'
// arbitration, width scaling, multi-bus parallelism and segmented-bus
// concurrency — including a live-capture validation against the real
// single bus.
#include <gtest/gtest.h>

#include "drmp/testbench.hpp"
#include "hw/interconnect_models.hpp"

namespace drmp::hw {
namespace {

// ---------------------------------------------------------------------------
// Tenure replay unit tests: hand-logged bus events, as PacketBus logs them.
// ---------------------------------------------------------------------------

class BusLog {
 public:
  void request(Mode m, Cycle now) { log(now, obs::EventKind::kBusRequest, m); }
  void release(Mode m, Cycle now) { log(now, obs::EventKind::kBusRelease, m); }
  void access(Mode m, Cycle now, bool rfu_region) {
    log(now, obs::EventKind::kBusAccess, m, rfu_region ? 1 : 0);
  }
  void run(Mode m, Cycle now, std::size_t n) {
    log(now, obs::EventKind::kBusRun, m, static_cast<i64>(n));
  }
  std::vector<BusTransaction> finish(Cycle end) const { return bus_transactions(rec_, end); }

 private:
  void log(Cycle now, obs::EventKind kind, Mode m, i64 b = 0) {
    rec_.log(now, kind, track_, static_cast<i64>(index(m)), b);
  }
  obs::FlightRecorder rec_;
  u16 track_ = rec_.track("packet_bus");
};

TEST(BusTenureReplayTest, BuildsTransactionFromRequestAccessRelease) {
  BusLog rec;
  rec.request(Mode::B, 100);
  rec.access(Mode::B, 104, /*rfu_region=*/true);
  rec.access(Mode::B, 105, /*rfu_region=*/false);
  rec.access(Mode::B, 109, /*rfu_region=*/false);
  rec.release(Mode::B, 110);
  const auto tenures = rec.finish(110);
  ASSERT_EQ(tenures.size(), 1u);
  const BusTransaction& t = tenures[0];
  EXPECT_EQ(t.mode, Mode::B);
  EXPECT_EQ(t.request, 100u);
  EXPECT_EQ(t.first_access, 104u);
  EXPECT_EQ(t.last_access, 109u);
  EXPECT_EQ(t.words, 3u);
  EXPECT_TRUE(t.touched_rfu);
  EXPECT_TRUE(t.touched_mem);
  // Span 6 cycles, 3 transfers -> 3 width-invariant stall cycles.
  EXPECT_EQ(t.stall_cycles(), 3u);
}

TEST(BusTenureReplayTest, ReassertionDoesNotSplitTenure) {
  BusLog rec;
  rec.request(Mode::A, 10);
  rec.request(Mode::A, 12);  // IRC re-request within the same tenure.
  rec.access(Mode::A, 13, false);
  rec.release(Mode::A, 14);
  const auto tenures = rec.finish(20);
  ASSERT_EQ(tenures.size(), 1u);
  EXPECT_EQ(tenures[0].request, 10u);
}

TEST(BusTenureReplayTest, ConcurrentModesTrackedIndependently) {
  BusLog rec;
  rec.request(Mode::A, 10);
  rec.request(Mode::B, 11);
  rec.access(Mode::A, 12, false);
  rec.release(Mode::A, 13);
  rec.access(Mode::B, 14, false);
  rec.release(Mode::B, 15);
  const auto tenures = rec.finish(20);
  ASSERT_EQ(tenures.size(), 2u);
  EXPECT_EQ(tenures[0].mode, Mode::A);
  EXPECT_EQ(tenures[1].mode, Mode::B);
}

TEST(BusTenureReplayTest, FinishClosesOpenTenures) {
  BusLog rec;
  rec.request(Mode::C, 5);
  rec.access(Mode::C, 6, false);
  const auto tenures = rec.finish(9);
  ASSERT_EQ(tenures.size(), 1u);
  EXPECT_EQ(tenures[0].words, 1u);
}

TEST(BusTenureReplayTest, WordRunExtendsTheOpenTenure) {
  BusLog rec;
  rec.request(Mode::A, 10);
  rec.access(Mode::A, 12, /*rfu_region=*/true);
  rec.run(Mode::A, 17, 5);  // Cycles 13..17.
  rec.release(Mode::A, 18);
  const auto tenures = rec.finish(20);
  ASSERT_EQ(tenures.size(), 1u);
  const BusTransaction& t = tenures[0];
  EXPECT_EQ(t.words, 6u);
  EXPECT_EQ(t.first_access, 12u);
  EXPECT_EQ(t.last_access, 17u);
  EXPECT_TRUE(t.touched_mem);
  EXPECT_TRUE(t.touched_rfu);
  EXPECT_EQ(t.stall_cycles(), 0u);
}

TEST(BusTenureReplayTest, SplitRunEqualsOneRun) {
  auto record = [](std::initializer_list<std::size_t> settles) {
    BusLog rec;
    rec.request(Mode::B, 0);
    rec.access(Mode::B, 3, /*rfu_region=*/false);
    Cycle at = 3;
    for (std::size_t n : settles) rec.run(Mode::B, at += n, n);
    rec.access(Mode::B, 11, /*rfu_region=*/false);
    rec.release(Mode::B, 12);
    return rec.finish(12);
  };
  const auto whole = record({7});
  EXPECT_EQ(record({3, 4}), whole);
  ASSERT_EQ(whole.size(), 1u);
  EXPECT_EQ(whole[0].words, 9u);
  EXPECT_EQ(whole[0].stall_cycles(), 0u);
}

TEST(BusTenureReplayTest, NoBusTrackReplaysToNothing) {
  obs::FlightRecorder rec;
  rec.signal(0, rec.track("bus"), 1);  // The figure probe's grant signal.
  EXPECT_TRUE(bus_transactions(rec, 10).empty());
}

// ---------------------------------------------------------------------------
// Replay-model unit tests on hand-built traces.
// ---------------------------------------------------------------------------

FlowTx tx(u32 flow, Cycle request, u32 words, Cycle stall = 0,
          u8 segments = FlowTx::kSegMem) {
  FlowTx t;
  t.flow = flow;
  t.request = request;
  t.words = words;
  t.stall = stall;
  t.segments = segments;
  return t;
}

TEST(ReplayTest, UncontendedFlowSeesNoWait) {
  const std::vector<FlowTx> trace = {tx(0, 0, 10), tx(0, 100, 10), tx(0, 200, 10)};
  const auto res = replay_interconnect(trace, {});
  EXPECT_EQ(res.total_wait(), 0u);
  EXPECT_EQ(res.flows[0].hold, 30u);
  EXPECT_EQ(res.makespan, 210u);
}

TEST(ReplayTest, SingleBusSerializesAndPriorityWins) {
  // Flows 0 and 1 request at the same cycle; flow 0 (higher priority) goes
  // first, flow 1 absorbs the wait.
  const std::vector<FlowTx> trace = {tx(1, 0, 20), tx(0, 0, 20)};
  const auto res = replay_interconnect(trace, {});
  EXPECT_EQ(res.flows[0].wait, 0u);
  EXPECT_EQ(res.flows[1].wait, 20u);
  EXPECT_EQ(res.makespan, 40u);
  EXPECT_DOUBLE_EQ(res.peak_utilization, 1.0);
}

TEST(ReplayTest, NonPreemptiveGrantHolds) {
  // Flow 1 starts on an idle bus; flow 0 arrives mid-transfer and must wait
  // for the release (the §3.6.3 time-multiplexing is non-preemptive).
  const std::vector<FlowTx> trace = {tx(1, 0, 50), tx(0, 10, 5)};
  const auto res = replay_interconnect(trace, {});
  EXPECT_EQ(res.flows[1].wait, 0u);
  EXPECT_EQ(res.flows[0].wait, 40u);  // Waits from 10 to 50.
}

TEST(ReplayTest, WideBusHalvesTransferButNotStall) {
  // 40 words + 10 stall cycles: 32-bit bus -> 50 cycles; 64-bit -> 30.
  const std::vector<FlowTx> trace = {tx(0, 0, 40, 10)};
  InterconnectSpec wide;
  wide.kind = InterconnectSpec::Kind::WideBus;
  wide.width_words = 2;
  EXPECT_EQ(replay_interconnect(trace, {}).flows[0].hold, 50u);
  EXPECT_EQ(replay_interconnect(trace, wide).flows[0].hold, 30u);
}

TEST(ReplayTest, MultiBusRemovesCrossFlowContention) {
  const std::vector<FlowTx> trace = {tx(0, 0, 100), tx(1, 0, 100), tx(2, 0, 100)};
  InterconnectSpec multi;
  multi.kind = InterconnectSpec::Kind::MultiBus;
  multi.num_buses = 3;
  const auto single = replay_interconnect(trace, {});
  const auto par = replay_interconnect(trace, multi);
  EXPECT_EQ(single.total_wait(), 100u + 200u);
  EXPECT_EQ(par.total_wait(), 0u);
  EXPECT_EQ(par.makespan, 100u);
  EXPECT_EQ(single.makespan, 300u);
}

TEST(ReplayTest, TwoBusesShareByFlowModulo) {
  // Flows 0 and 2 map to bus 0; flow 1 has bus 1 to itself.
  const std::vector<FlowTx> trace = {tx(0, 0, 100), tx(1, 0, 100), tx(2, 0, 100)};
  InterconnectSpec multi;
  multi.kind = InterconnectSpec::Kind::MultiBus;
  multi.num_buses = 2;
  const auto res = replay_interconnect(trace, multi);
  EXPECT_EQ(res.flows[0].wait, 0u);
  EXPECT_EQ(res.flows[1].wait, 0u);
  EXPECT_EQ(res.flows[2].wait, 100u);
  EXPECT_EQ(res.makespan, 200u);
}

TEST(ReplayTest, SegmentedBusOverlapsDisjointSegments) {
  // A memory-only and an RFU-only transaction overlap fully; a both-segment
  // transaction serializes against each.
  const std::vector<FlowTx> trace = {
      tx(0, 0, 50, 0, FlowTx::kSegMem),
      tx(1, 0, 50, 0, FlowTx::kSegRfu),
      tx(2, 0, 50, 0, FlowTx::kSegMem | FlowTx::kSegRfu),
  };
  InterconnectSpec seg;
  seg.kind = InterconnectSpec::Kind::SegmentedBus;
  const auto res = replay_interconnect(trace, seg);
  EXPECT_EQ(res.flows[0].wait, 0u);
  EXPECT_EQ(res.flows[1].wait, 0u);
  EXPECT_EQ(res.flows[2].wait, 50u);  // Needs both segments free.
  EXPECT_EQ(res.makespan, 100u);
}

TEST(ReplayTest, DemandTimesAreRespectedAfterCongestion) {
  // Flow 0's second transaction is requested long after the first completes;
  // replay must not pull it earlier even on a fast interconnect.
  const std::vector<FlowTx> trace = {tx(0, 0, 10), tx(0, 1000, 10)};
  InterconnectSpec wide;
  wide.kind = InterconnectSpec::Kind::WideBus;
  wide.width_words = 4;
  const auto res = replay_interconnect(trace, wide);
  EXPECT_EQ(res.makespan, 1003u);  // 1000 + ceil(10/4).
}

TEST(ReplayTest, SynthesizedFlowsReplicatePattern) {
  const std::vector<FlowTx> base = {tx(0, 0, 10), tx(0, 50, 10)};
  const auto synth = synthesize_n_flows(base, 4, 7);
  ASSERT_EQ(synth.size(), 8u);
  u32 per_flow[4] = {0, 0, 0, 0};
  for (const auto& t : synth) {
    ASSERT_LT(t.flow, 4u);
    ++per_flow[t.flow];
  }
  for (u32 f = 0; f < 4; ++f) EXPECT_EQ(per_flow[f], 2u);
  // Phase offsets applied per flow.
  const auto res = replay_interconnect(synth, {});
  EXPECT_GT(res.makespan, 50u);
}

TEST(ReplayTest, LabelsAndWireCosts) {
  InterconnectSpec s;
  EXPECT_EQ(s.label(), "single bus (32-bit)");
  EXPECT_DOUBLE_EQ(s.wire_cost(), 1.0);
  s.kind = InterconnectSpec::Kind::WideBus;
  s.width_words = 2;
  EXPECT_EQ(s.label(), "wide bus (64-bit)");
  EXPECT_DOUBLE_EQ(s.wire_cost(), 2.0);
  s.kind = InterconnectSpec::Kind::MultiBus;
  s.num_buses = 3;
  EXPECT_EQ(s.label(), "multi-bus x3");
  s.kind = InterconnectSpec::Kind::SegmentedBus;
  EXPECT_EQ(s.label(), "segmented bus (mem|rfu)");
  EXPECT_LT(s.wire_cost(), 2.0);
}

// ---------------------------------------------------------------------------
// Live-capture integration: record a real three-mode run, replay it.
// ---------------------------------------------------------------------------

TEST(InterconnectLiveTest, RecorderCapturesRealRunAndReplayIsConsistent) {
  Testbench tb;
  obs::FlightRecorder rec;
  tb.device().bus().attach_recorder(&rec);

  Bytes payload(700);
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = static_cast<u8>(i);
  tb.send_async(Mode::A, payload);
  tb.send_async(Mode::B, payload);
  tb.send_async(Mode::C, payload);
  ASSERT_TRUE(tb.wait_tx_count(Mode::A, 1, 600'000'000));
  ASSERT_TRUE(tb.wait_tx_count(Mode::B, 1, 600'000'000));
  ASSERT_TRUE(tb.wait_tx_count(Mode::C, 1, 600'000'000));
  const auto tenures = bus_transactions(rec, tb.device().bus().total_cycles());

  ASSERT_GT(tenures.size(), 10u) << "expected many bus tenures in a 3-mode run";

  // Every mode contributed transactions, and recorded words match the bus's
  // own busy accounting (each busy cycle is exactly one word transfer).
  u64 words = 0;
  bool seen[kNumModes] = {};
  for (const auto& t : tenures) {
    words += t.words;
    seen[index(t.mode)] = true;
    EXPECT_GE(t.first_access, t.request);
    EXPECT_GE(t.last_access, t.first_access);
  }
  EXPECT_TRUE(seen[0] && seen[1] && seen[2]);
  EXPECT_EQ(words, tb.device().bus().busy_cycles());

  // Replaying the capture on the single-bus model reproduces per-flow hold
  // exactly (hold = words + stall by construction) and a makespan consistent
  // with the live run.
  const auto flows = to_flow_trace(tenures);
  const auto res = replay_interconnect(flows, {});
  for (std::size_t i = 0; i < kNumModes; ++i) {
    Cycle expect_hold = 0;
    for (const auto& t : tenures) {
      if (index(t.mode) == i) {
        expect_hold += std::max<Cycle>(1, std::max<u32>(1, t.words) + t.stall_cycles());
      }
    }
    EXPECT_EQ(res.flows[i].hold, expect_hold);
  }
  EXPECT_LE(res.makespan, tb.device().bus().total_cycles() * 11 / 10);

  // A 3-bus network removes all cross-mode contention on this workload.
  InterconnectSpec multi;
  multi.kind = InterconnectSpec::Kind::MultiBus;
  multi.num_buses = 3;
  const auto par = replay_interconnect(flows, multi);
  EXPECT_LE(par.total_wait(), res.total_wait());
}

/// FNV-1a over every field of a tenure list.
u64 tenure_digest(const std::vector<BusTransaction>& tenures) {
  u64 h = 0xcbf29ce484222325ull;
  const auto mix = [&h](u64 v) {
    for (int i = 0; i < 8; ++i) h = (h ^ ((v >> (8 * i)) & 0xFF)) * 0x100000001b3ull;
  };
  for (const BusTransaction& t : tenures) {
    mix(index(t.mode));
    mix(t.request);
    mix(t.first_access);
    mix(t.last_access);
    mix(t.words);
    mix(t.touched_mem);
    mix(t.touched_rfu);
  }
  return h;
}

TEST(InterconnectLiveTest, TriggerBurstsReplayAsRfuWords) {
  // A three-mode transmit: each MSDU goes through a detached channel-access
  // op (WiFi CSMA with two arguments, WiMAX and UWB TDMA with three), whose
  // tenure is only its trigger words — command, the arguments as a burst,
  // execute — and touches no memory.
  for (bool idle_skip : {true, false}) {
    SCOPED_TRACE(idle_skip);
    Testbench tb;
    tb.scheduler().set_idle_skip(idle_skip);
    obs::FlightRecorder rec;
    tb.device().bus().attach_recorder(&rec);
    Bytes payload(300);
    for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = static_cast<u8>(i * 3);
    for (Mode m : {Mode::A, Mode::B, Mode::C}) tb.send_async(m, payload);
    for (Mode m : {Mode::A, Mode::B, Mode::C}) {
      ASSERT_TRUE(tb.wait_tx_count(m, 1, 600'000'000));
    }
    const auto tenures = bus_transactions(rec, tb.device().bus().total_cycles());
    std::vector<Mode> rfu_only;
    for (const BusTransaction& t : tenures) {
      if (t.touched_rfu && !t.touched_mem) {
        rfu_only.push_back(t.mode);
        EXPECT_EQ(t.words, t.mode == Mode::A ? 4u : 5u);
      }
    }
    EXPECT_EQ(rfu_only, (std::vector<Mode>{Mode::A, Mode::B, Mode::C}));
    // The tenures of the per-word kernel of old, to the cycle.
    EXPECT_EQ(tenures.size(), 25u);
    EXPECT_EQ(tenure_digest(tenures), 5813951158051098426ull);
  }
}

}  // namespace
}  // namespace drmp::hw
