// Multi-cell co-channel coupling tests (docs/MULTICELL.md): foreign-carrier
// image physics on ContendedMedium (interval-arithmetic CCA/occupancy/jam
// verdicts, never delivered, counted only by the home cell), ChannelCoupler
// forwarding in both delivery modes, and the engine-level contracts — the
// reference single-scheduler coupling produces real inter-cell collisions,
// the lax window-edge exchange reproduces its digests bit-for-bit across
// worker pools and idle-skip, an all-zeros inter-cell reach is physically
// indistinguishable from no coupling at all, and malformed coupling specs
// fail loudly at construction.
#include <gtest/gtest.h>

#include <stdexcept>

#include "net/audibility.hpp"
#include "net/channel_coupler.hpp"
#include "net/contended_medium.hpp"
#include "scenario/scenario_engine.hpp"
#include "sim/multi_scheduler.hpp"
#include "sim/scheduler.hpp"

namespace drmp::net {
namespace {

struct Sink : phy::MediumClient {
  std::vector<Bytes> frames;
  std::vector<int> sources;
  void on_frame(const Bytes& f, Cycle, int source) override {
    frames.push_back(f);
    sources.push_back(source);
  }
};

Bytes pattern_frame(std::size_t n, u8 seed) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<u8>(seed + i * 3);
  return b;
}

class RemoteCarrierTest : public ::testing::Test {
 protected:
  RemoteCarrierTest() : tb(200e6), sched(200e6) {}

  ContendedMedium& make(ContendedMedium::Params p = {}) {
    medium = std::make_unique<ContendedMedium>(mac::Protocol::WiFi, tb, p);
    medium->attach(sink);
    sched.add(*medium, "medium", sim::Scheduler::kStageMedium);
    return *medium;
  }

  sim::TimeBase tb;
  sim::Scheduler sched;
  std::unique_ptr<ContendedMedium> medium;
  Sink sink;
};

TEST_F(RemoteCarrierTest, ImageRaisesCcaOverItsShiftedWindowOnly) {
  ContendedMedium& m = make();
  const Cycle lat = m.cca_latency_cycles();
  ASSERT_GT(lat, 0u);
  m.begin_remote_tx(/*start=*/500, /*end=*/900, /*source=*/77);
  EXPECT_EQ(m.remote_txs(), 1u);
  EXPECT_FALSE(m.busy());  // Future start: the air is still silent.
  sched.run_cycles(500 + lat - 1);
  EXPECT_FALSE(m.cca_busy());  // Perceived window opens at start+latency...
  sched.run_cycles(1);
  EXPECT_TRUE(m.cca_busy());
  sched.run_cycles(900 - 500);  // ...and closes at end+latency.
  EXPECT_FALSE(m.cca_busy());
  // Pure energy: nothing was delivered and no source stats were touched.
  EXPECT_TRUE(sink.frames.empty());
  EXPECT_EQ(m.source(77).frames, 0u);
  EXPECT_EQ(m.collided_frames(), 0u);
}

TEST_F(RemoteCarrierTest, ImageJamsOverlappingLocalTransmissionCountedOnce) {
  ContendedMedium& m = make();
  const Cycle end = m.begin_tx(pattern_frame(300, 3), 1);
  m.begin_remote_tx(/*start=*/end / 2, /*end=*/end + 50, /*source=*/77);
  sched.run_cycles(end + m.cca_latency_cycles() + 60);
  // The local frame collided with foreign energy and was withheld; the
  // image itself is the neighbour cell's to count.
  EXPECT_TRUE(sink.frames.empty());
  EXPECT_EQ(m.collided_frames(), 1u);
  EXPECT_EQ(m.dropped_frames(), 1u);
  EXPECT_EQ(m.source(1).collisions, 1u);
  EXPECT_EQ(m.source(77).frames, 0u);
  EXPECT_EQ(m.source(77).collisions, 0u);
}

TEST_F(RemoteCarrierTest, LocalFrameEndingBeforeTheImageStartsIsUntouched) {
  ContendedMedium& m = make();
  const Bytes f = pattern_frame(120, 5);
  const Cycle end = m.begin_tx(f, 1);
  // Overlap verdicts are interval arithmetic: an image injected *now* but
  // starting after the local frame's last bit must not jam it.
  m.begin_remote_tx(/*start=*/end + 100, /*end=*/end + 600, /*source=*/77);
  sched.run_cycles(end + 700 + m.cca_latency_cycles());
  ASSERT_EQ(sink.frames.size(), 1u);
  EXPECT_EQ(sink.frames[0], f);
  EXPECT_EQ(m.collided_frames(), 0u);
}

TEST_F(RemoteCarrierTest, OccupancyAcrossTheSilentGapIsExactWhenTicked) {
  ContendedMedium& m = make();
  m.begin_remote_tx(/*start=*/500, /*end=*/700, /*source=*/77);
  sched.set_idle_skip(false);
  sched.run_cycles(1'000);
  // The tx_end_ high-watermark would have bridged [0, 500) as busy; the
  // remote-aware occupancy scan must count the 200 on-air cycles only.
  EXPECT_EQ(m.busy_cycles(), 200u);
}

TEST_F(RemoteCarrierTest, OccupancyAcrossTheSilentGapIsExactWhenSkipped) {
  ContendedMedium& m = make();
  m.begin_remote_tx(/*start=*/500, /*end=*/700, /*source=*/77);
  sched.run_cycles(1'000);
  EXPECT_EQ(m.busy_cycles(), 200u);  // skip_idle's union sweep, same answer.
  EXPECT_GT(sched.profile().ticks_skipped, 0u);  // And it really did skip.
}

TEST_F(RemoteCarrierTest, RejectsCaptureAndPastStartsAndPointToPoint) {
  ContendedMedium::Params cap;
  cap.capture_preamble_us = 5.0;
  ContendedMedium& m = make(cap);
  // Capture verdicts depend on processing order; window-edge exchange
  // deliberately gives that order up.
  EXPECT_THROW(m.begin_remote_tx(0, 100, 77), std::logic_error);

  ContendedMedium plain(mac::Protocol::WiFi, tb, {});
  sim::Scheduler s2(200e6);
  s2.add(plain, "m2", sim::Scheduler::kStageMedium);
  s2.run_cycles(100);
  EXPECT_THROW(plain.begin_remote_tx(50, 200, 77), std::logic_error);  // Past.
  EXPECT_THROW(plain.begin_remote_tx(300, 300, 77), std::logic_error);  // Empty.

  phy::Medium p2p(mac::Protocol::WiFi, tb);
  EXPECT_THROW(p2p.begin_remote_tx(0, 100, 77), std::logic_error);
}

// ---- ChannelCoupler forwarding -------------------------------------------

class CouplerTest : public ::testing::Test {
 protected:
  CouplerTest() : tb(200e6), sched(200e6) {}

  /// Two co-channel media on one scheduler — the reference-shape harness.
  void build(ChannelCoupler::Params p) {
    a = std::make_unique<ContendedMedium>(mac::Protocol::WiFi, tb);
    b = std::make_unique<ContendedMedium>(mac::Protocol::WiFi, tb);
    a->attach(sink_a);
    b->attach(sink_b);
    sched.add(*a, "a", sim::Scheduler::kStageMedium);
    sched.add(*b, "b", sim::Scheduler::kStageMedium);
    coupler = std::make_unique<ChannelCoupler>(std::move(p));
    coupler->attach(/*member=*/0, /*band=*/0, *a);
    coupler->attach(/*member=*/1, /*band=*/0, *b);
  }

  sim::TimeBase tb;
  sim::Scheduler sched;
  std::unique_ptr<ContendedMedium> a, b;
  std::unique_ptr<ChannelCoupler> coupler;
  Sink sink_a, sink_b;
};

TEST_F(CouplerTest, ImmediateModeMirrorsWithTheLatencyShift) {
  ChannelCoupler::Params p;
  p.latency = 250;
  p.immediate = true;
  build(std::move(p));
  const Cycle end = a->begin_tx(pattern_frame(200, 9), 1);
  EXPECT_EQ(coupler->forwarded(), 1u);
  EXPECT_EQ(b->remote_txs(), 1u);
  EXPECT_FALSE(b->busy());  // The image starts 250 cycles out.
  const Cycle lat = b->cca_latency_cycles();
  sched.run_cycles(250 + lat);
  EXPECT_TRUE(b->cca_busy());
  sched.run_cycles(end + 250 + lat);
  EXPECT_FALSE(b->cca_busy());
  EXPECT_TRUE(sink_b.frames.empty());  // Energy crossed cells; data did not.
  EXPECT_EQ(a->remote_txs(), 0u);      // No echo back into the source cell.
}

TEST_F(CouplerTest, LaxModeQueuesUntilExchange) {
  ChannelCoupler::Params p;
  p.latency = 400;
  build(std::move(p));
  a->begin_tx(pattern_frame(200, 9), 1);
  b->begin_tx(pattern_frame(200, 4), 2);
  EXPECT_EQ(coupler->forwarded(), 0u);  // Outboxed, not yet visible.
  EXPECT_EQ(a->remote_txs(), 0u);
  EXPECT_EQ(b->remote_txs(), 0u);
  coupler->exchange();
  EXPECT_EQ(coupler->forwarded(), 2u);
  EXPECT_EQ(a->remote_txs(), 1u);
  EXPECT_EQ(b->remote_txs(), 1u);
  coupler->exchange();  // Outboxes drained: a second edge forwards nothing.
  EXPECT_EQ(coupler->forwarded(), 2u);
}

TEST_F(CouplerTest, ReachGatesForwardingPerDirection) {
  ChannelCoupler::Params p;
  p.immediate = true;
  p.reach = AudibilityMatrix::asymmetric_pair(2, /*heard=*/1, /*deaf=*/0);
  build(std::move(p));
  // Cell 1 hears cell 0; cell 0 is deaf to cell 1 (one-way asymmetry).
  a->begin_tx(pattern_frame(100, 1), 1);
  EXPECT_EQ(b->remote_txs(), 1u);
  b->begin_tx(pattern_frame(100, 2), 2);
  EXPECT_EQ(a->remote_txs(), 0u);
  EXPECT_EQ(coupler->forwarded(), 1u);
}

TEST_F(CouplerTest, ConstructionGuards) {
  EXPECT_THROW(ChannelCoupler({/*latency=*/0, {}, false}), std::invalid_argument);
  ChannelCoupler::Params p;
  p.immediate = true;
  build(std::move(p));
  ChannelCoupler other({/*latency=*/1, {}, true});
  // One coupler per medium: the on_tx tap is already taken.
  EXPECT_THROW(other.attach(0, 0, *a), std::logic_error);
}

}  // namespace
}  // namespace drmp::net

// ---- Engine-level coupling contracts -------------------------------------

namespace drmp::scenario {
namespace {

FleetStats run_coupled(std::size_t cells, std::size_t stations, bool reference,
                       unsigned workers, bool idle_skip, u32 msdus = 3) {
  ScenarioSpec spec =
      ScenarioSpec::coupled_wifi_cells(cells, stations, /*seed=*/11, msdus);
  spec.coupled_reference = reference;
  spec.worker_threads = workers;
  spec.idle_skip = idle_skip;
  return ScenarioEngine(std::move(spec)).run();
}

TEST(MultiCell, ReferenceCouplingProducesInterCellCollisions) {
  // One station plus its AP per cell: intra-cell contention has a single
  // contender, so every collided frame was jammed by the neighbour cell's
  // carrier leaking across the coupling. The conventional single-scheduler
  // reference must show the physics before the lax path is measured
  // against it.
  const FleetStats fs = run_coupled(2, 1, /*reference=*/true, 1, true,
                                    /*msdus=*/6);
  ASSERT_TRUE(fs.all_drained);
  EXPECT_EQ(fs.cells.size(), 2u);
  EXPECT_GT(fs.total_collisions(), 0u) << fs.report();
  // The retry machinery recovers every inter-cell loss.
  for (const DeviceStats& ds : fs.devices) {
    EXPECT_EQ(ds.completed[0], ds.offered[0]) << "station " << ds.station_id;
  }
}

TEST(MultiCell, LaxCouplingMatchesReferenceAcrossWorkersAndIdleSkip) {
  // The tentpole pin: window-edge exchange with free-running lanes inside
  // the audibility horizon is bit-identical to immediate injection on one
  // shared clock — across worker pools and quiescence skipping.
  const FleetStats ref = run_coupled(2, 2, /*reference=*/true, 1, true);
  ASSERT_TRUE(ref.all_drained);
  EXPECT_GT(ref.total_collisions(), 0u);
  for (const unsigned workers : {1u, 0u}) {
    for (const bool idle_skip : {true, false}) {
      const FleetStats lax =
          run_coupled(2, 2, /*reference=*/false, workers, idle_skip);
      EXPECT_EQ(ref.full_digest(), lax.full_digest())
          << "workers=" << workers << " idle_skip=" << idle_skip;
    }
  }
  const FleetStats lax = run_coupled(2, 2, /*reference=*/false, 1, true);
  EXPECT_EQ(ref.report(), lax.report());
}

TEST(MultiCell, AllZerosReachIsBitIdenticalToNoCouplingAtAll) {
  // Full spatial reuse: a coupling whose reach has no off-diagonal hearing
  // must leave no trace — same digests as the identical spec with the
  // coupling erased.
  net::AudibilityMatrix silent = net::AudibilityMatrix::full(2);
  silent.hide_pair(0, 1);
  ScenarioSpec coupled =
      ScenarioSpec::coupled_wifi_cells(2, 2, /*seed=*/11, 3, silent);
  ScenarioSpec isolated = coupled;
  isolated.couplings.clear();
  for (CellSpec& c : isolated.cells) c.coupling_group = -1;
  const FleetStats a = ScenarioEngine(std::move(coupled)).run();
  const FleetStats b = ScenarioEngine(std::move(isolated)).run();
  EXPECT_EQ(a.full_digest(), b.full_digest());
  EXPECT_EQ(a.report(), b.report());
  EXPECT_EQ(a.total_collisions(), 0u);  // Single contender per cell, no leak.
}

TEST(MultiCell, StrideIsClampedToTheCouplingHorizon) {
  ScenarioSpec spec = ScenarioSpec::coupled_wifi_cells(2, 1);
  ASSERT_EQ(spec.lockstep_stride, sim::MultiScheduler::kDefaultStride);
  ScenarioEngine engine(std::move(spec));
  // 2 us of inter-cell latency at the 200 MHz architecture clock.
  EXPECT_EQ(engine.effective_stride(), 400u);
}

TEST(MultiCell, MalformedCouplingSpecsFailAtConstruction) {
  {  // coupling_group out of range of ScenarioSpec::couplings.
    ScenarioSpec s = ScenarioSpec::contended_wifi_cell(2);
    s.cells[0].coupling_group = 0;
    EXPECT_THROW(ScenarioEngine{std::move(s)}, std::invalid_argument);
  }
  {  // A group needs at least two member cells.
    ScenarioSpec s = ScenarioSpec::contended_wifi_cell(2);
    s.couplings.emplace_back();
    s.cells[0].coupling_group = 0;
    EXPECT_THROW(ScenarioEngine{std::move(s)}, std::invalid_argument);
  }
  {  // Point-to-point cells cannot carry foreign carrier.
    ScenarioSpec s = ScenarioSpec::mixed_three_standard(2);
    s.couplings.emplace_back();
    for (CellSpec& c : s.cells) c.coupling_group = 0;
    EXPECT_THROW(ScenarioEngine{std::move(s)}, std::invalid_argument);
  }
  {  // The reach matrix must cover exactly the member cells.
    ScenarioSpec s = ScenarioSpec::coupled_wifi_cells(
        2, 1, 1, 3, net::AudibilityMatrix::full(3));
    EXPECT_THROW(ScenarioEngine{std::move(s)}, std::invalid_argument);
  }
  {  // Capture verdicts are order-dependent; coupling forbids them.
    ScenarioSpec s = ScenarioSpec::coupled_wifi_cells(2, 1);
    s.cells[0].contention.capture_preamble_us = 5.0;
    EXPECT_THROW(ScenarioEngine{std::move(s)}, std::invalid_argument);
  }
  {  // A connected coupling needs a positive latency.
    ScenarioSpec s = ScenarioSpec::coupled_wifi_cells(2, 1);
    s.couplings[0].latency_us = 0.0;
    EXPECT_THROW(ScenarioEngine{std::move(s)}, std::invalid_argument);
  }
}

}  // namespace
}  // namespace drmp::scenario
