// net::ContendedMedium unit tests: overlap semantics (collision marking,
// drop vs garbled delivery), carrier-sense detection latency (the collision
// window), the capture effect, per-source airtime/collision accounting, the
// point-to-point backend's defined hard error on overlap (which used to be
// a Debug-only assert), and the hidden-node machinery: per-station
// audibility matrices, per-listener CCA/collision/delivery, and the NAV +
// RTS/CTS rescue of the classic hidden-pair topology.
#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>

#include "net/audibility.hpp"
#include "net/contended_medium.hpp"
#include "scenario/scenario_engine.hpp"
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

class ContendedMediumTest : public ::testing::Test {
 protected:
  ContendedMediumTest() : tb(200e6), sched(200e6) {}

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

TEST_F(ContendedMediumTest, CleanTransmissionDeliversIntactWithAirtime) {
  ContendedMedium& m = make();
  const Bytes f = pattern_frame(100, 7);
  const Cycle end = m.begin_tx(f, 1);
  sched.run_cycles(end + 2);
  ASSERT_EQ(sink.frames.size(), 1u);
  EXPECT_EQ(sink.frames[0], f);
  EXPECT_EQ(sink.sources[0], 1);
  EXPECT_EQ(m.collided_frames(), 0u);
  const auto ss = m.source(1);
  EXPECT_EQ(ss.frames, 1u);
  EXPECT_EQ(ss.collisions, 0u);
  EXPECT_EQ(ss.airtime, m.frame_air_cycles(f.size()));
}

TEST_F(ContendedMediumTest, CcaDetectsCarrierOnlyAfterLatency) {
  ContendedMedium& m = make();
  const Cycle latency = m.cca_latency_cycles();
  ASSERT_GT(latency, 0u);  // WiFi default: one 20 us slot.
  m.begin_tx(pattern_frame(400, 1), 1);
  EXPECT_TRUE(m.busy());        // Ground truth: instantly on the air.
  EXPECT_FALSE(m.cca_busy());   // ... but not yet audible.
  sched.run_cycles(latency - 1);
  EXPECT_FALSE(m.cca_busy());
  sched.run_cycles(1);
  EXPECT_TRUE(m.cca_busy());  // Audible exactly at the latency boundary.
  EXPECT_EQ(m.cca_idle_for(), 0u);
}

TEST_F(ContendedMediumTest, OverlapCollidesAllPartiesAndDropsFrames) {
  ContendedMedium& m = make();
  m.begin_tx(pattern_frame(300, 2), 1);
  sched.run_cycles(100);  // Inside the collision window.
  const Cycle end2 = m.begin_tx(pattern_frame(300, 9), 2);
  sched.run_cycles(end2);
  EXPECT_TRUE(sink.frames.empty());  // Receivers saw only noise.
  EXPECT_EQ(m.collided_frames(), 2u);
  EXPECT_EQ(m.dropped_frames(), 2u);
  EXPECT_EQ(m.source(1).collisions, 1u);
  EXPECT_EQ(m.source(2).collisions, 1u);
  // Airtime is still accounted: the channel was physically occupied.
  EXPECT_GT(m.source(1).airtime, 0u);
  EXPECT_GT(m.source(2).airtime, 0u);
}

TEST_F(ContendedMediumTest, GarbledModeDeliversDamagedFrames) {
  ContendedMedium::Params p;
  p.deliver_garbled = true;
  ContendedMedium& m = make(p);
  const Bytes a = pattern_frame(200, 3);
  const Bytes b = pattern_frame(200, 11);
  m.begin_tx(a, 1);
  sched.run_cycles(50);
  const Cycle end2 = m.begin_tx(b, 2);
  sched.run_cycles(end2);
  ASSERT_EQ(sink.frames.size(), 2u);  // Delivered, but bit-damaged.
  EXPECT_NE(sink.frames[0], a);
  EXPECT_NE(sink.frames[1], b);
  EXPECT_EQ(m.garbled_frames(), 2u);
  EXPECT_EQ(m.dropped_frames(), 0u);
}

TEST_F(ContendedMediumTest, CaptureProtectsEstablishedFrame) {
  ContendedMedium::Params p;
  p.capture_preamble_us = 5.0;  // 1000 cycles at 200 MHz.
  ContendedMedium& m = make(p);
  const Bytes a = pattern_frame(400, 4);
  m.begin_tx(a, 1);
  sched.run_cycles(2000);  // Receivers locked onto a's preamble long ago.
  const Cycle end2 = m.begin_tx(pattern_frame(400, 12), 2);
  sched.run_cycles(end2);
  ASSERT_EQ(sink.frames.size(), 1u);  // a survived; the newcomer is lost.
  EXPECT_EQ(sink.frames[0], a);
  EXPECT_EQ(m.capture_wins(), 1u);
  EXPECT_EQ(m.collided_frames(), 1u);  // Only the late interferer.
  EXPECT_EQ(m.source(1).collisions, 0u);
  EXPECT_EQ(m.source(2).collisions, 1u);
}

TEST_F(ContendedMediumTest, LateStartWithinCaptureWindowKillsBoth) {
  ContendedMedium::Params p;
  p.capture_preamble_us = 5.0;
  ContendedMedium& m = make(p);
  m.begin_tx(pattern_frame(400, 4), 1);
  sched.run_cycles(500);  // Still inside a's preamble: no lock yet.
  const Cycle end2 = m.begin_tx(pattern_frame(400, 12), 2);
  sched.run_cycles(end2);
  EXPECT_TRUE(sink.frames.empty());
  EXPECT_EQ(m.collided_frames(), 2u);
  EXPECT_EQ(m.capture_wins(), 0u);
}

TEST_F(ContendedMediumTest, TamperStillAppliesToSurvivingFrames) {
  ContendedMedium& m = make();
  m.tamper = [](Bytes& f) {
    f[0] ^= 0xFF;
    return true;
  };
  const Bytes f = pattern_frame(120, 5);
  const Cycle end = m.begin_tx(f, 1);
  sched.run_cycles(end + 1);
  ASSERT_EQ(sink.frames.size(), 1u);
  EXPECT_NE(sink.frames[0], f);
  EXPECT_EQ(m.tampered_frames(), 1u);
}

TEST(PointToPointMedium, OverlapIsAHardErrorInEveryBuildType) {
  // Satellite of the contention work: the old assert(!busy()) compiled out
  // under NDEBUG and let Release builds overwrite an in-flight frame. The
  // point-to-point backend now throws in all build types.
  sim::TimeBase tb(200e6);
  phy::Medium m(mac::Protocol::WiFi, tb);
  m.begin_tx(Bytes(100, 0xAB), 1);
  EXPECT_TRUE(m.busy());
  EXPECT_THROW(m.begin_tx(Bytes(50, 0xCD), 2), std::logic_error);
}

TEST(PointToPointMedium, CcaViewMatchesGroundTruth) {
  sim::TimeBase tb(200e6);
  sim::Scheduler sched(200e6);
  phy::Medium m(mac::Protocol::WiFi, tb);
  sched.add(m, "medium", sim::Scheduler::kStageMedium);
  EXPECT_FALSE(m.cca_busy());
  const Cycle end = m.begin_tx(Bytes(64, 0x11), 1);
  EXPECT_TRUE(m.cca_busy());  // No detection latency on point-to-point.
  sched.run_cycles(end + 3);
  EXPECT_FALSE(m.cca_busy());
  EXPECT_EQ(m.cca_idle_for(), m.idle_for());
}

TEST(ContendedMedium, SkipIdleReproducesPerTickAccounting) {
  // Two staggered transmissions in every-tick mode vs with idle-skip on
  // (which sleeps the medium between its events and settles it when the
  // run returns): occupancy, per-source airtime and the CCA latch must come
  // out bit-identical.
  sim::TimeBase tb(200e6);
  auto run = [&](bool skip) {
    sim::Scheduler sched(200e6);
    sched.set_idle_skip(skip);
    ContendedMedium m(mac::Protocol::WiFi, tb);
    sched.add(m, "medium", sim::Scheduler::kStageMedium);
    const Cycle end1 = m.begin_tx(Bytes(400, 0x22), 1);
    sched.run_cycles(end1 / 2);
    m.begin_tx(Bytes(200, 0x33), 2);  // Overlap: both collide.
    const Cycle tail = end1 + m.cca_latency_cycles() + 64;
    sched.run_cycles(tail);
    sim::Digest d;
    d.mix(m.busy_cycles())
        .mix(m.collided_frames())
        .mix(m.dropped_frames())
        .mix(m.source(1).airtime)
        .mix(m.source(2).airtime)
        .mix(m.cca_busy() ? 1 : 0)
        .mix(m.cca_idle_for())
        .mix(m.now());
    return d.value();
  };
  EXPECT_EQ(run(false), run(true));
}

// ---- Audibility matrices (hidden nodes) ---------------------------------

TEST(AudibilityMatrix, TrivialDefaultHearsEverything) {
  AudibilityMatrix m;
  EXPECT_TRUE(m.trivial());
  EXPECT_TRUE(m.hears(0, 5));
  EXPECT_TRUE(m.hears(63, 63));
}

TEST(AudibilityMatrix, FactoriesShapeTheFootprints) {
  const AudibilityMatrix full = AudibilityMatrix::full(4);
  EXPECT_FALSE(full.trivial());
  EXPECT_TRUE(full.all_ones());

  const AudibilityMatrix hidden = AudibilityMatrix::hidden_pair(4, 0, 1);
  EXPECT_FALSE(hidden.hears(0, 1));
  EXPECT_FALSE(hidden.hears(1, 0));
  EXPECT_TRUE(hidden.hears(0, 2));
  EXPECT_TRUE(hidden.hears(2, 1));
  EXPECT_TRUE(hidden.hears(0, 0)) << "the diagonal must stay 1";

  const AudibilityMatrix chain = AudibilityMatrix::chain(4);
  EXPECT_TRUE(chain.hears(1, 2));
  EXPECT_TRUE(chain.hears(2, 2));
  EXPECT_FALSE(chain.hears(0, 2));
  EXPECT_FALSE(chain.hears(3, 1));
  // Out-of-range participants (the AP) are omnidirectional.
  EXPECT_TRUE(chain.hears(0, 99));
  EXPECT_TRUE(chain.hears(99, 3));
}

TEST_F(ContendedMediumTest, HiddenStationCcaStaysSilent) {
  ContendedMedium::Params p;
  p.audibility = AudibilityMatrix::chain(3);  // 1-2, 2-3 adjacent; 1-3 deaf.
  ContendedMedium& m = make(p);
  m.map_station(1, 0);
  m.map_station(2, 1);
  m.map_station(3, 2);
  m.begin_tx(pattern_frame(400, 1), 1);
  sched.run_cycles(m.cca_latency_cycles() + 4);
  EXPECT_TRUE(m.cca_busy()) << "global (omni) view hears everything";
  EXPECT_TRUE(m.cca_busy(2)) << "adjacent station hears it";
  EXPECT_FALSE(m.cca_busy(3)) << "hidden station's CCA stays silent";
  EXPECT_GT(m.cca_idle_for(3), 0u);
  EXPECT_EQ(m.cca_idle_for(2), 0u);
  EXPECT_GT(m.cca_clear_at(2), m.cca_clear_at(3));
}

TEST_F(ContendedMediumTest, CollisionIsAPropertyOfTheReceiver) {
  // Chain 1-2-3: stations 1 and 3 are mutually hidden and transmit over
  // each other. The middle listener (and the omni sink) sit in both
  // footprints and lose both frames; a listener that only hears station 1
  // receives its frame clean.
  ContendedMedium::Params p;
  p.audibility = AudibilityMatrix::chain(3);
  ContendedMedium& m = make(p);  // Attaches `sink` unmapped -> omni.
  m.map_station(1, 0);
  m.map_station(2, 1);
  m.map_station(3, 2);
  Sink mid, edge;
  m.attach(mid, 2);   // Matrix row 1: hears both transmitters.
  m.attach(edge, 1);  // Matrix row 0: hears station 1 (and 2) only.

  const Bytes a = pattern_frame(300, 2);
  m.begin_tx(a, 1);
  sched.run_cycles(100);  // Inside the collision window.
  const Cycle end2 = m.begin_tx(pattern_frame(300, 9), 3);
  sched.run_cycles(end2 + m.cca_latency_cycles() + 2);

  EXPECT_TRUE(sink.frames.empty()) << "omni receiver saw only noise";
  EXPECT_TRUE(mid.frames.empty()) << "both footprints -> collision";
  ASSERT_EQ(edge.frames.size(), 1u) << "single footprint -> clean delivery";
  EXPECT_EQ(edge.frames[0], a);
  EXPECT_EQ(m.collided_frames(), 2u);
  EXPECT_EQ(m.source(1).collisions, 1u);
  EXPECT_EQ(m.source(3).collisions, 1u);
  EXPECT_EQ(m.collided_airtime(),
            2 * m.frame_air_cycles(300));  // Both frames' air was wasted.
}

TEST_F(ContendedMediumTest, HiddenTransmitterDoesNotJamDisjointFootprint) {
  // Stations 1 and 3 hidden; NO omni receiver in both footprints either:
  // delivery filtering still applies per listener.
  ContendedMedium::Params p;
  p.audibility = AudibilityMatrix::chain(3);
  p.deliver_garbled = true;
  ContendedMedium& m = make(p);
  m.map_station(1, 0);
  m.map_station(2, 1);
  m.map_station(3, 2);
  Sink edge;
  m.attach(edge, 1);  // Hears station 1 only.
  m.begin_tx(pattern_frame(200, 3), 1);
  sched.run_cycles(50);
  const Cycle end2 = m.begin_tx(pattern_frame(200, 11), 3);
  sched.run_cycles(end2 + m.cca_latency_cycles() + 2);
  // The omni `sink` (both footprints) got garbled copies; `edge` got
  // station 1's frame intact.
  ASSERT_EQ(edge.frames.size(), 1u);
  EXPECT_EQ(edge.frames[0], pattern_frame(200, 3));
  EXPECT_EQ(sink.frames.size(), 2u);
  EXPECT_NE(sink.frames[0], pattern_frame(200, 3));
}

// ---- 64-station contended cell (ROADMAP scale open item) ----------------

// Skewed offered load on one shared WiFi medium: a quarter of the stations
// push double bursts of large MSDUs, a quarter trickle small ones, the rest
// run the canonical shape.
scenario::ScenarioSpec skewed_64_station_cell(u64 seed) {
  scenario::ScenarioSpec spec =
      scenario::ScenarioSpec::contended_wifi_cell(64, seed,
                                                  /*msdus_per_station=*/1);
  auto& stations = spec.cells[0].stations;
  for (std::size_t i = 0; i < stations.size(); ++i) {
    auto& t = stations[i].traffic[0];
    if (i % 4 == 0) {
      t.msdu_min_bytes = 700;
      t.msdu_max_bytes = 1100;
      t.burst_len = 2;
    } else if (i % 4 == 1) {
      t.msdu_min_bytes = 96;
      t.msdu_max_bytes = 160;
      t.burst_len = 1;
    }
  }
  spec.max_cycles = 900'000'000;
  return spec;
}

TEST(ContendedCell, SixtyFourStationsDrainWithContention) {
  const scenario::FleetStats serial =
      scenario::ScenarioEngine(skewed_64_station_cell(9)).run();
  EXPECT_TRUE(serial.all_drained);
  ASSERT_EQ(serial.devices.size(), 64u);
  ASSERT_EQ(serial.cells.size(), 1u);
  EXPECT_EQ(serial.cells[0].stations, 64u);
  // A 64-deep cell must actually contend...
  EXPECT_GT(serial.total_collisions(), 0u);
  EXPECT_GT(serial.total_defers(), 64u);
  // ...and still complete every station's workload through retry/CW growth.
  for (const scenario::DeviceStats& ds : serial.devices) {
    EXPECT_EQ(ds.completed[0], ds.offered[0]) << "station " << ds.station_id;
  }
  // One scheduler ticking 64 full SoCs is exactly where the ROADMAP said
  // per-cycle ticking becomes intractable; the quiescence scheduler must be
  // doing the heavy lifting here. Idle-skip and worker-pool digest
  // equivalence are pinned at smaller scale (scenario_test), where the
  // every-tick reference run is affordable; a single-cell fleet is one
  // MultiScheduler lane, so a worker-pool rerun would not add coverage.
  EXPECT_GT(serial.skip_ratio(), 10.0);
}

// ---- Hidden-node cells: NAV + RTS/CTS (ROADMAP PR-2 follow-ups) ---------

TEST(HiddenNodeCell, ExplicitAllOnesMatrixReproducesTrivialDigests) {
  // The acceptance pin for the per-listener machinery: an explicit all-ones
  // matrix routes every query through jam masks and footprint filters and
  // must reproduce the historic single-viewpoint digests bit-for-bit.
  scenario::ScenarioSpec trivial = scenario::ScenarioSpec::contended_wifi_cell(4, 1, 3);
  scenario::ScenarioSpec all_ones = trivial;
  all_ones.cells[0].contention.audibility = AudibilityMatrix::full(4);
  const scenario::FleetStats a = scenario::ScenarioEngine(trivial).run();
  const scenario::FleetStats b = scenario::ScenarioEngine(all_ones).run();
  EXPECT_EQ(a.full_digest(), b.full_digest());
  EXPECT_EQ(a.report(), b.report());
  EXPECT_GT(a.total_collisions(), 0u);  // Same physics, same contention.
}

scenario::FleetStats run_hidden_pair(u32 rts_threshold, unsigned workers,
                                     bool idle_skip) {
  scenario::ScenarioSpec spec = scenario::ScenarioSpec::contended_wifi_topology(
      2, scenario::ScenarioSpec::Reach::kHiddenPair, /*seed=*/7,
      /*msdus_per_station=*/6, rts_threshold);
  spec.worker_threads = workers;
  spec.idle_skip = idle_skip;
  return scenario::ScenarioEngine(std::move(spec)).run();
}

TEST(HiddenNodeCell, RtsCtsRescuesTheHiddenPair) {
  // The textbook result. Without the handshake two mutually-deaf stations
  // carrier-sense nothing and pile their aligned bursts onto each other at
  // the AP; with every MSDU RTS-protected, only the short RTS frames risk
  // colliding and the AP's CTS arms the other station's NAV across the
  // protected exchange.
  const scenario::FleetStats off = run_hidden_pair(/*rts_threshold=*/0, 1, true);
  const scenario::FleetStats on = run_hidden_pair(/*rts_threshold=*/1, 1, true);
  ASSERT_TRUE(off.all_drained);
  ASSERT_TRUE(on.all_drained);
  EXPECT_GT(off.total_collisions(), 0u) << "hidden pair must collide without RTS";
  EXPECT_GE(off.total_collisions(), 5 * on.total_collisions())
      << "RTS/CTS must cut collisions at least 5x (off=" << off.total_collisions()
      << " on=" << on.total_collisions() << ")";
  // The rescue mechanism itself: overheard CTS durations armed the NAV and
  // the access RFU deferred on it with silent CCA.
  EXPECT_GT(on.total_nav_defers(), 0u);
  // Every MSDU still completes (retry/CW machinery recovers the losses).
  for (const scenario::DeviceStats& ds : off.devices) {
    EXPECT_EQ(ds.completed[0], ds.offered[0]) << "station " << ds.station_id;
  }
  for (const scenario::DeviceStats& ds : on.devices) {
    EXPECT_EQ(ds.completed[0], ds.offered[0]) << "station " << ds.station_id;
  }
  // With the handshake on, the protected data frames get through: higher
  // success rate than the unprotected pile-up.
  u64 ok_on = 0, ok_off = 0;
  for (const auto& ds : on.devices) ok_on += ds.tx_ok[0];
  for (const auto& ds : off.devices) ok_off += ds.tx_ok[0];
  EXPECT_GE(ok_on, ok_off);
}

TEST(HiddenNodeCell, DigestsInvariantAcrossWorkersAndIdleSkip) {
  // The NAV wake edges and per-listener sleep bounds ride the PR-3
  // quiescence contract: worker pools and idle-skip must not perturb a
  // hidden-node cell's timeline.
  const scenario::FleetStats serial = run_hidden_pair(1, 1, true);
  const scenario::FleetStats pool = run_hidden_pair(1, 0, true);
  const scenario::FleetStats ticked = run_hidden_pair(1, 1, false);
  EXPECT_EQ(serial.full_digest(), pool.full_digest());
  EXPECT_EQ(serial.full_digest(), ticked.full_digest());
  EXPECT_EQ(serial.report(), ticked.report());
}

// ---- Asymmetric audibility (ROADMAP: "A hears B, B deaf to A") ----------

TEST(AudibilityMatrix, AsymmetricPairIsOneWay) {
  const AudibilityMatrix m = AudibilityMatrix::asymmetric_pair(3, 0, 1);
  EXPECT_FALSE(m.hears(1, 0)) << "the deaf side cannot hear the heard side";
  EXPECT_TRUE(m.hears(0, 1)) << "the heard side still hears the deaf side";
  EXPECT_TRUE(m.hears(1, 1)) << "the diagonal must stay 1";
  EXPECT_TRUE(m.hears(2, 0));
  EXPECT_TRUE(m.hears(2, 1));
}

scenario::FleetStats run_asymmetric(u32 rts_threshold, bool eifs, bool deliver_garbled) {
  scenario::ScenarioSpec spec = scenario::ScenarioSpec::contended_wifi_topology(
      2, scenario::ScenarioSpec::Reach::kAsymmetric, /*seed=*/7,
      /*msdus_per_station=*/6, rts_threshold);
  spec.cells[0].contention.deliver_garbled = deliver_garbled;
  for (auto& d : spec.cells[0].stations) {
    d.cfg.modes[0].ident.eifs_enabled = eifs;
  }
  return scenario::ScenarioEngine(std::move(spec)).run();
}

TEST(AsymmetricCell, DeafSideCollidesAndRtsCtsRecovers) {
  // Station 1 is deaf to station 0: its CCA runs straight through 0's
  // frames and it transmits over them — one-way hidden-node damage the
  // symmetric hidden pair cannot express. The AP's CTS is omnidirectional,
  // so the RTS/CTS handshake arms the deaf side's NAV and recovers it.
  const scenario::FleetStats off = run_asymmetric(/*rts_threshold=*/0, false, false);
  const scenario::FleetStats on = run_asymmetric(/*rts_threshold=*/1, false, false);
  ASSERT_TRUE(off.all_drained);
  ASSERT_TRUE(on.all_drained);
  EXPECT_GT(off.total_collisions(), 0u) << "the one-way gap must collide";
  EXPECT_GT(off.total_collisions(), 2 * on.total_collisions())
      << "RTS/CTS must recover the asymmetric link (off=" << off.total_collisions()
      << " on=" << on.total_collisions() << ")";
  EXPECT_GT(on.total_nav_defers(), 0u)
      << "the rescue must come through the deaf side's NAV";
  for (const scenario::DeviceStats& ds : off.devices) {
    EXPECT_EQ(ds.completed[0], ds.offered[0]) << "station " << ds.station_id;
  }
}

TEST(AsymmetricCell, EifsEngagesOnTheGarbledPileUps) {
  // With garbled delivery the hearing station receives the pile-ups as
  // FCS-failed frames; honouring EIFS it backs off the extra SIFS + ACK
  // air before re-contending. The workload must still drain.
  const scenario::FleetStats fs =
      run_asymmetric(/*rts_threshold=*/0, /*eifs=*/true, /*deliver_garbled=*/true);
  ASSERT_TRUE(fs.all_drained);
  EXPECT_GT(fs.total_collisions(), 0u);
  EXPECT_GT(fs.total_eifs_waits(), 0u)
      << "garbled receptions must stretch some pre-contention waits";
}

// ---- Perishable-response expiries must never strand a NAV ---------------

TEST(ExpiredResponses, ExpiriesAreCountedByKindAndStrandNoNav) {
  // Crossed grants on the mirrored pair (both stations RTS at once, both
  // answer CTS) are where perishable responses actually die: the exchange
  // falls back to the initiator's timeout, and any reservation the dead
  // response's exchange armed must simply run out — never outlive the
  // largest announceable Duration.
  // Two stations, seed 7, six 1-fragment MSDUs each, RTS before every MSDU.
  scenario::ScenarioSpec spec = scenario::ScenarioSpec::contended_wifi_cell(2, 7, 6, 1);
  spec.cells[0].access_point = false;  // Mirrored two-device topology.
  for (auto& d : spec.cells[0].stations) {
    d.cfg.modes[0].ident.nav_enabled = true;
    d.traffic[0].msdu_min_bytes = 700;
    d.traffic[0].msdu_max_bytes = 1000;
    d.traffic[0].burst_len = 1;
    d.traffic[0].max_inflight = 1;
    d.traffic[0].interval_us = 20'000.0;
  }
  const scenario::FleetStats fs = scenario::ScenarioEngine(std::move(spec)).run();
  ASSERT_TRUE(fs.all_drained)
      << "expired responses must leave recovery to the timeout machinery, "
         "not wedge the exchange";
  const sim::TimeBase tb(200e6);
  const Cycle max_reservation = tb.us_to_cycles(65535.0);
  for (const scenario::DeviceStats& ds : fs.devices) {
    EXPECT_EQ(ds.frames_expired,
              ds.expired_acks + ds.expired_ctss + ds.expired_sifs_data)
        << "station " << ds.station_id << ": the by-kind split must cover "
        << "every expiry";
    EXPECT_LE(ds.nav_hangover, max_reservation)
        << "station " << ds.station_id
        << ": a reservation outlived the largest announceable Duration";
    EXPECT_EQ(ds.completed[0], ds.offered[0]) << "station " << ds.station_id;
  }
}

// ---- Settle-on-read: media sleep between events -------------------------

/// Fires scripted local transmissions and foreign-carrier images at fixed
/// cycles, sleeping in between (stage default: after the medium).
class TxScript : public sim::Clockable {
 public:
  struct Action {
    Cycle at;
    int source;
    std::size_t bytes;  ///< 0 = foreign-carrier image instead of a frame.
    Cycle image_len = 0;
  };
  TxScript(phy::Medium& m, std::vector<Action> actions)
      : m_(m), actions_(std::move(actions)) {}

  void tick() override {
    for (; next_ < actions_.size() && actions_[next_].at == now_; ++next_) {
      const Action& a = actions_[next_];
      if (a.bytes > 0) {
        m_.begin_tx(pattern_frame(a.bytes, static_cast<u8>(next_)), a.source);
      } else {
        const Cycle start = m_.now() + 50;
        m_.begin_remote_tx(start, start + a.image_len, a.source);
      }
    }
    ++now_;
  }
  Cycle quiescent_for() const override {
    return next_ < actions_.size() ? actions_[next_].at - now_ : kIdleForever;
  }
  void skip_idle(Cycle n) override { now_ += n; }

 private:
  phy::Medium& m_;
  std::vector<Action> actions_;
  std::size_t next_ = 0;
  Cycle now_ = 0;
};

/// Samples every time-derived medium view each cycle from the observer
/// stage. Never quiescent, so the run never fast-forwards: every sample of
/// a sleeping medium is served by a settle. The view read first rotates
/// each cycle, so a view that forgets to settle reads stale state on the
/// cycles it leads.
class MediumProbe : public sim::Clockable {
 public:
  MediumProbe(const phy::Medium& m, const std::vector<int>& listeners,
              const ContendedMedium* cm, const std::vector<int>& sources) {
    views_.push_back([&m] { return m.now(); });
    views_.push_back([&m] { return Cycle{m.busy()}; });
    views_.push_back([&m] { return m.idle_for(); });
    views_.push_back([&m] { return m.busy_cycles(); });
    views_.push_back([&m] { return Cycle{m.cca_busy()}; });
    views_.push_back([&m] { return m.cca_idle_for(); });
    views_.push_back([&m] { return m.cca_clear_at(); });
    views_.push_back([&m] { return m.cca_busy_onset_at(); });
    for (const int l : listeners) {
      views_.push_back([&m, l] { return Cycle{m.cca_busy(l)}; });
      views_.push_back([&m, l] { return m.cca_idle_for(l); });
      views_.push_back([&m, l] { return m.cca_clear_at(l); });
      views_.push_back([&m, l] { return m.cca_busy_onset_at(l); });
    }
    if (cm != nullptr) {
      for (const int id : sources) {
        views_.push_back([cm, id] { return cm->source(id).airtime; });
      }
    }
  }

  void tick() override {
    const std::size_t n = views_.size();
    for (std::size_t k = 0; k < n; ++k) {
      samples.push_back(views_[(first_ + k) % n]());
    }
    first_ = (first_ + 1) % n;
  }

  std::vector<Cycle> samples;

 private:
  std::vector<std::function<Cycle()>> views_;
  std::size_t first_ = 0;
};

struct LazyMediumRun {
  std::vector<Cycle> samples;
  std::vector<int> delivered_sources;
  u64 medium_executed = 0;
  u64 medium_skipped = 0;
  std::size_t actions = 0;
};

/// kContended: default detection latency, a hidden pair, a foreign image.
enum class LazyMediumKind { kPointToPoint, kContended };

LazyMediumRun run_lazy_medium(LazyMediumKind kind, bool idle_skip) {
  sim::TimeBase tb(200e6);
  sim::Scheduler sched(200e6);
  sched.set_idle_skip(idle_skip);
  std::unique_ptr<phy::Medium> medium;
  ContendedMedium* cm = nullptr;
  std::vector<TxScript::Action> actions;
  if (kind == LazyMediumKind::kPointToPoint) {
    medium = std::make_unique<phy::Medium>(mac::Protocol::WiFi, tb);
    const Cycle air = medium->frame_air_cycles(200);
    actions = {{100, 1, 200}, {100 + air + 500, 2, 64}, {100 + 3 * air, 1, 300}};
  } else {
    // Stations 0 and 2 are hidden from each other; 1 hears both. A slot of
    // detection latency (the WiFi default) keeps perceived edges distinct
    // from air edges.
    ContendedMedium::Params p;
    p.audibility = AudibilityMatrix::full(3);
    p.audibility.hide_pair(0, 2);
    auto owned = std::make_unique<ContendedMedium>(mac::Protocol::WiFi, tb, p);
    for (int id = 0; id < 3; ++id) owned->map_station(id, static_cast<std::size_t>(id));
    EXPECT_GT(owned->cca_latency_cycles(), 0u);
    cm = owned.get();
    medium = std::move(owned);
    const Cycle air = medium->frame_air_cycles(300);
    // Station 2 collides with 0 unheard, a foreign image follows, then a
    // clean frame from 1.
    actions = {{100, 0, 300}, {100 + air / 2, 2, 200}};
    actions.push_back({100 + 2 * air, 7, 0, 5000});
    actions.push_back({100 + 2 * air + 20000, 1, 100});
  }
  Sink sink;
  medium->attach(sink);
  TxScript script(*medium, actions);
  MediumProbe probe(*medium, {phy::Medium::kOmniListener, 0, 1, 2}, cm, {0, 1, 2});
  sched.add(probe, "probe", sim::Scheduler::kStageObserver);
  sched.add(script, "script");
  sched.add(*medium, "medium", sim::Scheduler::kStageMedium);
  // Several run boundaries, none aligned with an event.
  for (int chunk = 0; chunk < 23; ++chunk) sched.run_cycles(7919);
  LazyMediumRun r;
  r.samples = std::move(probe.samples);
  r.delivered_sources = sink.sources;
  r.medium_executed = sched.component_executed(2);  // Registered third.
  r.medium_skipped = sched.component_skipped(2);
  r.actions = actions.size();
  return r;
}

class LazyMedium : public ::testing::TestWithParam<LazyMediumKind> {};

TEST_P(LazyMedium, SettleOnReadMatchesEveryTick) {
  const LazyMediumRun every = run_lazy_medium(GetParam(), false);
  const LazyMediumRun lazy = run_lazy_medium(GetParam(), true);
  ASSERT_EQ(every.samples.size(), lazy.samples.size());
  for (std::size_t i = 0; i < every.samples.size(); ++i) {
    ASSERT_EQ(every.samples[i], lazy.samples[i]) << "sample " << i;
  }
  EXPECT_EQ(every.delivered_sources, lazy.delivered_sources);
  EXPECT_FALSE(lazy.delivered_sources.empty());
  // Not vacuous: the probe's reads of the sleeping medium were served by
  // settles (the probe never sleeps, so nothing was fast-forwarded).
  EXPECT_GT(lazy.medium_skipped, lazy.medium_executed);
}

TEST_P(LazyMedium, ExecutedTicksScaleWithFramesNotCycles) {
  const LazyMediumRun lazy = run_lazy_medium(GetParam(), true);
  const u64 cycles = 23 * 7919;
  EXPECT_EQ(lazy.medium_executed + lazy.medium_skipped, cycles);
  // A begin_tx wake, a delivery, and two perceived-carrier edges per
  // action at most, plus one entry tick per run.
  EXPECT_LE(lazy.medium_executed, 4 * lazy.actions + 23) << "of " << cycles;
}

INSTANTIATE_TEST_SUITE_P(Backends, LazyMedium,
                         ::testing::Values(LazyMediumKind::kPointToPoint,
                                           LazyMediumKind::kContended));

}  // namespace
}  // namespace drmp::net
