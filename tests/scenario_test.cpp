// Scenario-engine tests: fleet determinism (same seed => byte-identical
// aggregate stats), cross-device isolation (a device's results do not depend
// on fleet size), stride-invariant completion counters, and traffic-generator
// arrival shaping.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <string_view>
#include <utility>

#include "mac/traffic_gen.hpp"
#include "scenario/scenario_engine.hpp"
#include "scenario/scenario_spec.hpp"

namespace drmp::scenario {
namespace {

// Small fleet + small workload keeps each engine run in the low millions of
// cycles; the full-size fleets live in bench_scenario_fleet.
ScenarioSpec small_fleet(std::size_t n_devices, u64 seed) {
  ScenarioSpec spec = ScenarioSpec::mixed_three_standard(n_devices, seed,
                                                         /*msdus_per_mode=*/2);
  spec.max_cycles = 30'000'000;
  return spec;
}

TEST(Scenario, MixedFleetDrainsAllThreeStandards) {
  ScenarioEngine engine(small_fleet(3, 7));
  const FleetStats fs = engine.run();
  ASSERT_EQ(fs.devices.size(), 3u);
  EXPECT_TRUE(fs.all_drained);
  std::array<u32, kNumModes> completed{};
  for (const DeviceStats& ds : fs.devices) {
    for (std::size_t m = 0; m < kNumModes; ++m) {
      EXPECT_EQ(ds.completed[m], ds.offered[m]) << "device " << ds.station_id;
      completed[m] += ds.completed[m];
    }
  }
  // The heterogeneous mix exercises WiFi on all devices, WiMAX and UWB on
  // subsets — but every standard sees traffic fleet-wide.
  EXPECT_GT(completed[0], 0u);  // WiFi.
  EXPECT_GT(completed[1], 0u);  // WiMAX.
  EXPECT_GT(completed[2], 0u);  // UWB.
}

TEST(Scenario, SameSeedSameStats) {
  const FleetStats a = ScenarioEngine(small_fleet(3, 42)).run();
  const FleetStats b = ScenarioEngine(small_fleet(3, 42)).run();
  EXPECT_EQ(a.full_digest(), b.full_digest());
  EXPECT_EQ(a.report(), b.report());
}

TEST(Scenario, DifferentSeedDifferentStats) {
  const FleetStats a = ScenarioEngine(small_fleet(3, 1)).run();
  const FleetStats b = ScenarioEngine(small_fleet(3, 2)).run();
  // Different seeds draw different MSDU sizes, so the offered-bytes counters
  // (and hence the digests) must diverge.
  EXPECT_NE(a.completion_digest(), b.completion_digest());
}

// The v1 digests of one run of every ScenarioSpec factory (serial, idle-skip
// on), recorded before the counter table replaced the hand-written mix
// functions. They guard the table's frozen v1 mix order on point-to-point,
// contended, hidden-node, fragmented, coupled and mobility runs. The v2
// digests (v1 plus the kNone rows) were recorded before the components took
// ownership of their busy and occupancy counters.
TEST(Scenario, FactoryDigestsArePinned) {
  using Reach = ScenarioSpec::Reach;
  struct Pin {
    const char* factory;
    ScenarioSpec spec;
    u64 full;
    u64 completion;
    u64 v2;
  };
  const Pin pins[] = {
      {"mixed_three_standard(4,1,1)", ScenarioSpec::mixed_three_standard(4, 1, 1),
       0x7a84b0e323e4d4e6ull, 0x15c6709cfec02aa6ull, 0xeb7995c38001f546ull},
      {"contended_wifi_cell(8,1,2)", ScenarioSpec::contended_wifi_cell(8, 1, 2),
       0x5a0534e5adc9c509ull, 0xea9a94d4d67fc48dull, 0x0665effcd4824446ull},
      {"contended_wifi_topology(6,kHiddenPair,1,2,512)",
       ScenarioSpec::contended_wifi_topology(6, Reach::kHiddenPair, 1, 2, 512),
       0x2dcd369802b49c47ull, 0xde9a1e1c2a9335acull, 0xe64f8b1ba7d42588ull},
      {"contended_wifi_topology(4,kAsymmetric,1,2)",
       ScenarioSpec::contended_wifi_topology(4, Reach::kAsymmetric, 1, 2),
       0x849b80d7226f0236ull, 0xadfdfb18a4f24ed6ull, 0xd160dcaa0160a055ull},
      {"contended_wifi_fragmented(4,true,1,2)",
       ScenarioSpec::contended_wifi_fragmented(4, true, 1, 2), 0x94d4673edc4d7e9eull,
       0x87298af585fed4b6ull, 0xd57beeb7af3df01eull},
      {"coupled_wifi_cells(2,4,1,2)", ScenarioSpec::coupled_wifi_cells(2, 4, 1, 2),
       0x4e8df58b91595708ull, 0x7a072dc288bf3acdull, 0xf7c030f1a47f26f6ull},
      {"mobile_wifi_cell(4,false,true,1,2)",
       ScenarioSpec::mobile_wifi_cell(4, false, true, 1, 2), 0x9397df598e205e5bull,
       0x2d859494ce468636ull, 0x76a31e7078f86f60ull},
      {"roaming_wifi_cells(4)", ScenarioSpec::roaming_wifi_cells(4),
       0xe5e0f85593a08b4dull, 0xd7fd98d9920baf26ull, 0x87eda0a8614a05d9ull},
  };
  for (const Pin& p : pins) {
    ScenarioSpec spec = p.spec;
    spec.worker_threads = 1;
    spec.idle_skip = true;
    const FleetStats fs = ScenarioEngine(std::move(spec)).run();
    EXPECT_TRUE(fs.all_drained) << p.factory;
    EXPECT_EQ(fs.full_digest(), p.full) << p.factory;
    EXPECT_EQ(fs.completion_digest(), p.completion) << p.factory;
    EXPECT_EQ(fs.full_digest_v2(), p.v2) << p.factory;
  }
}

TEST(Scenario, CrossDeviceIsolation) {
  // Device 1's complete statistics are identical whether it runs alone or
  // inside a 4-device fleet: cells share nothing, and per-cell PRNG streams
  // are seeded by device index, not fleet size.
  const FleetStats solo = ScenarioEngine(small_fleet(1, 13)).run();
  const FleetStats fleet = ScenarioEngine(small_fleet(4, 13)).run();
  ASSERT_EQ(solo.devices.size(), 1u);
  ASSERT_EQ(fleet.devices.size(), 4u);
  sim::Digest ds, df;
  solo.devices[0].mix(ds, DigestClass::kNone);
  fleet.devices[0].mix(df, DigestClass::kNone);
  EXPECT_EQ(ds.value(), df.value());
}

TEST(Scenario, DefaultAndUnitStridesCompleteTheSameWork) {
  const FleetStats batched = ScenarioEngine(small_fleet(2, 99)).run();
  ScenarioSpec unit = small_fleet(2, 99);
  unit.lockstep_stride = 1;
  const FleetStats exact = ScenarioEngine(std::move(unit)).run();
  EXPECT_TRUE(batched.all_drained);
  EXPECT_TRUE(exact.all_drained);
  // Completion-coupled counters are invariant to where each lane's clock
  // stops: the default stride overshoots a drained lane by < one stride,
  // stride 1 retires it on its drain cycle like a per-cycle early exit.
  EXPECT_EQ(batched.completion_digest(), exact.completion_digest());
}

TEST(Scenario, WorkerThreadsMatchSerialDigests) {
  // Parallel lockstep is a wall-clock optimisation only: a 4-worker fleet
  // must produce the same bytes as the serial reference.
  ScenarioSpec serial_spec = small_fleet(4, 21);
  ScenarioSpec parallel_spec = small_fleet(4, 21);
  parallel_spec.worker_threads = 4;
  const FleetStats serial = ScenarioEngine(std::move(serial_spec)).run();
  const FleetStats parallel = ScenarioEngine(std::move(parallel_spec)).run();
  EXPECT_EQ(serial.full_digest(), parallel.full_digest());
  EXPECT_EQ(serial.report(), parallel.report());
}

TEST(Scenario, LossyChannelForcesRetriesButEverythingCompletes) {
  ScenarioSpec spec = small_fleet(2, 5);
  spec.channel[0].loss_permille = 250;  // Brutal WiFi band.
  const FleetStats fs = ScenarioEngine(spec).run();
  EXPECT_TRUE(fs.all_drained);
  u64 tampered = 0, retries = 0;
  for (const DeviceStats& ds : fs.devices) {
    tampered += ds.tampered[0];
    retries += ds.retries[0];
    EXPECT_EQ(ds.completed[0], ds.offered[0]);
  }
  EXPECT_GT(tampered, 0u);
  EXPECT_GT(retries, 0u);
}

TEST(Scenario, CleanChannelDeliversEverythingFirstTry) {
  ScenarioSpec spec = small_fleet(2, 5);
  for (auto& ch : spec.channel) ch.loss_permille = 0;
  const FleetStats fs = ScenarioEngine(spec).run();
  EXPECT_TRUE(fs.all_drained);
  for (const DeviceStats& ds : fs.devices) {
    for (std::size_t m = 0; m < kNumModes; ++m) {
      EXPECT_EQ(ds.tx_ok[m], ds.offered[m]) << "device " << ds.station_id;
      EXPECT_EQ(ds.tampered[m], 0u);
    }
  }
}

TEST(Scenario, ReportListsEveryActiveDeviceMode) {
  ScenarioEngine engine(small_fleet(2, 3));
  const FleetStats fs = engine.run();
  const std::string report = fs.report();
  EXPECT_NE(report.find("mixed-three-standard-2"), std::string::npos);
  EXPECT_NE(report.find("digests:"), std::string::npos);
  EXPECT_EQ(report.find("BUDGET EXHAUSTED"), std::string::npos);
}

// ---- Shared-medium (contention) scenarios ------------------------------

TEST(Scenario, ContendedCellSeesCollisionsDefersAndDrains) {
  // The acceptance scenario: four WiFi CSMA stations on one shared medium
  // must actually collide and defer — the contention behaviour the
  // point-to-point fleets could never exhibit — and still drain their
  // workload through the timeout/retry/CW-growth machinery.
  ScenarioSpec spec = ScenarioSpec::contended_wifi_cell(4, 1, 6);
  const FleetStats fs = ScenarioEngine(spec).run();
  EXPECT_TRUE(fs.all_drained);
  ASSERT_EQ(fs.devices.size(), 4u);
  ASSERT_EQ(fs.cells.size(), 1u);
  EXPECT_GT(fs.total_collisions(), 0u);
  EXPECT_GT(fs.total_defers(), 0u);
  EXPECT_GT(fs.cells[0].collided_frames[0], 0u);
  EXPECT_EQ(fs.cells[0].stations, 4u);
  for (const DeviceStats& ds : fs.devices) {
    EXPECT_EQ(ds.completed[0], ds.offered[0]) << "station " << ds.station_id;
    EXPECT_GT(ds.airtime[0], 0u) << "station " << ds.station_id;
  }
  // The access point saw the uplink and acknowledged it.
  EXPECT_GT(fs.cells[0].ap_rx[0], 0u);
  EXPECT_GT(fs.cells[0].ap_acks[0], 0u);
}

TEST(Scenario, ContendedCellDigestsAreReproducible) {
  const FleetStats a = ScenarioEngine(ScenarioSpec::contended_wifi_cell(4, 1, 6)).run();
  const FleetStats b = ScenarioEngine(ScenarioSpec::contended_wifi_cell(4, 1, 6)).run();
  EXPECT_EQ(a.full_digest(), b.full_digest());
  EXPECT_EQ(a.report(), b.report());
}

TEST(Scenario, ContendedCellWorkerThreadsMatchSerial) {
  // worker_threads ∈ {1, 0}: the all-cores run must be byte-identical to the
  // serial reference even when a cell carries contending stations.
  ScenarioSpec serial_spec = ScenarioSpec::contended_wifi_cell(4, 1, 4);
  // Add a second cell so the parallel run actually distributes lanes.
  ScenarioSpec other = ScenarioSpec::mixed_three_standard(2, 1, 2);
  for (auto& c : other.cells) serial_spec.cells.push_back(std::move(c));
  ScenarioSpec parallel_spec = serial_spec;
  parallel_spec.worker_threads = 0;
  const FleetStats serial = ScenarioEngine(std::move(serial_spec)).run();
  const FleetStats parallel = ScenarioEngine(std::move(parallel_spec)).run();
  EXPECT_TRUE(serial.all_drained);
  EXPECT_EQ(serial.full_digest(), parallel.full_digest());
  EXPECT_EQ(serial.report(), parallel.report());
}

TEST(Scenario, MirroredPairReproducesTwoDeviceRtsCtsTopology) {
  // The twodevice_test topology as a first-class scenario: two full DRMP
  // devices on one shared medium, no scripted AP — each end's Event Handler
  // + AckRfu answers the other's RTS with a CTS and its data with an ACK —
  // with the RTS/CTS handshake forced on every MSDU.
  ScenarioSpec spec =
      ScenarioSpec::contended_wifi_cell(2, 5, 2, /*rts_threshold=*/128);
  spec.cells[0].access_point = false;
  const FleetStats fs = ScenarioEngine(spec).run();
  EXPECT_TRUE(fs.all_drained);
  ASSERT_EQ(fs.devices.size(), 2u);
  u32 rts = 0, cts = 0;
  for (const DeviceStats& ds : fs.devices) {
    EXPECT_EQ(ds.completed[0], ds.offered[0]) << "station " << ds.station_id;
    EXPECT_EQ(ds.tx_ok[0], ds.offered[0]) << "station " << ds.station_id;
    rts += ds.rts_sent;
    cts += ds.cts_received;
  }
  EXPECT_GT(rts, 0u);
  EXPECT_GT(cts, 0u);
}

TEST(Scenario, MixedTopologyFleetKeepsCellIsolation) {
  // A point-to-point station's complete statistics are unchanged by a
  // contended cell elsewhere in the fleet: cells share nothing.
  const FleetStats solo = ScenarioEngine(small_fleet(1, 13)).run();
  ScenarioSpec mixed = small_fleet(1, 13);
  ScenarioSpec contended = ScenarioSpec::contended_wifi_cell(3, 13, 2);
  for (auto& c : contended.cells) mixed.cells.push_back(std::move(c));
  mixed.max_cycles = 120'000'000;
  const FleetStats fleet = ScenarioEngine(std::move(mixed)).run();
  ASSERT_EQ(fleet.devices.size(), 4u);
  EXPECT_TRUE(fleet.all_drained);
  sim::Digest ds, df;
  solo.devices[0].mix(ds, DigestClass::kNone);
  fleet.devices[0].mix(df, DigestClass::kNone);
  EXPECT_EQ(ds.value(), df.value());
}

TEST(Scenario, FleetStatsCarryPowerEstimates) {
  ScenarioSpec spec = ScenarioSpec::contended_wifi_cell(2, 3, 2);
  const FleetStats fs = ScenarioEngine(spec).run();
  for (const DeviceStats& ds : fs.devices) {
    EXPECT_GT(ds.power.raw_mw, 0.0);
    EXPECT_GT(ds.power.gated_mw, 0.0);
    EXPECT_GT(ds.power.dvfs_mw, 0.0);
    // The §6.2 argument chain: each technique set strictly reduces power.
    EXPECT_LT(ds.power.gated_mw, ds.power.raw_mw);
    EXPECT_LT(ds.power.dvfs_mw, ds.power.gated_mw);
    EXPECT_GE(ds.power.cpu_activity, 0.0);
    EXPECT_LE(ds.power.cpu_activity, 1.0);
  }
  EXPECT_GT(fs.fleet_raw_mw(), fs.fleet_gated_mw());
  EXPECT_GT(fs.fleet_gated_mw(), fs.fleet_dvfs_mw());
  // Power stays out of the digests (derived floating-point views).
  FleetStats copy = fs;
  copy.devices[0].power.raw_mw += 1000.0;
  EXPECT_EQ(copy.full_digest(), fs.full_digest());
}

// ---- Quiescence-aware scheduling (idle skip) ---------------------------

TEST(Scenario, IdleSkipIsBitIdenticalToEveryTickScheduling) {
  // The acceptance contract of the quiescence scheduler: a fleet mixing
  // point-to-point and contended cells produces byte-identical aggregate
  // stats whether quiescent components are skipped or every component is
  // ticked every cycle.
  ScenarioSpec base = small_fleet(3, 77);
  ScenarioSpec contended = ScenarioSpec::contended_wifi_cell(4, 77, 3);
  for (auto& c : contended.cells) base.cells.push_back(std::move(c));
  base.max_cycles = 120'000'000;
  ScenarioSpec every_tick = base;
  every_tick.idle_skip = false;
  const FleetStats skipped = ScenarioEngine(std::move(base)).run();
  const FleetStats ticked = ScenarioEngine(std::move(every_tick)).run();
  EXPECT_TRUE(skipped.all_drained);
  EXPECT_EQ(skipped.full_digest(), ticked.full_digest());
  EXPECT_EQ(skipped.report(), ticked.report());
  // And the skip path really skipped: this workload is idle-dominated.
  EXPECT_GT(skipped.ticks_skipped, skipped.ticks_executed);
  EXPECT_EQ(ticked.ticks_skipped, 0u);
}

TEST(Scenario, ExecutionPolicyMatrixKeepsOneDigestPerWorkload) {
  // The scheduler-overhaul acceptance sweep: each workload produces exactly
  // ONE digest across its execution-policy matrix — worker_threads {1, 0}
  // x idle_skip {on, off}. Execution strategy (trigger-driven IRC bounds,
  // the timing wheel, frame arenas) must be invisible in every simulation
  // counter. The every-tick arms run on an 8-station cell and the 8-device
  // fleet; at 64 stations idle_skip=off means hundreds of billions of
  // component-ticks (the ~80x the skip path buys at that scale), so the
  // 64-station workload sweeps the worker axis on the skip path only.
  struct Arm {
    const char* workload;
    unsigned workers;
    bool skip;
  };
  const Arm arms[] = {
      {"contended-8", 1, true},  {"contended-8", 1, false},
      {"contended-8", 0, true},  {"contended-8", 0, false},
      {"fleet-8", 1, true},      {"fleet-8", 1, false},
      {"fleet-8", 0, true},      {"fleet-8", 0, false},
      {"contended-64", 1, true}, {"contended-64", 0, true},
  };
  struct Ref {
    u64 full;
    u64 v2;
    std::string report;
  };
  std::map<std::string, Ref> ref;
  for (const Arm& a : arms) {
    ScenarioSpec spec = std::string_view(a.workload) == "contended-8"
                            ? ScenarioSpec::contended_wifi_cell(8, 1, 2)
                        : std::string_view(a.workload) == "fleet-8"
                            ? ScenarioSpec::mixed_three_standard(8, 1, 1)
                            : ScenarioSpec::contended_wifi_cell(64, 1, 1);
    spec.worker_threads = a.workers;
    spec.idle_skip = a.skip;
    const FleetStats fs = ScenarioEngine(std::move(spec)).run();
    const std::string arm_name = std::string(a.workload) +
                                 " workers=" + std::to_string(a.workers) +
                                 " skip=" + std::to_string(a.skip);
    EXPECT_TRUE(fs.all_drained) << arm_name;
    auto [it, fresh] = ref.emplace(
        a.workload, Ref{fs.full_digest(), fs.full_digest_v2(), fs.report()});
    EXPECT_EQ(fs.full_digest(), it->second.full) << arm_name;
    // v2 adds every integral row the v1 digest leaves out (NAV, EIFS,
    // expiry, mobility, topology epochs): execution policy is invisible there too.
    EXPECT_EQ(fs.full_digest_v2(), it->second.v2) << arm_name;
    EXPECT_EQ(fs.report(), it->second.report) << arm_name;
    if (!fresh && fs.full_digest() != it->second.full) break;  // One arm is enough.
  }
}

// 64-device mixed fleet with a skewed traffic mix: a quarter of the
// stations stream large MSDUs, a quarter trickle small ones, the rest run
// the standard mix — the ROADMAP's "scale the fleet axis" open item.
ScenarioSpec skewed_64_fleet(u64 seed) {
  ScenarioSpec spec = ScenarioSpec::mixed_three_standard(64, seed,
                                                         /*msdus_per_mode=*/1);
  for (std::size_t i = 0; i < spec.cells.size(); ++i) {
    for (DeviceSpec& d : spec.cells[i].stations) {
      for (auto& t : d.traffic) {
        if (!t.enabled) continue;
        if (i % 4 == 0) {
          t.msdu_min_bytes = 900;
          t.msdu_max_bytes = 1400;
        } else if (i % 4 == 1) {
          t.msdu_min_bytes = 64;
          t.msdu_max_bytes = 128;
        }
      }
    }
  }
  spec.max_cycles = 30'000'000;
  return spec;
}

TEST(Scenario, SixtyFourDeviceMixedFleetDrainsAcrossWorkersAndStrides) {
  const FleetStats serial = ScenarioEngine(skewed_64_fleet(2026)).run();
  EXPECT_TRUE(serial.all_drained);
  ASSERT_EQ(serial.devices.size(), 64u);
  for (const DeviceStats& ds : serial.devices) {
    for (std::size_t m = 0; m < kNumModes; ++m) {
      EXPECT_EQ(ds.completed[m], ds.offered[m]) << "device " << ds.station_id;
    }
  }
  ScenarioSpec par = skewed_64_fleet(2026);
  par.worker_threads = 0;  // All cores.
  const FleetStats parallel = ScenarioEngine(std::move(par)).run();
  EXPECT_EQ(serial.full_digest(), parallel.full_digest());
  EXPECT_EQ(serial.report(), parallel.report());
  ScenarioSpec unit = skewed_64_fleet(2026);
  unit.lockstep_stride = 1;
  const FleetStats exact = ScenarioEngine(std::move(unit)).run();
  EXPECT_TRUE(exact.all_drained);
  EXPECT_EQ(serial.completion_digest(), exact.completion_digest());
}

TEST(TrafficGen, SlottedStreamPacesArrivalsByInterval) {
  sim::TimeBase tb(200e6);
  mac::TrafficSpec spec = mac::TrafficSpec::uwb_slotted_stream(3);
  spec.start_us = 10.0;
  spec.interval_us = 20.0;
  mac::TrafficGen gen(spec, tb, 1234);
  std::vector<Cycle> arrivals;
  Cycle now = 0;
  sim::Scheduler s(200e6);
  s.add(gen, "gen");
  gen.send = [&](Bytes b) {
    arrivals.push_back(now);
    EXPECT_GE(b.size(), spec.msdu_min_bytes);
    EXPECT_LE(b.size(), spec.msdu_max_bytes);
    gen.notify_tx_complete();  // Instant completion: no backpressure.
  };
  for (; now < 20'000; ++now) s.run_cycles(1);
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0], tb.us_to_cycles(10.0));
  EXPECT_EQ(arrivals[1] - arrivals[0], tb.us_to_cycles(20.0));
  EXPECT_EQ(arrivals[2] - arrivals[1], tb.us_to_cycles(20.0));
  EXPECT_TRUE(gen.drained());
}

TEST(TrafficGen, BackpressureDefersArrivalsUntilCompletions) {
  sim::TimeBase tb(200e6);
  mac::TrafficSpec spec = mac::TrafficSpec::wifi_csma_bursts(6);
  spec.start_us = 1.0;
  spec.interval_us = 5.0;
  spec.burst_len = 4;
  spec.max_inflight = 2;
  mac::TrafficGen gen(spec, tb, 77);
  u32 sent = 0;
  gen.send = [&](Bytes) { ++sent; };
  sim::Scheduler s(200e6);
  s.add(gen, "gen");
  s.run_cycles(tb.us_to_cycles(3.0));
  EXPECT_EQ(sent, 2u);  // Burst clamped to max_inflight.
  gen.notify_tx_complete();
  gen.notify_tx_complete();
  s.run_cycles(tb.us_to_cycles(5.0));
  EXPECT_EQ(sent, 4u);  // Next interval refills the window.
  EXPECT_FALSE(gen.drained());
}

}  // namespace
}  // namespace drmp::scenario
