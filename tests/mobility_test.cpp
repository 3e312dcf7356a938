// Mobility & dynamic-topology tests (docs/CONTENTION.md dynamic topology,
// docs/MULTICELL.md roaming): the TopologyDriver publishes epoch-stamped
// audibility revisions through the quiescence contract, association/roaming
// flows run through mac::LinkMgr, and every new moving part holds the
// repo's determinism contracts — a frozen driver reproduces the static
// cell's digests bit-for-bit across the execution-policy matrix, epoch
// timelines match between the default and a unit lockstep stride, roaming
// keeps lax-sync and reference coupling digest-identical, and a mid-walk
// checkpoint resumes into the uninterrupted run's digests.
#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>

#include "net/audibility.hpp"
#include "net/cell.hpp"
#include "net/topology_driver.hpp"
#include "scenario/scenario_engine.hpp"
#include "sim/scheduler.hpp"

namespace drmp::scenario {
namespace {

FleetStats run_spec(ScenarioSpec spec, unsigned workers, bool idle_skip) {
  spec.worker_threads = workers;
  spec.idle_skip = idle_skip;
  return ScenarioEngine(std::move(spec)).run();
}

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

/// Rounds down to a lockstep round edge (stride multiple), at least one round.
Cycle aligned(Cycle c, Cycle stride) {
  const Cycle a = c / stride * stride;
  return a == 0 ? stride : a;
}

// ---------------------------------------------------------------------------
// Frozen driver == static matrix, bit for bit.
// ---------------------------------------------------------------------------

TEST(Mobility, FrozenDriverReproducesStaticDigestsAcrossPolicies) {
  // The compatibility pin the whole subsystem hangs on: a mobility driver
  // whose script never moves derives the same all-ones matrix the static
  // factory installs, publishes zero epochs, and the cell's digests are
  // bit-identical to the static spec — across worker pools and idle-skip.
  const FleetStats base =
      run_spec(ScenarioSpec::contended_wifi_topology(4, ScenarioSpec::Reach::kFull),
               1, true);
  ASSERT_TRUE(base.all_drained);
  for (const unsigned workers : {1u, 0u}) {
    for (const bool idle_skip : {true, false}) {
      const FleetStats frozen = run_spec(
          ScenarioSpec::mobile_wifi_cell(4, /*frozen=*/true, /*associate=*/false),
          workers, idle_skip);
      EXPECT_EQ(frozen.full_digest(), base.full_digest())
          << "workers=" << workers << " idle_skip=" << idle_skip;
      EXPECT_EQ(frozen.completion_digest(), base.completion_digest());
      EXPECT_EQ(frozen.total_topology_epochs(), 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// Epoch edges through the quiescence contract, default vs unit stride.
// ---------------------------------------------------------------------------

TEST(Mobility, WalkPublishesEpochsIdenticallyAcrossStrides) {
  // The walk crosses the (0,1) audibility range mid-run: at least one epoch
  // must be published, as a scheduled wake edge — the default stride (idle
  // skipping past quiet stretches, lanes overshooting their drain) and a
  // unit stride (lanes retiring on their drain cycle) must see the same
  // epoch count, the same collisions and the same completions.
  const ScenarioSpec proto =
      ScenarioSpec::mobile_wifi_cell(4, /*frozen=*/false, /*associate=*/false);
  const FleetStats batched = run_spec(proto, 1, true);
  ASSERT_TRUE(batched.all_drained);
  EXPECT_GE(batched.total_topology_epochs(), 1u) << batched.report();

  ScenarioSpec unit = proto;
  unit.lockstep_stride = 1;
  const FleetStats exact = run_spec(std::move(unit), 1, true);
  EXPECT_EQ(batched.completion_digest(), exact.completion_digest());
  EXPECT_EQ(batched.total_topology_epochs(), exact.total_topology_epochs());
  EXPECT_EQ(batched.total_collisions(), exact.total_collisions());

  for (const unsigned workers : {1u, 0u}) {
    for (const bool idle_skip : {true, false}) {
      const FleetStats again = run_spec(proto, workers, idle_skip);
      EXPECT_EQ(again.full_digest(), batched.full_digest())
          << "workers=" << workers << " idle_skip=" << idle_skip;
    }
  }
}

// ---------------------------------------------------------------------------
// Walk-behind-a-wall physics and the RTS/CTS recovery.
// ---------------------------------------------------------------------------

TEST(Mobility, WalkBehindAWallCollidesAndRtsRecovers) {
  // While station 0 is out of station 1's range their aligned MSDU rounds
  // overlap blind — the mobile run must collide more than the frozen one.
  // Arming RTS/CTS (threshold below every MSDU) converts ~700-byte data
  // collisions into ~20-byte RTS collisions: collided airtime collapses.
  const FleetStats frozen = run_spec(
      ScenarioSpec::mobile_wifi_cell(4, /*frozen=*/true, /*associate=*/false),
      1, true);
  const FleetStats mobile = run_spec(
      ScenarioSpec::mobile_wifi_cell(4, /*frozen=*/false, /*associate=*/false),
      1, true);
  ASSERT_TRUE(mobile.all_drained);
  EXPECT_GT(mobile.total_collisions(), frozen.total_collisions())
      << "hidden phase produced no extra collisions:\n"
      << mobile.report();

  const FleetStats rts = run_spec(
      ScenarioSpec::mobile_wifi_cell(4, /*frozen=*/false, /*associate=*/false,
                                     /*seed=*/1, /*msdus=*/3,
                                     /*rts_threshold=*/700),
      1, true);
  ASSERT_TRUE(rts.all_drained);
  u32 rts_sent = 0, cts_received = 0;
  for (const DeviceStats& ds : rts.devices) {
    rts_sent += ds.rts_sent;
    cts_received += ds.cts_received;
  }
  EXPECT_GT(rts_sent, 0u);
  EXPECT_GT(cts_received, 0u);
  ASSERT_EQ(mobile.cells.size(), 1u);
  ASSERT_EQ(rts.cells.size(), 1u);
  EXPECT_LT(rts.cells[0].collided_airtime[0], mobile.cells[0].collided_airtime[0])
      << "RTS/CTS did not shrink the collided airtime";
  // Every MSDU still completes: the retry machinery plus the handshake
  // recover the hidden-phase losses.
  for (const DeviceStats& ds : rts.devices) {
    EXPECT_EQ(ds.completed[0], ds.offered[0]) << "station " << ds.station_id;
  }
}

// ---------------------------------------------------------------------------
// Association flows: gated traffic, digest stability.
// ---------------------------------------------------------------------------

TEST(Mobility, AssociationGatesTrafficUntilExchangeCompletes) {
  // With associate on, every station precedes its traffic with a probe +
  // assoc exchange (two extra completions per station, minimum) and the
  // generator gate holds offered traffic until the exchange lands. The
  // flows ride the ordinary MSDU pipeline, so the full policy matrix must
  // stay bit-identical.
  const ScenarioSpec proto =
      ScenarioSpec::mobile_wifi_cell(4, /*frozen=*/false, /*associate=*/true);
  const FleetStats base = run_spec(proto, 1, true);
  ASSERT_TRUE(base.all_drained);
  for (const DeviceStats& ds : base.devices) {
    EXPECT_GE(ds.completed[0], ds.offered[0] + 2)
        << "station " << ds.station_id << " skipped its probe/assoc exchange";
    EXPECT_GT(ds.tx_ok[0], 0u);
    EXPECT_EQ(ds.handoffs, 0u);  // No roaming candidates in this cell.
  }
  for (const unsigned workers : {1u, 0u}) {
    for (const bool idle_skip : {true, false}) {
      const FleetStats again = run_spec(proto, workers, idle_skip);
      EXPECT_EQ(again.full_digest(), base.full_digest())
          << "workers=" << workers << " idle_skip=" << idle_skip;
    }
  }
}

// ---------------------------------------------------------------------------
// Roaming handoff across a coupled two-cell group.
// ---------------------------------------------------------------------------

TEST(Mobility, RoamingHandoffMatchesReferenceCoupling) {
  // Station 0 walks past the roam-out threshold toward the neighbour AP:
  // the driver retargets its serving cell, the link manager re-runs the
  // exchange, and — because a handoff never changes the station's clock
  // domain — lax-sync coupling must reproduce the single-scheduler
  // reference bit-for-bit, handoff included.
  ScenarioSpec ref_spec = ScenarioSpec::roaming_wifi_cells(2);
  ref_spec.coupled_reference = true;
  const FleetStats ref = run_spec(std::move(ref_spec), 1, true);
  ASSERT_TRUE(ref.all_drained);
  EXPECT_GE(ref.total_handoffs(), 1u) << ref.report();
  EXPECT_GE(ref.total_reassociations(), 1u);
  EXPECT_GT(ref.mean_handoff_latency_cycles(), 0.0);
  // Wide station range: the walk isolates roaming from audibility churn.
  EXPECT_EQ(ref.total_topology_epochs(), 0u);

  for (const unsigned workers : {1u, 0u}) {
    for (const bool idle_skip : {true, false}) {
      const FleetStats lax =
          run_spec(ScenarioSpec::roaming_wifi_cells(2), workers, idle_skip);
      EXPECT_EQ(lax.full_digest(), ref.full_digest())
          << "workers=" << workers << " idle_skip=" << idle_skip;
      EXPECT_EQ(lax.total_handoffs(), ref.total_handoffs());
    }
  }
}

// ---------------------------------------------------------------------------
// Checkpoint/resume mid-walk.
// ---------------------------------------------------------------------------

TEST(Mobility, MidWalkCheckpointResumeReproducesDigest) {
  // Snapshot a mobility + association run at a round edge in the middle of
  // the walk (driver clock, pending topology event, link states and
  // generator gates all live) and resume under a different execution
  // strategy: the uninterrupted digests must reproduce bit-for-bit.
  const ScenarioSpec proto =
      ScenarioSpec::mobile_wifi_cell(4, /*frozen=*/false, /*associate=*/true);
  const FleetStats base = run_spec(proto, 1, true);
  ASSERT_TRUE(base.all_drained);

  const std::string path = tmp_path("ckpt_mobility.snap");
  const Cycle half = aligned(base.lockstep_cycles / 2, proto.lockstep_stride);
  {
    ScenarioSpec clamped = proto;
    clamped.max_cycles = half;
    ScenarioEngine saver(std::move(clamped));
    saver.checkpoint_every(half, path);
    (void)saver.run();
  }
  for (const unsigned workers : {1u, 0u}) {
    ScenarioSpec rest = proto;
    rest.worker_threads = workers;
    ScenarioEngine resumer(std::move(rest));
    resumer.resume(path);
    const FleetStats resumed = resumer.run();
    EXPECT_EQ(resumed.full_digest(), base.full_digest()) << "workers=" << workers;
    EXPECT_EQ(resumed.completion_digest(), base.completion_digest());
    EXPECT_EQ(resumed.lockstep_cycles, base.lockstep_cycles);
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Spec validation surfaces mobility shape errors with cell context.
// ---------------------------------------------------------------------------

TEST(Mobility, MalformedSpecsFailLoudlyAtConstruction) {
  {
    // Track count must match the cell's stations.
    ScenarioSpec spec = ScenarioSpec::mobile_wifi_cell(4, true, false);
    spec.cells[0].mobility.stations.pop_back();
    EXPECT_THROW(ScenarioEngine{std::move(spec)}, net::AudibilityError);
  }
  {
    // Mobility and an explicit matrix are mutually exclusive.
    ScenarioSpec spec = ScenarioSpec::mobile_wifi_cell(4, true, false);
    spec.cells[0].contention.audibility = net::AudibilityMatrix::full(4);
    EXPECT_THROW(ScenarioEngine{std::move(spec)}, net::AudibilityError);
  }
  {
    // Rate adaptation needs the association flows that host it.
    ScenarioSpec spec = ScenarioSpec::mobile_wifi_cell(4, true, false);
    spec.cells[0].mobility.adapt_rate = true;
    EXPECT_THROW(ScenarioEngine{std::move(spec)}, net::AudibilityError);
  }
  {
    // Waypoint times must strictly ascend.
    ScenarioSpec spec = ScenarioSpec::mobile_wifi_cell(4, false, false);
    spec.cells[0].mobility.stations[0].waypoints[1].at_us = 1.0;
    EXPECT_THROW(ScenarioEngine{std::move(spec)}, net::AudibilityError);
  }
  {
    // Reach scripts must ascend too.
    ScenarioSpec spec = ScenarioSpec::roaming_wifi_cells(2);
    CouplingSpec::ReachRevision r0;
    r0.at_us = 10.0;
    CouplingSpec::ReachRevision r1;
    r1.at_us = 10.0;
    spec.couplings[0].reach_script = {r0, r1};
    EXPECT_THROW(ScenarioEngine{std::move(spec)}, std::invalid_argument);
  }
}

}  // namespace
}  // namespace drmp::scenario

// ---------------------------------------------------------------------------
// AudibilityMatrix typed errors and the all-ones cache.
// ---------------------------------------------------------------------------

namespace drmp::net {
namespace {

TEST(Audibility, FactoriesThrowTypedErrorsOnBadIndices) {
  EXPECT_THROW(AudibilityMatrix::hidden_pair(4, 0, 9), AudibilityError);
  EXPECT_THROW(AudibilityMatrix::hidden_pair(4, 1, 1), AudibilityError);
  EXPECT_THROW(AudibilityMatrix::asymmetric_pair(4, 2, 2), AudibilityError);
  EXPECT_THROW(AudibilityMatrix::asymmetric_pair(4, 7, 0), AudibilityError);
  EXPECT_THROW(AudibilityMatrix::from_bits(3, std::vector<u8>(8, 1)),
               AudibilityError);
  // AudibilityError is an invalid_argument: existing catch sites keep
  // working unchanged.
  EXPECT_THROW(AudibilityMatrix::hidden_pair(4, 0, 9), std::invalid_argument);
}

TEST(Audibility, AllOnesCacheTracksEveryMutationPath) {
  AudibilityMatrix m = AudibilityMatrix::full(4);
  EXPECT_TRUE(m.all_ones());
  m.hide_pair(0, 1);
  EXPECT_FALSE(m.all_ones());
  m.set(0, 1, true);
  m.set(1, 0, true);
  EXPECT_TRUE(m.all_ones());
  EXPECT_TRUE(AudibilityMatrix{}.all_ones());  // Trivial: everyone hears.
  const AudibilityMatrix f =
      AudibilityMatrix::from_bits(2, std::vector<u8>{1, 1, 0, 1});
  EXPECT_FALSE(f.all_ones());
  EXPECT_TRUE(f.hears(0, 0));
  EXPECT_FALSE(f.hears(1, 0));
}

TEST(Audibility, SetValidatesIndicesWithTypedErrors) {
  AudibilityMatrix m = AudibilityMatrix::full(3);
  EXPECT_THROW(m.set(3, 0, false), AudibilityError);
  EXPECT_THROW(m.set(0, 5, true), AudibilityError);
}

}  // namespace
}  // namespace drmp::net
