// Checkpoint/resume tests (sim/checkpoint.hpp + ScenarioEngine resume).
//
// The contract under test: a run interrupted at any quiescent lockstep round
// edge and resumed from its snapshot — in a fresh process, under a different
// execution strategy (worker_threads, idle_skip) — reproduces the
// uninterrupted run's full_digest bit-for-bit. And the failure surface: a
// malformed snapshot (bad magic, wrong version, CRC damage, unknown or
// torn records) is rejected with the matching typed error before any
// component state is touched — refuse, never guess.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "drmp/device.hpp"
#include "scenario/scenario_engine.hpp"
#include "scenario/scenario_spec.hpp"
#include "sim/checkpoint.hpp"
#include "sim/stats.hpp"

namespace drmp::scenario {
namespace {

std::string tmp_path(const std::string& name) { return ::testing::TempDir() + name; }

Bytes read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f) << "missing " << path;
  return Bytes((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const Bytes& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
}

/// Rounds down to a lockstep round edge (stride multiple), at least one round.
Cycle aligned(Cycle c, Cycle stride) {
  const Cycle a = c / stride * stride;
  return a == 0 ? stride : a;
}

/// Runs `proto` up to the round edge at `snap_at` and snapshots there — the
/// "interrupted" half of every roundtrip below. The budget clamp stands in
/// for the crash: the engine never sees the rest of the workload.
void save_snapshot_at(const ScenarioSpec& proto, Cycle snap_at, const std::string& path) {
  ScenarioSpec clamped = proto;
  clamped.max_cycles = snap_at;
  ScenarioEngine saver(std::move(clamped));
  saver.checkpoint_every(snap_at, path);
  (void)saver.run();
}

/// Fresh engine, restored state, rest of the run — under a possibly different
/// execution strategy than the one that wrote the snapshot.
FleetStats resume_and_finish(const ScenarioSpec& proto, const std::string& path,
                             unsigned workers, bool idle_skip) {
  ScenarioSpec rest = proto;
  rest.worker_threads = workers;
  rest.idle_skip = idle_skip;
  ScenarioEngine resumer(std::move(rest));
  resumer.resume(path);
  return resumer.run();
}

// ---------------------------------------------------------------------------
// Roundtrip: interrupted + resumed == uninterrupted, bit for bit.
// ---------------------------------------------------------------------------

TEST(Checkpoint, InterruptedContendedCellReproducesDigest) {
  const ScenarioSpec proto = ScenarioSpec::contended_wifi_cell(8, 1, 2);
  const FleetStats base = ScenarioEngine(proto).run();
  ASSERT_TRUE(base.all_drained);

  const std::string path = tmp_path("ckpt_contended.snap");
  const Cycle half = aligned(base.lockstep_cycles / 2, proto.lockstep_stride);
  save_snapshot_at(proto, half, path);

  const FleetStats resumed = resume_and_finish(proto, path, 1, true);
  EXPECT_EQ(resumed.full_digest(), base.full_digest());
  EXPECT_EQ(resumed.completion_digest(), base.completion_digest());
  EXPECT_EQ(resumed.lockstep_cycles, base.lockstep_cycles);
  EXPECT_EQ(resumed.report(), base.report());
  std::remove(path.c_str());
}

// Randomized snapshot points, resumed across the execution-policy matrix:
// the snapshot edge is part of the simulated timeline, the strategy that
// finishes the run is not. worker_threads {1, 0(=cores)} x idle_skip on/off
// all land on the same full_digest — the same invariance the uninterrupted
// digest contract pins, carried through a restore.
TEST(Checkpoint, RandomSnapshotPointsAcrossExecutionMatrix) {
  const struct {
    const char* name;
    ScenarioSpec proto;
  } scenarios[] = {
      {"contended8", ScenarioSpec::contended_wifi_cell(8, 1, 2)},
      {"mixed8", ScenarioSpec::mixed_three_standard(8, 1, 1)},
  };
  u64 lcg = 0x9E3779B97F4A7C15ull;
  const auto next = [&lcg] {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return lcg >> 33;
  };
  for (const auto& sc : scenarios) {
    SCOPED_TRACE(sc.name);
    const FleetStats base = ScenarioEngine(sc.proto).run();
    ASSERT_TRUE(base.all_drained);
    const std::string path = tmp_path(std::string("ckpt_rand_") + sc.name + ".snap");

    // First random edge: the full 2x2 strategy matrix.
    const Cycle e1 = aligned(base.lockstep_cycles * (20 + next() % 60) / 100,
                             sc.proto.lockstep_stride);
    save_snapshot_at(sc.proto, e1, path);
    for (const unsigned workers : {1u, 0u}) {
      for (const bool skip : {true, false}) {
        SCOPED_TRACE(testing::Message() << "edge " << e1 << " workers " << workers
                                        << " idle_skip " << skip);
        const FleetStats resumed = resume_and_finish(sc.proto, path, workers, skip);
        EXPECT_EQ(resumed.full_digest(), base.full_digest());
        EXPECT_EQ(resumed.lockstep_cycles, base.lockstep_cycles);
      }
    }

    // Second random edge: serial default only (edge coverage, not matrix).
    const Cycle e2 = aligned(base.lockstep_cycles * (20 + next() % 60) / 100,
                             sc.proto.lockstep_stride);
    save_snapshot_at(sc.proto, e2, path);
    const FleetStats resumed = resume_and_finish(sc.proto, path, 1, true);
    EXPECT_EQ(resumed.full_digest(), base.full_digest()) << "edge " << e2;
    std::remove(path.c_str());
  }
}

TEST(Checkpoint, CoupledCellsRoundtrip) {
  // Two co-channel BSSs in one coupling group: the snapshot must carry the
  // coupler's pending cross-cell forwards and both lanes' clocks.
  const ScenarioSpec proto = ScenarioSpec::coupled_wifi_cells(2, 2, 3, 2);
  const FleetStats base = ScenarioEngine(proto).run();
  ASSERT_TRUE(base.all_drained);

  // Round edges are multiples of the *effective* stride (clamped to the
  // coupling group's horizon), not the spec's.
  const Cycle stride = ScenarioEngine(proto).effective_stride();
  const std::string path = tmp_path("ckpt_coupled.snap");
  const Cycle half = aligned(base.lockstep_cycles / 2, stride);
  save_snapshot_at(proto, half, path);

  const FleetStats resumed = resume_and_finish(proto, path, 1, true);
  EXPECT_EQ(resumed.full_digest(), base.full_digest());
  EXPECT_EQ(resumed.report(), base.report());
  std::remove(path.c_str());
}

/// Every device's statistics view, flattened per "<station>/<name>": busy
/// and total cycles of each busy counter, cycles in each state of each
/// occupancy.
std::map<std::string, std::vector<Cycle>> device_statistics(ScenarioEngine& engine) {
  std::map<std::string, std::vector<Cycle>> out;
  for (std::size_t i = 0; i < engine.spec().station_count(); ++i) {
    const sim::StatsRegistry stats = engine.device(i).stats();
    const std::string dev = std::to_string(i) + "/";
    for (const auto& [name, c] : stats.all_busy()) {
      out[dev + name] = {c->busy_cycles(), c->total_cycles()};
    }
    for (const auto& [name, o] : stats.all_occupancy()) {
      std::vector<Cycle>& v = out[dev + name + "#states"];
      for (int st = 0; st < sim::StateOccupancy::kMaxStates; ++st) {
        v.push_back(o->cycles_in(st));
      }
    }
  }
  return out;
}

TEST(Checkpoint, ResumeRestoresDeviceStatistics) {
  // No digest covers the busy counters and occupancies, so only a direct
  // comparison catches a restore that drops or misroutes them.
  const ScenarioSpec proto = ScenarioSpec::contended_wifi_cell(4, 5, 2);
  ScenarioEngine base_engine(proto);
  const FleetStats base = base_engine.run();
  ASSERT_TRUE(base.all_drained);
  const auto want = device_statistics(base_engine);
  // 24 busy counters and 7 occupancies per station, all of them run in.
  ASSERT_EQ(want.size(), 4u * 31u);
  for (const auto& [name, v] : want) {
    if (name.ends_with("#states")) continue;
    EXPECT_GT(v[1], 0u) << name;
  }

  const std::string path = tmp_path("ckpt_stats.snap");
  const Cycle half = aligned(base.lockstep_cycles / 2, proto.lockstep_stride);
  save_snapshot_at(proto, half, path);
  ScenarioEngine resumer(proto);
  resumer.resume(path);
  const FleetStats resumed = resumer.run();
  EXPECT_EQ(resumed.full_digest(), base.full_digest());
  EXPECT_EQ(device_statistics(resumer), want);
  std::remove(path.c_str());
}

TEST(Checkpoint, ResumedRunReportsTheExecutionProfile) {
  // A resumed run's sched/ rows: each domain's tick totals restored from the
  // snapshot's per-stage map plus the resumed half's own counts; the
  // lockstep rows and wheel_cascades cover the resumed half only. Pinned to
  // the values the per-stage counting kernel reported, for a snapshot this
  // build writes and for the committed golden one (written by an older
  // build that executed more ticks; regenerating it moves its pins).
  const ScenarioSpec proto = ScenarioSpec::contended_wifi_cell(4, 5, 2);
  const FleetStats base = ScenarioEngine(proto).run();
  ASSERT_TRUE(base.all_drained);
  const Cycle half = aligned(base.lockstep_cycles / 2, proto.lockstep_stride);
  const std::string fresh = tmp_path("ckpt_profile.snap");
  save_snapshot_at(proto, half, fresh);
  const std::string golden =
      std::string(DRMP_SOURCE_DIR) + "/tests/golden/contended4_checkpoint.snap";
  using Rows = std::array<u64, std::size(sim::kExecRows)>;  // kExecRows order.
  const std::pair<std::string, Rows> pins[] = {
      {fresh, {5774, 66832754, 812357, 758, 12, 91, 0, 62, 815042, 398, 357, 365568}},
      {golden, {48065, 66790463, 802128, 410, 9, 91, 0, 11846, 803258, 398, 357, 365568}},
  };
  for (const auto& [path, want] : pins) {
    ScenarioEngine resumer(proto);
    resumer.resume(path);
    const FleetStats fs = resumer.run();
    EXPECT_EQ(fs.full_digest(), base.full_digest()) << path;
    for (std::size_t k = 0; k < want.size(); ++k) {
      const sim::ExecRow& row = sim::kExecRows[k];
      const std::string key = std::string("sched/") + row.name;
      const u64 got = row.fold == sim::FoldRule::kMax
                          ? static_cast<u64>(fs.metrics.gauge(key).value_or(-1))
                          : fs.metrics.counter(key).value_or(~u64{0});
      EXPECT_EQ(got, want[k]) << path << " " << key;
    }
  }
  std::remove(fresh.c_str());
}

// ---------------------------------------------------------------------------
// Malformed-snapshot rejection: typed errors, no partial restores.
// ---------------------------------------------------------------------------

Bytes small_envelope() {
  sim::snap::Writer w;
  w.begin_record("r");
  u64 v = 0x1122334455667788ull;
  w.io(v);
  w.end_record();
  return w.envelope();
}

TEST(CheckpointFormat, BadMagicIsRejected) {
  Bytes env = small_envelope();
  env[0] ^= 0xFF;
  EXPECT_THROW(sim::snap::Reader r(std::move(env)), sim::snap::BadMagicError);
}

TEST(CheckpointFormat, TruncationBelowHeaderIsRejected) {
  Bytes env = small_envelope();
  env.resize(10);
  EXPECT_THROW(sim::snap::Reader r(std::move(env)), sim::snap::BadMagicError);
}

TEST(CheckpointFormat, UnknownVersionIsRejectedNeverGuessed) {
  // The version-bump policy: a future (or corrupted) format version is
  // refused outright — this build never attempts a best-effort parse of a
  // layout it does not know. Bumping kSnapshotVersion invalidates every
  // older snapshot by construction.
  Bytes env = small_envelope();
  env[8] ^= 0x01;  // u32 version lives at offset 8.
  EXPECT_THROW(sim::snap::Reader r(std::move(env)), sim::snap::BadVersionError);
}

TEST(CheckpointFormat, PayloadCorruptionFailsCrc) {
  Bytes env = small_envelope();
  env[20] ^= 0x01;  // First payload byte (after the 20-byte header).
  EXPECT_THROW(sim::snap::Reader r(std::move(env)), sim::snap::CrcMismatchError);
}

TEST(CheckpointFormat, OverlongLengthPrefixIsRejected) {
  Bytes env = small_envelope();
  env[12] += 8;  // u64 payload length at offset 12: claim 8 phantom bytes.
  EXPECT_THROW(sim::snap::Reader r(std::move(env)), sim::snap::RecordOverrunError);
}

TEST(CheckpointFormat, TruncatedPayloadIsRejected) {
  Bytes env = small_envelope();
  env.resize(env.size() - 5);  // Lose the CRC and part of the payload.
  EXPECT_THROW(sim::snap::Reader r(std::move(env)), sim::snap::RecordOverrunError);
}

TEST(CheckpointFormat, UnexpectedRecordNameIsRejected) {
  sim::snap::Reader r(small_envelope());
  EXPECT_THROW(r.expect("engine"), sim::snap::UnknownRecordError);
}

TEST(CheckpointFormat, PartiallyConsumedRecordIsRejected) {
  sim::snap::Reader r(small_envelope());
  r.expect("r");
  u32 half = 0;
  r.io(half);  // Consume 4 of the record's 8 body bytes...
  EXPECT_THROW(r.leave(), sim::snap::RecordOverrunError);  // ...then bail.
}

TEST(CheckpointFormat, AbsurdElementCountIsRejectedBeforeAllocation) {
  sim::snap::Writer w;
  w.begin_record("v");
  u64 claimed = 1'000'000'000ull;  // A count no 8-byte body can hold.
  w.io(claimed);
  w.end_record();
  sim::snap::Reader r(w.envelope());
  r.expect("v");
  std::vector<u32> v;
  EXPECT_THROW(r.io(v), sim::snap::RecordOverrunError);
}

TEST(CheckpointFormat, StatsRecordNamingAnUnknownCounterIsRejected) {
  // A device restores each "stats" entry into the counter of that name; a
  // name it does not have is refused, not added.
  sim::Scheduler sched(200e6);
  DrmpDevice dev(sched, DrmpConfig::standard_three_mode(), 1);
  sim::StatsRegistry view = dev.stats();
  sim::BusyCounter stray;
  stray.sample(true);
  view.add("rfu.warp_drive", stray);
  sim::snap::Writer w;
  w.begin_record("mem");
  w.io(dev.memory());
  w.end_record();
  w.begin_record("stats");
  w.io(view);
  w.end_record();
  sim::snap::Reader r(w.envelope());
  EXPECT_THROW(dev.load_state(r), sim::snap::UnknownRecordError);
}

// ---------------------------------------------------------------------------
// Engine-level rejection: scenario identity and misuse.
// ---------------------------------------------------------------------------

/// A cheap real snapshot: a few thousand cycles into the contended cell.
void save_small_real_snapshot(const std::string& path) {
  const ScenarioSpec proto = ScenarioSpec::contended_wifi_cell(8, 1, 2);
  save_snapshot_at(proto, 8 * proto.lockstep_stride, path);
}

TEST(CheckpointEngine, MismatchedScenarioIsRejected) {
  const std::string path = tmp_path("ckpt_fp.snap");
  save_small_real_snapshot(path);

  // Same shape, different seed: different simulated timeline, refused.
  ScenarioEngine other_seed(ScenarioSpec::contended_wifi_cell(8, 2, 2));
  EXPECT_THROW(other_seed.resume(path), sim::snap::SnapshotError);

  // Different fleet shape entirely.
  ScenarioEngine other_shape(ScenarioSpec::mixed_three_standard(8, 1, 2));
  EXPECT_THROW(other_shape.resume(path), sim::snap::SnapshotError);

  // The matching scenario still loads (the rejections above were the
  // fingerprint, not the file).
  ScenarioEngine match(ScenarioSpec::contended_wifi_cell(8, 1, 2));
  EXPECT_NO_THROW(match.resume(path));
  std::remove(path.c_str());
}

TEST(CheckpointEngine, VersionBumpedFileIsRefusedByResume) {
  const std::string path = tmp_path("ckpt_ver.snap");
  save_small_real_snapshot(path);
  Bytes bytes = read_file(path);
  ASSERT_GT(bytes.size(), 24u);
  bytes[8] ^= 0x01;  // Bump the format version in place.
  write_file(path, bytes);
  ScenarioEngine engine(ScenarioSpec::contended_wifi_cell(8, 1, 2));
  EXPECT_THROW(engine.resume(path), sim::snap::BadVersionError);
  std::remove(path.c_str());
}

TEST(CheckpointEngine, MisuseIsRejectedUpFront) {
  ScenarioEngine engine(ScenarioSpec::contended_wifi_cell(4, 1, 1));
  EXPECT_THROW(engine.checkpoint_every(0, "x.snap"), std::invalid_argument);
  EXPECT_THROW(engine.checkpoint_every(1024, ""), std::invalid_argument);

  // Tracing keeps flight-recorder rings out of snapshots by refusing the
  // combination, not by silently dropping the rings.
  ScenarioSpec traced = ScenarioSpec::contended_wifi_cell(4, 1, 1);
  traced.trace.enabled = true;
  ScenarioEngine traced_engine(std::move(traced));
  EXPECT_THROW(traced_engine.checkpoint_every(1024, tmp_path("x.snap")),
               std::logic_error);
  EXPECT_THROW(traced_engine.resume(tmp_path("nope.snap")), std::logic_error);
}

// ---------------------------------------------------------------------------
// Golden snapshot: yesterday's file loads in today's build.
// ---------------------------------------------------------------------------

// A committed version-1 snapshot of the 4-station contended cell, halfway
// through its run. Guards the on-disk format itself: any accidental layout
// change in a persist() breaks this load loudly. Regenerate (only alongside
// a deliberate kSnapshotVersion bump or a simulation-behaviour change) with
//   DRMP_REGEN_GOLDEN=1 ./drmp_tests --gtest_filter='Checkpoint.Golden*'
TEST(Checkpoint, GoldenSnapshotLoadsAndFinishes) {
  const ScenarioSpec proto = ScenarioSpec::contended_wifi_cell(4, 5, 2);
  const FleetStats base = ScenarioEngine(proto).run();
  ASSERT_TRUE(base.all_drained);
  const Cycle half = aligned(base.lockstep_cycles / 2, proto.lockstep_stride);

  const std::string path =
      std::string(DRMP_SOURCE_DIR) + "/tests/golden/contended4_checkpoint.snap";
  if (std::getenv("DRMP_REGEN_GOLDEN") != nullptr) {
    save_snapshot_at(proto, half, path);
  }

  ScenarioEngine resumer(proto);
  ASSERT_NO_THROW(resumer.resume(path))
      << "tests/golden/contended4_checkpoint.snap no longer loads; if the "
         "format changed deliberately, bump kSnapshotVersion and regenerate";
  EXPECT_EQ(resumer.resume_base(), half);
  const FleetStats resumed = resumer.run();
  EXPECT_EQ(resumed.full_digest(), base.full_digest());
  EXPECT_EQ(resumed.report(), base.report());
}

}  // namespace
}  // namespace drmp::scenario
