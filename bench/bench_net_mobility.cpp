// Mobility & dynamic-topology bench (docs/CONTENTION.md, docs/MULTICELL.md).
//
//   1. Correctness gate: a frozen-position TopologyDriver (waypoints pinned
//      at the start positions) must reproduce the static explicit-matrix
//      cell byte-for-byte — the driver's derived matrix is the same object
//      the static cell was given, so every digest must match.
//   2. Hidden-station physics: the mid-run walk behind the wall must cost
//      collisions the static cell never pays, and arming RTS/CTS on the
//      same walk must claw back collided airtime.
//   3. Roaming: the two-cell walk-away workload must complete at least one
//      handoff with a nonzero reassociation latency.
//
//   $ ./bench_net_mobility [stations] [msdus] [--json[=PATH]]
//
//   --json writes the machine-readable record (digests, collision counts,
//   epochs, handoff latency, throughput) to BENCH_mobility.json (or PATH).
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_common.hpp"
#include "scenario/scenario_engine.hpp"

namespace {

using drmp::scenario::DeviceStats;
using drmp::scenario::FleetStats;
using drmp::scenario::ScenarioEngine;
using drmp::scenario::ScenarioSpec;

constexpr drmp::u64 kSeed = 11;  // Matches the bench-family convention.

FleetStats run(ScenarioSpec spec) { return ScenarioEngine(std::move(spec)).run(); }

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      drmp::bench::take_json_flag(argc, argv, "BENCH_mobility.json");
  const std::size_t stations =
      argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 4;
  const drmp::u32 msdus =
      argc > 2 ? static_cast<drmp::u32>(std::strtoul(argv[2], nullptr, 10)) : 3;

  std::printf("mobility bench: %zu stations, %u MSDUs each, seed %llu\n\n",
              stations, msdus, static_cast<unsigned long long>(kSeed));

  // ---- Gate 1: frozen driver == static explicit matrix, bit-for-bit ----
  const FleetStats fixed = run(ScenarioSpec::contended_wifi_topology(
      stations, ScenarioSpec::Reach::kFull, kSeed, msdus));
  const FleetStats frozen = run(ScenarioSpec::mobile_wifi_cell(
      stations, /*frozen=*/true, /*associate=*/false, kSeed, msdus));
  if (!fixed.all_drained || !frozen.all_drained) {
    std::printf("BUDGET EXHAUSTED before the static arms drained\n");
    return 1;
  }
  // report() embeds the scenario name (which differs by arm); the digests
  // cover every integral quantity, so they are the comparison surface.
  if (frozen.full_digest() != fixed.full_digest() ||
      frozen.completion_digest() != fixed.completion_digest()) {
    std::printf("FROZEN MISMATCH: a motionless TopologyDriver diverged from "
                "the static explicit-matrix cell\n");
    return 1;
  }
  std::printf("gate: frozen driver == static matrix (%016llx), %llu "
              "topology epochs\n",
              static_cast<unsigned long long>(frozen.full_digest()),
              static_cast<unsigned long long>(frozen.total_topology_epochs()));

  // ---- Gate 2: the walk costs collisions; RTS/CTS claws airtime back ----
  const FleetStats mobile = run(ScenarioSpec::mobile_wifi_cell(
      stations, /*frozen=*/false, /*associate=*/false, kSeed, msdus));
  const FleetStats rts = run(ScenarioSpec::mobile_wifi_cell(
      stations, /*frozen=*/false, /*associate=*/false, kSeed, msdus,
      /*rts_threshold=*/700));
  if (!mobile.all_drained || !rts.all_drained) {
    std::printf("BUDGET EXHAUSTED before the mobile arms drained\n");
    return 1;
  }
  if (mobile.total_collisions() <= fixed.total_collisions()) {
    std::printf("WALK INERT: the hidden-station walk (%llu collisions) must "
                "out-collide the static cell (%llu)\n",
                static_cast<unsigned long long>(mobile.total_collisions()),
                static_cast<unsigned long long>(fixed.total_collisions()));
    return 1;
  }
  if (mobile.total_topology_epochs() == 0) {
    std::printf("DRIVER ASLEEP: the walk published no audibility revisions\n");
    return 1;
  }
  const drmp::Cycle mobile_air = mobile.cells[0].collided_airtime[0];
  const drmp::Cycle rts_air = rts.cells[0].collided_airtime[0];
  drmp::u32 rts_sent = 0, cts_received = 0;
  for (const DeviceStats& ds : rts.devices) {
    rts_sent += ds.rts_sent;
    cts_received += ds.cts_received;
  }
  if (rts_sent == 0 || cts_received == 0) {
    std::printf("RTS INERT: the handshake arm sent no RTS/CTS\n");
    return 1;
  }
  // The handshake shrinks the collided window from whole MSDUs to RTS
  // frames: anything under a 2x airtime recovery means it is not working.
  if (rts_air * 2 > mobile_air) {
    std::printf("RTS RECOVERY WEAK: collided airtime %llu with RTS vs %llu "
                "without (< 2x recovery)\n",
                static_cast<unsigned long long>(rts_air),
                static_cast<unsigned long long>(mobile_air));
    return 1;
  }
  std::printf("gate: walk collisions %llu > static %llu; RTS/CTS collided "
              "airtime %llu vs %llu (%.1fx recovery, %u RTS / %u CTS)\n",
              static_cast<unsigned long long>(mobile.total_collisions()),
              static_cast<unsigned long long>(fixed.total_collisions()),
              static_cast<unsigned long long>(rts_air),
              static_cast<unsigned long long>(mobile_air),
              static_cast<double>(mobile_air) /
                  static_cast<double>(rts_air ? rts_air : 1),
              rts_sent, cts_received);

  // ---- Gate 3: the two-cell walk-away hands off ----
  const FleetStats roam =
      run(ScenarioSpec::roaming_wifi_cells(stations, kSeed, msdus));
  if (!roam.all_drained) {
    std::printf("BUDGET EXHAUSTED before the roaming fleet drained\n");
    return 1;
  }
  if (roam.total_handoffs() == 0 || roam.total_reassociations() == 0) {
    std::printf("ROAMING INERT: the threshold walk completed no handoff\n");
    return 1;
  }
  std::printf("gate: %llu handoffs, %llu reassociations, mean latency %.0f "
              "cycles\n\n",
              static_cast<unsigned long long>(roam.total_handoffs()),
              static_cast<unsigned long long>(roam.total_reassociations()),
              roam.mean_handoff_latency_cycles());

  // ---- Profile ----
  std::printf("arm      coll   epochs  handoffs  Mcyc     skip    Mcyc/s\n");
  struct Row { const char* name; const FleetStats* fs; };
  for (const Row& r : {Row{"static", &fixed}, Row{"frozen", &frozen},
                       Row{"mobile", &mobile}, Row{"rts", &rts},
                       Row{"roaming", &roam}}) {
    std::printf("%-7s %5llu %8llu %9llu %7.2f %7.1f %9.2f\n", r.name,
                static_cast<unsigned long long>(r.fs->total_collisions()),
                static_cast<unsigned long long>(r.fs->total_topology_epochs()),
                static_cast<unsigned long long>(r.fs->total_handoffs()),
                static_cast<double>(r.fs->device_cycles_total()) / 1e6,
                r.fs->skip_ratio(), r.fs->device_cycles_per_sec() / 1e6);
  }

  if (!json_path.empty()) {
    drmp::bench::JsonRecord rec;
    rec.str("bench", "net_mobility");
    rec.num("stations", static_cast<drmp::u64>(stations));
    rec.num("msdus_per_station", msdus);
    rec.num("seed", kSeed);
    rec.hex("static_digest", fixed.full_digest());
    rec.hex("frozen_digest", frozen.full_digest());
    rec.hex("mobile_digest", mobile.full_digest());
    rec.num("static_collisions", fixed.total_collisions());
    rec.num("mobile_collisions", mobile.total_collisions());
    rec.num("mobile_collided_airtime", mobile_air);
    rec.num("rts_collided_airtime", rts_air);
    rec.num("rts_sent", rts_sent);
    rec.num("cts_received", cts_received);
    rec.num("topology_epochs", mobile.total_topology_epochs());
    rec.num("handoffs", roam.total_handoffs());
    rec.num("reassociations", roam.total_reassociations());
    rec.num("mean_handoff_latency_cycles", roam.mean_handoff_latency_cycles());
    rec.num("lockstep_cycles", mobile.lockstep_cycles);
    rec.num("device_cycles_total", mobile.device_cycles_total());
    rec.num("wall_seconds", mobile.wall_seconds);
    rec.num("device_cycles_per_sec", mobile.device_cycles_per_sec());
    drmp::bench::add_profile(rec, mobile);
    rec.hex("full_digest", mobile.full_digest());
    if (!rec.write(json_path)) {
      std::printf("FAILED to write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("\njson record: %s\n", json_path.c_str());
  }
  return 0;
}
