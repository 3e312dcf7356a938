// Multi-cell co-channel coupling bench (docs/MULTICELL.md).
//
//   1. Correctness gates: the lax window-edge coupling must be byte-identical
//      to the immediate single-scheduler reference on a 2-cell overlapping
//      BSS (serial and all-cores worker pool), and a coupling whose
//      inter-cell reach hears nothing must be byte-identical to the same
//      fleet with the coupling erased.
//   2. Coupled-vs-isolated physics: cells that hear each other must pay for
//      it in collisions; fully-reused spectrum (the isolated arm) must not.
//   3. Interference profile at 2 and 4 coupled cells, full inter-cell reach
//      vs a hidden far pair, with the lax path's throughput and skip ratio.
//
//   $ ./bench_net_multicell [max_cells] [stations_per_cell] [msdus] [--json[=PATH]]
//
//   --json writes the machine-readable record (digests of both coupling
//   modes, coupled/isolated collision counts, throughput) to
//   BENCH_multicell.json (or PATH).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_common.hpp"
#include "net/audibility.hpp"
#include "scenario/scenario_engine.hpp"

namespace {

using drmp::scenario::FleetStats;
using drmp::scenario::ScenarioEngine;
using drmp::scenario::ScenarioSpec;

constexpr drmp::u64 kSeed = 11;  // Matches the tests/multicell_test.cpp pins.

FleetStats run_coupled(std::size_t cells, std::size_t stations, drmp::u32 msdus,
                       drmp::net::AudibilityMatrix reach, bool reference,
                       unsigned workers) {
  ScenarioSpec spec =
      ScenarioSpec::coupled_wifi_cells(cells, stations, kSeed, msdus, std::move(reach));
  spec.coupled_reference = reference;
  spec.worker_threads = workers;
  return ScenarioEngine(std::move(spec)).run();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      drmp::bench::take_json_flag(argc, argv, "BENCH_multicell.json");
  const std::size_t max_cells =
      argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 4;
  const std::size_t stations =
      argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 2;
  const drmp::u32 msdus =
      argc > 3 ? static_cast<drmp::u32>(std::strtoul(argv[3], nullptr, 10)) : 3;

  std::printf("multicell bench: up to %zu co-channel cells x %zu stations, "
              "%u MSDUs each, seed %llu\n\n",
              max_cells, stations, msdus, static_cast<unsigned long long>(kSeed));

  // ---- Gate 1: lax window-edge exchange == immediate reference ----
  const FleetStats ref = run_coupled(2, stations, msdus, {}, /*reference=*/true, 1);
  const FleetStats lax = run_coupled(2, stations, msdus, {}, /*reference=*/false, 1);
  const FleetStats lax_pool =
      run_coupled(2, stations, msdus, {}, /*reference=*/false, 0);
  if (!ref.all_drained || !lax.all_drained) {
    std::printf("BUDGET EXHAUSTED before the coupled cells drained\n");
    return 1;
  }
  if (lax.full_digest() != ref.full_digest() || lax.report() != ref.report()) {
    std::printf("COUPLING MISMATCH: lax run diverged from the immediate "
                "single-scheduler reference\n");
    return 1;
  }
  if (lax_pool.full_digest() != ref.full_digest()) {
    std::printf("PARALLEL MISMATCH: worker-pool lax coupling diverged\n");
    return 1;
  }
  std::printf("gates: lax == reference == all-cores pool (%016llx), "
              "%llu inter-cell collisions\n",
              static_cast<unsigned long long>(ref.full_digest()),
              static_cast<unsigned long long>(ref.total_collisions()));

  // ---- Gate 2: coupled cells collide; isolated spectrum reuse does not ----
  // One station per cell makes every collision an inter-cell one, and an
  // all-zeros reach (mutually hidden pair of cells) is full spatial reuse:
  // it must behave exactly like the same fleet with the coupling erased.
  const drmp::u32 gate_msdus = std::max<drmp::u32>(msdus, 6);
  const FleetStats coupled =
      run_coupled(2, 1, gate_msdus, {}, /*reference=*/false, 1);
  const FleetStats isolated = run_coupled(
      2, 1, gate_msdus, drmp::net::AudibilityMatrix::hidden_pair(2, 0, 1),
      /*reference=*/false, 1);
  ScenarioSpec erased = ScenarioSpec::coupled_wifi_cells(2, 1, kSeed, gate_msdus);
  erased.couplings.clear();
  for (auto& c : erased.cells) c.coupling_group = -1;
  const FleetStats uncoupled = ScenarioEngine(std::move(erased)).run();
  if (coupled.total_collisions() <= isolated.total_collisions()) {
    std::printf("COUPLING INERT: coupled cells (%llu collisions) must out-"
                "collide isolated spectrum reuse (%llu)\n",
                static_cast<unsigned long long>(coupled.total_collisions()),
                static_cast<unsigned long long>(isolated.total_collisions()));
    return 1;
  }
  if (isolated.full_digest() != uncoupled.full_digest()) {
    std::printf("ISOLATION LEAK: all-zeros inter-cell reach diverged from "
                "the uncoupled fleet\n");
    return 1;
  }
  std::printf("gates: coupled %llu collisions vs isolated %llu; all-zeros "
              "reach == uncoupled fleet\n\n",
              static_cast<unsigned long long>(coupled.total_collisions()),
              static_cast<unsigned long long>(isolated.total_collisions()));

  // ---- Interference profile (lax path) ----
  FleetStats largest;  // Largest full-reach fleet feeds the JSON record.
  std::printf("cells  reach    coll   defers  busy_Mcyc  skip     Mcyc/s\n");
  for (std::size_t n = 2; n <= max_cells; n *= 2) {
    for (const bool full : {true, false}) {
      // The partial arm hides the far pair (cells 0 and n-1): spatial reuse
      // at the edges of the deployment, interference in the middle.
      drmp::net::AudibilityMatrix reach =
          full ? drmp::net::AudibilityMatrix{}
               : drmp::net::AudibilityMatrix::hidden_pair(n, 0, n - 1);
      const FleetStats fs =
          run_coupled(n, stations, msdus, std::move(reach), false, 1);
      if (!fs.all_drained) {
        std::printf("BUDGET EXHAUSTED at %zu cells\n", n);
        return 1;
      }
      drmp::u64 busy = 0;
      for (const auto& cs : fs.cells) busy += cs.busy_cycles[0];
      std::printf("%5zu  %-7s %5llu %8llu %10.2f %5.1f %10.2f\n", n,
                  full ? "full" : "hidden",
                  static_cast<unsigned long long>(fs.total_collisions()),
                  static_cast<unsigned long long>(fs.total_defers()),
                  static_cast<double>(busy) / 1e6, fs.skip_ratio(),
                  fs.device_cycles_per_sec() / 1e6);
      if (full) largest = fs;
    }
  }

  if (!json_path.empty()) {
    drmp::bench::JsonRecord rec;
    rec.str("bench", "net_multicell");
    rec.num("cells", static_cast<drmp::u64>(largest.cells.size()));
    rec.num("stations_per_cell", static_cast<drmp::u64>(stations));
    rec.num("msdus_per_station", msdus);
    rec.num("seed", kSeed);
    rec.hex("lax_digest", lax.full_digest());
    rec.hex("ref_digest", ref.full_digest());
    rec.num("coupled_collisions", coupled.total_collisions());
    rec.num("isolated_collisions", isolated.total_collisions());
    rec.num("largest_collisions", largest.total_collisions());
    rec.num("lockstep_cycles", largest.lockstep_cycles);
    rec.num("device_cycles_total", largest.device_cycles_total());
    rec.num("wall_seconds", largest.wall_seconds);
    rec.num("device_cycles_per_sec", largest.device_cycles_per_sec());
    drmp::bench::add_profile(rec, largest);
    rec.hex("full_digest", largest.full_digest());
    if (!rec.write(json_path)) {
      std::printf("FAILED to write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("\njson record: %s\n", json_path.c_str());
  }
  return 0;
}
