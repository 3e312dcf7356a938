// Contention bench: shared-medium WiFi cells at increasing station counts.
//
//   1. Correctness gates: a contended cell's digests are byte-identical
//      across repeat runs and across worker_threads in {1, 0} (the serial
//      reference and the all-cores pool).
//   2. Contention profile per station count: collisions, CSMA deferrals,
//      retries, channel occupancy (airtime share of the busy band), and the
//      per-fleet energy estimate — the saturation behaviour the DRMP's
//      power argument rides on.
//   3. Throughput: simulated device-cycles per host second of the batched
//      lockstep path over the contended cells.
//
//   $ ./bench_net_contention [max_stations] [msdus_per_station] [reps] [--json[=PATH]]
//
//   --json writes the machine-readable record of the largest cell (cycles,
//   wall seconds, cycles/sec, skip ratio, contention counters) to
//   BENCH_contention.json (or PATH).
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "scenario/scenario_engine.hpp"

namespace {

using drmp::scenario::FleetStats;
using drmp::scenario::ScenarioEngine;
using drmp::scenario::ScenarioSpec;

// The canonical acceptance seed (tests/scenario_test.cpp pins the same
// 4-station cell): backoff draws are slot-quantized, so whether two stations
// ever pick the same slot — a real collision — is seed-dependent.
constexpr drmp::u64 kSeed = 1;

FleetStats run_cell(std::size_t stations, drmp::u32 msdus, unsigned workers) {
  ScenarioSpec spec = ScenarioSpec::contended_wifi_cell(stations, kSeed, msdus);
  spec.worker_threads = workers;
  return ScenarioEngine(std::move(spec)).run();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      drmp::bench::take_json_flag(argc, argv, "BENCH_contention.json");
  const std::size_t max_stations =
      argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 8;
  const drmp::u32 msdus =
      argc > 2 ? static_cast<drmp::u32>(std::strtoul(argv[2], nullptr, 10)) : 6;
  const int reps = std::max(1, argc > 3 ? std::atoi(argv[3]) : 2);

  std::printf("contention bench: up to %zu stations, %u MSDUs each, seed %llu\n\n",
              max_stations, msdus, static_cast<unsigned long long>(kSeed));

  // ---- Correctness gates on the 4-station cell ----
  {
    const FleetStats a = run_cell(4, msdus, 1);
    const FleetStats b = run_cell(4, msdus, 1);
    const FleetStats par = run_cell(4, msdus, 0);
    if (a.full_digest() != b.full_digest() || a.report() != b.report()) {
      std::printf("DETERMINISM FAILURE: repeat contended runs diverged\n");
      return 1;
    }
    if (a.full_digest() != par.full_digest()) {
      std::printf("PARALLEL MISMATCH: worker-pool contended run diverged\n");
      return 1;
    }
    if (!a.all_drained) {
      std::printf("BUDGET EXHAUSTED before the contended cell drained\n");
      return 1;
    }
    if (a.total_collisions() == 0 || a.total_defers() == 0) {
      std::printf("CONTENTION MISSING: expected collisions and defers > 0\n");
      return 1;
    }
    std::printf("gates: repeat + all-cores worker digests identical (%016llx), "
                "%llu collisions, %llu defers\n\n",
                static_cast<unsigned long long>(a.full_digest()),
                static_cast<unsigned long long>(a.total_collisions()),
                static_cast<unsigned long long>(a.total_defers()));
  }

  // ---- Saturation profile ----
  // One timing arm per station count, interleaved across the passes
  // (2,4,...,N,2,4,...) through bench_common's helper: sequential best-of-N
  // per point would hand the small cells the host's cold turbo headroom and
  // tilt the saturation curve.
  std::vector<std::size_t> points;
  for (std::size_t n = 2; n <= max_stations; n *= 2) points.push_back(n);
  std::vector<FleetStats> cell_stats(points.size());
  std::size_t exhausted_at = 0;
  std::vector<std::function<double()>> arms;
  arms.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    arms.push_back([&, i] {
      FleetStats fs = run_cell(points[i], msdus, 1);
      if (!fs.all_drained && exhausted_at == 0) exhausted_at = points[i];
      const double rate = fs.device_cycles_per_sec();
      cell_stats[i] = std::move(fs);
      return rate;
    });
  }
  const auto samples = drmp::bench::interleaved_samples(arms, reps);
  if (exhausted_at != 0) {
    std::printf("BUDGET EXHAUSTED at %zu stations\n", exhausted_at);
    return 1;
  }
  std::printf("stations   coll  defers retries  airtime%%  gated_mW  Mcyc/s\n");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const FleetStats& fs = cell_stats[i];
    drmp::u64 retries = 0;
    for (const auto& ds : fs.devices) retries += ds.retries[0];
    double airshare = 0.0;
    if (!fs.cells.empty() && fs.lockstep_cycles > 0) {
      airshare = 100.0 * static_cast<double>(fs.cells[0].busy_cycles[0]) /
                 static_cast<double>(fs.lockstep_cycles);
    }
    std::printf("%8zu %6llu %7llu %7llu %9.2f %9.2f %7.2f\n", points[i],
                static_cast<unsigned long long>(fs.total_collisions()),
                static_cast<unsigned long long>(fs.total_defers()),
                static_cast<unsigned long long>(retries), airshare,
                fs.fleet_gated_mw(), drmp::bench::best_rate(samples[i]) / 1e6);
  }
  FleetStats largest = std::move(cell_stats.back());

  if (!json_path.empty()) {
    drmp::bench::JsonRecord rec;
    rec.str("bench", "net_contention");
    rec.num("stations", static_cast<drmp::u64>(largest.devices.size()));
    rec.num("msdus_per_station", msdus);
    rec.num("seed", kSeed);
    rec.num("lockstep_cycles", largest.lockstep_cycles);
    rec.num("device_cycles_total", largest.device_cycles_total());
    rec.num("wall_seconds", largest.wall_seconds);
    rec.num("device_cycles_per_sec", largest.device_cycles_per_sec());
    rec.num("collisions", largest.total_collisions());
    rec.num("defers", largest.total_defers());
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
