// Fleet scenario bench: an 8-device (override with argv[1]) three-standard
// mixed-traffic fleet over lossy channels.
//
//   1. Determinism: two batched runs with the same seed must produce
//      byte-identical aggregate stats, and the every-tick oracle
//      (ScenarioSpec::idle_skip = false) must produce the same full digest.
//   2. Throughput: idle-skipping lockstep vs the every-tick oracle, measured
//      over alternating repetitions with the median taken per arm to
//      suppress host noise. A parallel-workers batched run is reported when
//      the host has more than one core (it is digest-identical to the
//      serial run).
//
//   3. Quiescence: the batched run skips provably-idle component ticks
//      (sim/scheduler.hpp); the digests above pin that skipping is
//      bit-identical, and the skip ratio is reported as the workload's idle
//      dominance.
//
//   4. Scaling (--devices): a device-count sweep of the batched path,
//      reporting aggregate device-cycles/sec per point (reciprocal: host ns
//      per device-cycle) — the curve that proves the scheduler's per-device
//      cost stays flat as fleets grow. CI gates the 1k-device point at
//      >= 0.5x the 64-device rate.
//
//   $ ./bench_scenario_fleet [num_devices] [msdus_per_mode] [repetitions]
//         [--json[=PATH]] [--devices[=N1,N2,...]]
//
//   --json writes the machine-readable record (cycles, wall seconds,
//   cycles/sec, skip ratio, digests) to BENCH_fleet.json (or PATH).
//   --devices appends the scaling sweep (default points 64,256,1024,4096) to the
//   table and the JSON record as sweep_cpsd_<N> keys.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "scenario/scenario_engine.hpp"

namespace {

using drmp::scenario::FleetStats;
using drmp::scenario::ScenarioEngine;
using drmp::scenario::ScenarioSpec;

/// Consumes a `--devices` / `--devices=N1,N2,...` argument (anywhere in
/// argv). Returns the sweep points — the 64/256/1k/4k defaults for the bare
/// flag, empty when absent (no sweep).
std::vector<std::size_t> take_devices_flag(int& argc, char** argv) {
  bool present = false;
  std::string list;
  int w = 1;
  for (int r = 1; r < argc; ++r) {
    if (std::strcmp(argv[r], "--devices") == 0) {
      present = true;
      list.clear();
    } else if (std::strncmp(argv[r], "--devices=", 10) == 0) {
      present = true;
      list = argv[r] + 10;
    } else {
      argv[w++] = argv[r];
    }
  }
  argc = w;
  if (!present) return {};
  if (list.empty()) return {64, 256, 1024, 4096};
  std::vector<std::size_t> out;
  for (std::size_t pos = 0; pos < list.size();) {
    const std::size_t comma = std::min(list.find(',', pos), list.size());
    out.push_back(std::strtoul(list.substr(pos, comma - pos).c_str(), nullptr, 10));
    pos = comma + 1;
  }
  return out;
}

/// Consumes a `--checkpoint-roundtrip` argument (anywhere in argv).
bool take_checkpoint_flag(int& argc, char** argv) {
  bool present = false;
  int w = 1;
  for (int r = 1; r < argc; ++r) {
    if (std::strcmp(argv[r], "--checkpoint-roundtrip") == 0) {
      present = true;
    } else {
      argv[w++] = argv[r];
    }
  }
  argc = w;
  return present;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      drmp::bench::take_json_flag(argc, argv, "BENCH_fleet.json");
  const std::vector<std::size_t> sweep_points = take_devices_flag(argc, argv);
  const bool checkpoint_roundtrip = take_checkpoint_flag(argc, argv);
  const std::size_t n_devices = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 8;
  const drmp::u32 msdus =
      argc > 2 ? static_cast<drmp::u32>(std::strtoul(argv[2], nullptr, 10)) : 3;
  const int reps = std::max(1, argc > 3 ? std::atoi(argv[3]) : 3);
  constexpr drmp::u64 kSeed = 2008;

  const auto make_spec = [&](unsigned workers) {
    ScenarioSpec spec = ScenarioSpec::mixed_three_standard(n_devices, kSeed, msdus);
    spec.max_cycles = 60'000'000;
    spec.worker_threads = workers;
    if (workers != 1) spec.lockstep_stride = 32'768;
    return spec;
  };
  const auto make_every_tick = [&] {
    ScenarioSpec spec = make_spec(1);
    spec.idle_skip = false;
    return spec;
  };

  std::printf("fleet: %zu devices, %u MSDUs per active mode, seed %llu, %d reps\n\n",
              n_devices, msdus, static_cast<unsigned long long>(kSeed), reps);

  // ---- Correctness gates ----
  const FleetStats batched = ScenarioEngine(make_spec(1)).run();
  const FleetStats repeat = ScenarioEngine(make_spec(1)).run();
  const FleetStats every_tick = ScenarioEngine(make_every_tick()).run();

  std::printf("%s\n", batched.report().c_str());

  if (batched.full_digest() != repeat.full_digest() ||
      batched.report() != repeat.report()) {
    std::printf("DETERMINISM FAILURE: two batched runs with the same seed diverged\n");
    return 1;
  }
  std::printf("determinism: two batched runs byte-identical (digest %016llx)\n",
              static_cast<unsigned long long>(batched.full_digest()));

  if (batched.full_digest() != every_tick.full_digest()) {
    std::printf("SKIP MISMATCH: idle-skip and every-tick runs diverged\n");
    return 1;
  }
  if (!batched.all_drained) {
    std::printf("BUDGET EXHAUSTED before the fleet drained\n");
    return 1;
  }
  std::printf("equivalence: idle-skip and every-tick full digests match\n");

  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  if (cores > 1) {
    const FleetStats parallel = ScenarioEngine(make_spec(0)).run();
    if (parallel.completion_digest() != batched.completion_digest()) {
      std::printf("PARALLEL MISMATCH: worker-thread run diverged from serial\n");
      return 1;
    }
    std::printf("parallel:    %u-worker batched run matches serial digests\n", cores);
  }

  // ---- Checkpoint roundtrip gate (--checkpoint-roundtrip) ----
  // Half-run save, fresh-engine resume, digest assert: the interrupted-and-
  // resumed fleet must reproduce the uninterrupted full_digest bit-for-bit.
  double ckpt_resume_seconds = 0.0;
  drmp::u64 ckpt_snapshot_bytes = 0;
  drmp::Cycle ckpt_half_cycles = 0;
  if (checkpoint_roundtrip) {
    const std::string snap_path = "BENCH_fleet.snap";
    ScenarioSpec half = make_spec(1);
    const drmp::Cycle stride = half.lockstep_stride;
    drmp::Cycle half_cycles = batched.lockstep_cycles / 2 / stride * stride;
    if (half_cycles == 0) half_cycles = stride;
    ckpt_half_cycles = half_cycles;
    half.max_cycles = half_cycles;  // "crash" at the half-way round edge.
    ScenarioEngine saver(std::move(half));
    saver.checkpoint_every(half_cycles, snap_path);
    (void)saver.run();
    if (std::FILE* f = std::fopen(snap_path.c_str(), "rb")) {
      std::fseek(f, 0, SEEK_END);
      ckpt_snapshot_bytes = static_cast<drmp::u64>(std::ftell(f));
      std::fclose(f);
    }
    ScenarioEngine resumer(make_spec(1));
    const auto r0 = std::chrono::steady_clock::now();
    resumer.resume(snap_path);
    ckpt_resume_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - r0)
            .count();
    const FleetStats resumed = resumer.run();
    if (resumed.full_digest() != batched.full_digest() ||
        resumed.report() != batched.report()) {
      std::printf(
          "CHECKPOINT MISMATCH: the interrupted-and-resumed run diverged from "
          "the uninterrupted digest\n");
      return 1;
    }
    std::remove(snap_path.c_str());
    std::printf(
        "checkpoint:  half-run snapshot at cycle %llu (%llu bytes) resumed in "
        "%.3f ms; digests byte-identical\n",
        static_cast<unsigned long long>(half_cycles),
        static_cast<unsigned long long>(ckpt_snapshot_bytes),
        1e3 * ckpt_resume_seconds);
  }

  // ---- Throughput: interleaved passes (A,B,A,B), median per arm ----
  std::vector<std::function<double()>> arms = {
      [&] { return ScenarioEngine(make_spec(1)).run().device_cycles_per_sec(); },
      [&] { return ScenarioEngine(make_every_tick()).run().device_cycles_per_sec(); },
  };
  if (cores > 1) {
    arms.push_back(
        [&] { return ScenarioEngine(make_spec(0)).run().device_cycles_per_sec(); });
  }
  const auto samples = drmp::bench::interleaved_samples(arms, reps);
  const double batched_rate = drmp::bench::median_rate(samples[0]);
  const double every_tick_rate = drmp::bench::median_rate(samples[1]);
  std::printf("\nthroughput (simulated device-cycles / host second, median of %d):\n",
              reps);
  std::printf("  batched lockstep   : %12.3e\n", batched_rate);
  std::printf("  every-tick oracle  : %12.3e\n", every_tick_rate);
  if (samples.size() > 2) {
    std::printf("  batched x%-2u workers: %12.3e\n", cores,
                drmp::bench::median_rate(samples[2]));
  }
  if (every_tick_rate > 0.0) {
    const double speedup = batched_rate / every_tick_rate;
    std::printf("  idle-skip speedup  : %.3fx%s\n", speedup,
                speedup >= 0.97 ? "" : "  [SLOWER THAN EVERY-TICK]");
  }
  std::printf("  idle-skip ratio    : %.2f skipped ticks per executed tick\n",
              batched.skip_ratio());

  // ---- Device-count scaling sweep (--devices) ----
  // One MSDU per active mode per device: enough traffic that every cell
  // exercises the full pipeline, short enough that the 1k point stays
  // CI-sized. The figure per point is the aggregate simulated
  // device-cycles per host second — its reciprocal is the host cost of one
  // device-cycle, so the curve is flat exactly when the scheduler's
  // per-device cost is constant (an O(N^2) structure would decay it by the
  // fleet-growth factor). Points are interleaved across the passes
  // (64,256,1k,64,...) and each reports its best pass — the
  // scheduler-scaling figure, not the host's thermal history.
  std::vector<double> sweep_cpsd(sweep_points.size(), 0.0);
  if (!sweep_points.empty()) {
    std::vector<std::function<double()>> sweep_arms;
    sweep_arms.reserve(sweep_points.size());
    for (const std::size_t n : sweep_points) {
      sweep_arms.push_back([&, n] {
        ScenarioSpec spec = ScenarioSpec::mixed_three_standard(n, kSeed, 1);
        spec.max_cycles = 60'000'000;
        spec.worker_threads = 1;
        const FleetStats fs = ScenarioEngine(std::move(spec)).run();
        return fs.device_cycles_per_sec();
      });
    }
    const auto sweep_samples = drmp::bench::interleaved_samples(sweep_arms, 2);
    std::printf(
        "\ndevice-count scaling (device-cycles/sec, best of 2 interleaved):\n");
    for (std::size_t k = 0; k < sweep_points.size(); ++k) {
      sweep_cpsd[k] = drmp::bench::best_rate(sweep_samples[k]);
      std::printf("  %5zu devices: %12.3e  (%6.1f ns per device-cycle, %.2fx the "
                  "%zu-device rate)\n",
                  sweep_points[k], sweep_cpsd[k],
                  sweep_cpsd[k] > 0.0 ? 1e9 / sweep_cpsd[k] : 0.0,
                  sweep_cpsd[0] > 0.0 ? sweep_cpsd[k] / sweep_cpsd[0] : 0.0,
                  sweep_points[0]);
    }
  }

  if (!json_path.empty()) {
    drmp::bench::JsonRecord rec;
    rec.str("bench", "scenario_fleet");
    rec.num("devices", static_cast<drmp::u64>(n_devices));
    rec.num("msdus_per_mode", msdus);
    rec.num("seed", kSeed);
    rec.num("lockstep_cycles", batched.lockstep_cycles);
    rec.num("device_cycles_total", batched.device_cycles_total());
    rec.num("wall_seconds", batched.wall_seconds);
    rec.num("device_cycles_per_sec", batched_rate);
    rec.num("every_tick_device_cycles_per_sec", every_tick_rate);
    rec.num("speedup_vs_every_tick",
            every_tick_rate > 0.0 ? batched_rate / every_tick_rate : 0.0);
    if (checkpoint_roundtrip) {
      rec.num("checkpoint_roundtrip_ok", 1);
      rec.num("checkpoint_half_cycles", ckpt_half_cycles);
      rec.num("checkpoint_resume_seconds", ckpt_resume_seconds);
      rec.num("checkpoint_snapshot_bytes", ckpt_snapshot_bytes);
    }
    if (!sweep_points.empty()) {
      std::string pts;
      for (const std::size_t n : sweep_points) {
        if (!pts.empty()) pts += ",";
        pts += std::to_string(n);
      }
      rec.str("sweep_devices", pts);
      for (std::size_t k = 0; k < sweep_points.size(); ++k) {
        rec.num("sweep_cpsd_" + std::to_string(sweep_points[k]), sweep_cpsd[k]);
      }
    }
    drmp::bench::add_profile(rec, batched);
    rec.hex("full_digest", batched.full_digest());
    rec.hex("completion_digest", batched.completion_digest());
    if (!rec.write(json_path)) {
      std::printf("FAILED to write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("json record        : %s\n", json_path.c_str());
  }
  return 0;
}
