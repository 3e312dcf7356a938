// The execution profile: how a run was executed, not what it simulated.
//
// One struct and one row table serve every user. sim::Scheduler fills the
// per-domain rows (its ticks_* and medium_ticks_* rows are sums of its
// per-component counts), sim::MultiScheduler the lockstep rows,
// scenario::FleetStats derives from the struct and folds both in, and the
// bench JSON records and the `sched/` registry keys iterate kExecRows.
// The counters are execution-strategy artefacts: they differ between
// idle-skip modes and worker counts, so no digest or report reads them.
#pragma once

#include <algorithm>

#include "common/types.hpp"

namespace drmp::sim {

/// How a counter combines across bands, stations and clock domains.
enum class FoldRule : u8 { kSum, kMax };

/// Combines two values of one counter by its fold rule.
constexpr u64 combine(FoldRule fold, u64 a, u64 b) noexcept {
  return fold == FoldRule::kSum ? a + b : std::max(a, b);
}

struct ExecProfile {
  u64 ticks_executed = 0;         ///< Component-ticks actually run.
  u64 ticks_skipped = 0;          ///< Component-ticks replaced by skip_idle.
  Cycle ff_cycles = 0;            ///< Globally-quiescent cycles fast-forwarded.
  u64 ff_events = 0;              ///< Fast-forward jumps taken.
  u64 wheel_depth_max = 0;        ///< Wake-wheel high-watermark (live + stale).
  u64 wheel_cascades = 0;         ///< Timing-wheel buckets re-hashed downward.
  u64 wheel_purges = 0;           ///< Stale-majority wake-wheel sweeps.
  u64 medium_ticks_executed = 0;  ///< Ticks run by kStageMedium components.
  u64 medium_ticks_skipped = 0;   ///< Ticks skipped by kStageMedium components.
  u64 lockstep_rounds = 0;        ///< MultiScheduler rounds.
  u64 lane_rounds_skipped = 0;    ///< Quiescent lane-round skips, summed.
  Cycle lane_stall_cycles = 0;    ///< Cycles lanes sat parked in skipped rounds.

  /// Skipped-to-executed component-tick ratio (the run's idle dominance).
  double skip_ratio() const {
    return ticks_executed == 0 ? 0.0
                               : static_cast<double>(ticks_skipped) /
                                     static_cast<double>(ticks_executed);
  }
};

/// One execution-profile counter: its name (the bench JSON key, registered
/// as sched/<name>), its member and how it folds across clock domains.
struct ExecRow {
  const char* name;
  u64 ExecProfile::*field;
  FoldRule fold = FoldRule::kSum;
};

inline constexpr ExecRow kExecRows[] = {
    {"ticks_executed", &ExecProfile::ticks_executed},
    {"ticks_skipped", &ExecProfile::ticks_skipped},
    {"ff_cycles", &ExecProfile::ff_cycles},
    {"ff_events", &ExecProfile::ff_events},
    {"wheel_depth_max", &ExecProfile::wheel_depth_max, FoldRule::kMax},
    {"wheel_cascades", &ExecProfile::wheel_cascades},
    {"wheel_purges", &ExecProfile::wheel_purges},
    {"medium_ticks_executed", &ExecProfile::medium_ticks_executed},
    {"medium_ticks_skipped", &ExecProfile::medium_ticks_skipped},
    {"lockstep_rounds", &ExecProfile::lockstep_rounds},
    {"lane_rounds_skipped", &ExecProfile::lane_rounds_skipped},
    {"lane_stall_cycles", &ExecProfile::lane_stall_cycles},
};

}  // namespace drmp::sim
