// Unified metrics registry — named counter/gauge/histogram aggregates.
//
// Named handles instead of a bespoke accessor per counter: the fleet
// registers every row of the counter tables (scenario/fleet_stats.hpp) as
// `mac/defers`, `medium.A/collided_frames`, `sched/ticks_executed`, ...,
// unprefixed for fleet-wide totals and under `cell<n>/station<id>/` for the
// breakdown.
//
// Everything is integral and stored in ordered maps, so to_text() is
// deterministic and digest-safe to compare across runs. The registry is a
// plain value (copyable); scenario::FleetStats carries one per run.
#pragma once

#include <array>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "common/types.hpp"

namespace drmp::obs {

/// Log2-bucketed histogram of u64 samples: bucket i counts samples whose
/// bit width is i (bucket 0 is the value 0).
struct Histogram {
  static constexpr std::size_t kBuckets = 65;
  std::array<u64, kBuckets> buckets{};
  u64 count = 0;
  u64 sum = 0;
  u64 max = 0;

  void observe(u64 v) noexcept;
};

class MetricsRegistry {
 public:
  /// Accumulates `delta` into the named counter (creating it at zero).
  void add(std::string_view name, u64 delta);
  /// Raises the named gauge to at least `v` (a high-watermark).
  void max_gauge(std::string_view name, i64 v);
  /// Folds one sample into the named histogram.
  void observe(const std::string& name, u64 v);

  std::optional<u64> counter(std::string_view name) const;
  std::optional<i64> gauge(std::string_view name) const;

  bool empty() const noexcept {
    return counters_.empty() && gauges_.empty() && hists_.empty();
  }

  /// Deterministic line-per-metric dump (sorted by name, integers only).
  std::string to_text() const;

 private:
  // Transparent comparators: lookups by string_view allocate nothing.
  std::map<std::string, u64, std::less<>> counters_;
  std::map<std::string, i64, std::less<>> gauges_;
  std::map<std::string, Histogram> hists_;
};

}  // namespace drmp::obs
