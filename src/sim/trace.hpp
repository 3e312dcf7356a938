// Signal tracing: the cycle-approximate equivalent of the Simulink scopes the
// thesis uses for Figs. 5.1-5.9. Components publish named integer channels;
// the recorder stores change events and renders ASCII timing diagrams for the
// bench harnesses.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace drmp::sim {

/// A change event on one channel.
struct TraceEvent {
  Cycle cycle;
  i64 value;
  bool operator==(const TraceEvent&) const = default;
};

class TraceChannel {
 public:
  /// Default retention bound: generous for the figure benches (tens of
  /// thousands of edges) but finite, so a long-running scope can no longer
  /// grow without bound.
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 16;

  explicit TraceChannel(std::string name) : name_(std::move(name)) {}

  const std::string& name() const noexcept { return name_; }

  /// Records `value` at `cycle` if it differs from the last recorded value.
  /// Once `capacity()` change events are retained, further *new* events are
  /// dropped (counted in dropped()); same-cycle overwrites still apply.
  void record(Cycle cycle, i64 value);

  void set_capacity(std::size_t cap) noexcept {
    capacity_ = cap == 0 ? 1 : cap;
  }
  std::size_t capacity() const noexcept { return capacity_; }
  /// Change events discarded because the channel was at capacity.
  u64 dropped() const noexcept { return dropped_; }

  const std::vector<TraceEvent>& events() const noexcept { return events_; }

  /// Value of the channel at `cycle` (last change at or before it).
  std::optional<i64> value_at(Cycle cycle) const;

  /// Total cycles in [from, to) during which the channel held a non-zero
  /// value. Used for busy-time accounting (Tables 5.1/5.2).
  Cycle active_cycles(Cycle from, Cycle to) const;

 private:
  std::string name_;
  std::vector<TraceEvent> events_;
  std::size_t capacity_ = kDefaultCapacity;
  u64 dropped_ = 0;
};

class TraceRecorder {
 public:
  /// Returns (creating on first use) the channel with the given name.
  TraceChannel& channel(const std::string& name);

  /// Renders an ASCII waveform of the selected channels over [from, to),
  /// sampled into `width` columns. Non-zero values print as their value digit
  /// (mod 10) or '#', zero prints as '.'. This is the textual stand-in for
  /// the Simulink scope screenshots in the paper.
  std::string ascii_waveform(const std::vector<std::string>& names, Cycle from, Cycle to,
                             std::size_t width = 100) const;

 private:
  std::map<std::string, TraceChannel> channels_;
};

}  // namespace drmp::sim
