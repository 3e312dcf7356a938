// Exporters over flight-recorder rings.
//
// chrome_trace() emits Chrome trace-event JSON (the array-of-events form
// Perfetto and chrome://tracing both load): one process per cell, one
// thread track per registered track name, complete "X" slices for spans
// and "i" instants otherwise. Timestamps are raw integer cycles — the
// viewer's microsecond label reads as cycles, which keeps the file
// byte-stable (no floats anywhere).
//
// text_timeline() renders only protocol-domain events, in log order, as
// fixed-format lines — the golden-test surface. Execution-domain events
// are excluded because they legitimately differ across idle-skip and
// worker-count settings; so are signal-domain events.
//
// The scope queries below read signal tracks by name for the figure
// benches. Each throws on a recorder whose signal domain dropped events
// (FlightRecorder::require_signal_history).
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "obs/flight_recorder.hpp"

namespace drmp::obs {

std::string chrome_trace(const std::vector<const FlightRecorder*>& cells);
std::string text_timeline(const std::vector<const FlightRecorder*>& cells);

/// The signal-domain events of the named track (empty if unregistered).
std::span<const Event> track_events(const FlightRecorder& rec,
                                    const std::string& track);
/// Value of a signal track at `cycle` (its last change at or before it).
std::optional<i64> value_at(const FlightRecorder& rec, const std::string& track,
                            Cycle cycle);
/// Cycles in [from, to) during which the signal track held a non-zero
/// value. Used for busy-time accounting (Tables 5.1/5.2).
Cycle active_cycles(const FlightRecorder& rec, const std::string& track,
                    Cycle from, Cycle to);
/// Renders an ASCII waveform of the named signal tracks over [from, to),
/// sampled into `width` columns: a value 1-9 prints as its digit, any other
/// non-zero value as '#', zero as '.', an unregistered track as '?'. This
/// is the textual stand-in for the paper's Simulink scope screenshots.
std::string ascii_waveform(const FlightRecorder& rec,
                           const std::vector<std::string>& names, Cycle from,
                           Cycle to, std::size_t width = 100);

}  // namespace drmp::obs
