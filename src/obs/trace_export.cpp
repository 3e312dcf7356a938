#include "obs/trace_export.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace drmp::obs {

namespace {

// Everything emitted is integral, so plain operator<< is locale-proof.
void chrome_event(std::ostringstream& os, std::size_t pid, const Event& ev) {
  os << R"({"name":")" << to_string(ev.kind) << R"(","ph":")"
     << (is_span(ev.kind) ? 'X' : 'i') << R"(","ts":)" << ev.cycle
     << R"(,"pid":)" << pid << R"(,"tid":)" << ev.track;
  if (is_span(ev.kind)) {
    os << R"(,"dur":)" << (ev.b > 0 ? ev.b : 1);
  } else {
    os << R"(,"s":"t")";  // Thread-scoped instant.
  }
  os << R"(,"args":{"a":)" << ev.a << R"(,"b":)" << ev.b << "}}";
}

std::optional<i64> value_at(std::span<const Event> evs, Cycle cycle) {
  if (evs.empty() || evs.front().cycle > cycle) return std::nullopt;
  auto it = std::upper_bound(evs.begin(), evs.end(), cycle,
                             [](Cycle c, const Event& e) { return c < e.cycle; });
  return std::prev(it)->a;
}

Cycle active_cycles(std::span<const Event> evs, Cycle from, Cycle to) {
  if (to <= from) return 0;
  Cycle busy = 0;
  for (std::size_t i = 0; i < evs.size(); ++i) {
    if (evs[i].a == 0) continue;
    const Cycle start = std::max(evs[i].cycle, from);
    const Cycle end = std::min((i + 1 < evs.size()) ? evs[i + 1].cycle : to, to);
    if (end > start) busy += end - start;
  }
  return busy;
}

}  // namespace

std::string chrome_trace(const std::vector<const FlightRecorder*>& cells) {
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };
  for (std::size_t pid = 0; pid < cells.size(); ++pid) {
    if (cells[pid] == nullptr) continue;
    sep();
    os << R"({"name":"process_name","ph":"M","pid":)" << pid
       << R"(,"args":{"name":"cell)" << pid << R"("}})";
    const auto& tracks = cells[pid]->tracks();
    for (std::size_t t = 0; t < tracks.size(); ++t) {
      sep();
      os << R"({"name":"thread_name","ph":"M","pid":)" << pid << R"(,"tid":)"
         << t << R"(,"args":{"name":")" << tracks[t] << R"("}})";
    }
    for (const Event& ev : cells[pid]->events()) {
      sep();
      chrome_event(os, pid, ev);
    }
  }
  os << "]}\n";
  return os.str();
}

std::string text_timeline(const std::vector<const FlightRecorder*>& cells) {
  std::ostringstream os;
  char line[160];
  for (std::size_t pid = 0; pid < cells.size(); ++pid) {
    if (cells[pid] == nullptr) continue;
    const auto& tracks = cells[pid]->tracks();
    for (const Event& ev : cells[pid]->events()) {
      if (!protocol_domain(ev.kind)) continue;
      const char* track = ev.track < tracks.size()
                              ? tracks[ev.track].c_str()
                              : "?";
      std::snprintf(line, sizeof(line),
                    "cell%zu @%012llu %-12s %-14s a=%lld b=%lld\n", pid,
                    static_cast<unsigned long long>(ev.cycle), track,
                    to_string(ev.kind), static_cast<long long>(ev.a),
                    static_cast<long long>(ev.b));
      os << line;
    }
  }
  return os.str();
}

std::span<const Event> track_events(const FlightRecorder& rec,
                                    const std::string& track) {
  rec.require_signal_history();
  const std::optional<u16> id = rec.find_track(track);
  return id ? rec.signal_events(*id) : std::span<const Event>{};
}

std::optional<i64> value_at(const FlightRecorder& rec, const std::string& track,
                            Cycle cycle) {
  return value_at(track_events(rec, track), cycle);
}

Cycle active_cycles(const FlightRecorder& rec, const std::string& track,
                    Cycle from, Cycle to) {
  return active_cycles(track_events(rec, track), from, to);
}

std::string ascii_waveform(const FlightRecorder& rec,
                           const std::vector<std::string>& names, Cycle from,
                           Cycle to, std::size_t width) {
  rec.require_signal_history();
  std::ostringstream os;
  if (to <= from || width == 0) return {};
  const double span = static_cast<double>(to - from);
  std::size_t label_w = 0;
  for (const auto& n : names) label_w = std::max(label_w, n.size());
  for (const auto& n : names) {
    os << n << std::string(label_w - n.size(), ' ') << " |";
    const std::optional<u16> id = rec.find_track(n);
    if (!id) {
      os << std::string(width, '?') << "|\n";
      continue;
    }
    const std::span<const Event> evs = rec.signal_events(*id);
    for (std::size_t col = 0; col < width; ++col) {
      const Cycle c = from + static_cast<Cycle>(span * static_cast<double>(col) / static_cast<double>(width));
      const Cycle cn = from + static_cast<Cycle>(span * static_cast<double>(col + 1) / static_cast<double>(width));
      // A column shows activity if the track is non-zero anywhere in it.
      const Cycle act = active_cycles(evs, c, std::max(cn, c + 1));
      if (act == 0) {
        os << '.';
      } else {
        const auto v = value_at(evs, std::max(cn, c + 1) - 1).value_or(1);
        if (v > 0 && v < 10) {
          os << static_cast<char>('0' + v);
        } else {
          os << '#';
        }
      }
    }
    os << "|\n";
  }
  return os.str();
}

}  // namespace drmp::obs
