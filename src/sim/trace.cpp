#include "sim/trace.hpp"

#include <algorithm>
#include <sstream>

namespace drmp::sim {

void TraceChannel::record(Cycle cycle, i64 value) {
  if (!events_.empty() && events_.back().value == value) return;
  if (!events_.empty() && events_.back().cycle == cycle) {
    events_.back().value = value;
    // Collapse if the overwrite made it equal to its predecessor.
    if (events_.size() >= 2 && events_[events_.size() - 2].value == value) {
      events_.pop_back();
    }
    return;
  }
  if (events_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  events_.push_back({cycle, value});
}

std::optional<i64> TraceChannel::value_at(Cycle cycle) const {
  if (events_.empty() || events_.front().cycle > cycle) return std::nullopt;
  auto it = std::upper_bound(events_.begin(), events_.end(), cycle,
                             [](Cycle c, const TraceEvent& e) { return c < e.cycle; });
  return std::prev(it)->value;
}

Cycle TraceChannel::active_cycles(Cycle from, Cycle to) const {
  if (to <= from) return 0;
  Cycle busy = 0;
  for (std::size_t i = 0; i < events_.size(); ++i) {
    if (events_[i].value == 0) continue;
    const Cycle start = std::max(events_[i].cycle, from);
    const Cycle end =
        std::min((i + 1 < events_.size()) ? events_[i + 1].cycle : to, to);
    if (end > start) busy += end - start;
  }
  return busy;
}

TraceChannel& TraceRecorder::channel(const std::string& name) {
  return channels_.try_emplace(name, name).first->second;
}

std::string TraceRecorder::ascii_waveform(const std::vector<std::string>& names, Cycle from,
                                          Cycle to, std::size_t width) const {
  std::ostringstream os;
  if (to <= from || width == 0) return {};
  const double span = static_cast<double>(to - from);
  std::size_t label_w = 0;
  for (const auto& n : names) label_w = std::max(label_w, n.size());
  for (const auto& n : names) {
    os << n << std::string(label_w - n.size(), ' ') << " |";
    auto it = channels_.find(n);
    if (it == channels_.end()) {
      os << std::string(width, '?') << "|\n";
      continue;
    }
    for (std::size_t col = 0; col < width; ++col) {
      const Cycle c = from + static_cast<Cycle>(span * static_cast<double>(col) / static_cast<double>(width));
      const Cycle cn = from + static_cast<Cycle>(span * static_cast<double>(col + 1) / static_cast<double>(width));
      // A column shows activity if the channel is non-zero anywhere in it.
      const Cycle act = it->second.active_cycles(c, std::max(cn, c + 1));
      if (act == 0) {
        os << '.';
      } else {
        const auto v = it->second.value_at(std::max(cn, c + 1) - 1).value_or(1);
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

}  // namespace drmp::sim
