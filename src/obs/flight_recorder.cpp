#include "obs/flight_recorder.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace drmp::obs {

const char* to_string(EventKind k) noexcept {
  switch (k) {
    case EventKind::kOffered: return "offered";
    case EventKind::kTxStart: return "tx_start";
    case EventKind::kCollision: return "collision";
    case EventKind::kDelivery: return "delivery";
    case EventKind::kGarbled: return "garbled";
    case EventKind::kDrop: return "drop";
    case EventKind::kComplete: return "complete";
    case EventKind::kExpiry: return "expiry";
    case EventKind::kNavArm: return "nav_arm";
    case EventKind::kNavReset: return "nav_reset";
    case EventKind::kCcaBusy: return "cca_busy";
    case EventKind::kCcaIdle: return "cca_idle";
    case EventKind::kCcaDefer: return "cca_defer";
    case EventKind::kNavDefer: return "nav_defer";
    case EventKind::kEifsWait: return "eifs_wait";
    case EventKind::kRemoteCarrier: return "remote_carrier";
    case EventKind::kTopologyEpoch: return "topology_epoch";
    case EventKind::kAssociate: return "associate";
    case EventKind::kReassociate: return "reassociate";
    case EventKind::kHandoff: return "handoff";
    case EventKind::kRateChange: return "rate_change";
    case EventKind::kSkipSpan: return "skip_span";
    case EventKind::kFastForward: return "fast_forward";
    case EventKind::kSignal: return "signal";
    case EventKind::kBusRequest: return "bus_request";
    case EventKind::kBusRelease: return "bus_release";
    case EventKind::kBusAccess: return "bus_access";
    case EventKind::kBusRun: return "bus_run";
    case EventKind::kBusBurst: return "bus_burst";
  }
  return "?";
}

bool protocol_domain(EventKind k) noexcept {
  return k < EventKind::kSkipSpan;
}

bool is_span(EventKind k) noexcept {
  return k == EventKind::kTxStart || k == EventKind::kRemoteCarrier ||
         k == EventKind::kSkipSpan || k == EventKind::kFastForward;
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  proto_.buf.reserve(std::min<std::size_t>(capacity_, std::size_t{1} << 12));
}

u16 FlightRecorder::track(const std::string& name) {
  const auto it = track_ids_.find(name);
  if (it != track_ids_.end()) return it->second;
  if (track_names_.size() >= 0xFFFF) {
    throw std::length_error("FlightRecorder: track id space exhausted");
  }
  const auto id = static_cast<u16>(track_names_.size());
  track_names_.push_back(name);
  track_ids_.emplace(name, id);
  return id;
}

std::optional<u16> FlightRecorder::find_track(const std::string& name) const {
  const auto it = track_ids_.find(name);
  if (it == track_ids_.end()) return std::nullopt;
  return it->second;
}

void FlightRecorder::Ring::push(const Event& ev, std::size_t capacity) {
  if (buf.size() < capacity) {
    buf.push_back(ev);
    return;
  }
  // Full: overwrite the oldest entry so a long run keeps its tail, which is
  // where the interesting divergence usually is.
  buf[head] = ev;
  head = (head + 1) % capacity;
  ++dropped;
}

void FlightRecorder::Ring::append_to(std::vector<Event>& out) const {
  for (std::size_t i = head; i < buf.size(); ++i) out.push_back(buf[i]);
  for (std::size_t i = 0; i < head; ++i) out.push_back(buf[i]);
}

void FlightRecorder::log(Cycle cycle, EventKind kind, u16 track, i64 a,
                         i64 b) {
  const Event ev{cycle, track, kind, a, b};
  if (kind >= EventKind::kSignal) {
    push_signal(ev);
  } else {
    (protocol_domain(kind) ? proto_ : exec_).push(ev, capacity_);
  }
}

void FlightRecorder::push_signal(const Event& ev) {
  if (signal_size_ >= capacity_) {
    ++signal_dropped_;
    return;
  }
  if (ev.track >= signals_.size()) signals_.resize(ev.track + std::size_t{1});
  signals_[ev.track].push_back(ev);
  ++signal_size_;
}

void FlightRecorder::signal(Cycle cycle, u16 track, i64 value) {
  if (track < signals_.size() && !signals_[track].empty()) {
    std::vector<Event>& evs = signals_[track];
    if (evs.back().a == value) return;
    if (evs.back().cycle == cycle) {
      evs.back().a = value;
      // Collapse if the overwrite made it equal to its predecessor.
      if (evs.size() >= 2 && evs[evs.size() - 2].a == value) {
        evs.pop_back();
        --signal_size_;
      }
      return;
    }
  }
  push_signal({cycle, track, EventKind::kSignal, value, 0});
}

void FlightRecorder::require_signal_history() const {
  if (signal_dropped_ == 0) return;
  throw std::runtime_error(
      "FlightRecorder: the signal domain dropped " +
      std::to_string(signal_dropped_) + " events past its capacity of " +
      std::to_string(capacity_) + "; raise the capacity to read its history");
}

std::span<const Event> FlightRecorder::signal_events(u16 track) const {
  if (track >= signals_.size()) return {};
  return signals_[track];
}

std::size_t FlightRecorder::size() const noexcept {
  return proto_.buf.size() + exec_.buf.size() + signal_size_;
}

std::vector<Event> FlightRecorder::events() const {
  std::vector<Event> out;
  out.reserve(size());
  proto_.append_to(out);
  exec_.append_to(out);
  for (const std::vector<Event>& evs : signals_) {
    out.insert(out.end(), evs.begin(), evs.end());
  }
  return out;
}

}  // namespace drmp::obs
