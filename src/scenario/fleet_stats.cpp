#include "scenario/fleet_stats.hpp"

#include <cstdio>

namespace drmp::scenario {

namespace {

/// Mixes every row of class `upto` or earlier in the frozen v1 order: class
/// by class, per-mode rows band by band, then scalar rows.
template <class Stats, std::size_t N>
void mix_rows(const Stats& s, const CounterRow<Stats> (&rows)[N], sim::Digest& d,
              DigestClass upto) {
  for (std::size_t c = 0; c <= static_cast<std::size_t>(upto); ++c) {
    const auto cls = static_cast<DigestClass>(c);
    for (std::size_t m = 0; m < kNumModes; ++m) {
      for (const CounterRow<Stats>& row : rows) {
        if (row.digest == cls && row.per_mode()) d.mix(row.at(s, m));
      }
    }
    for (const CounterRow<Stats>& row : rows) {
      if (row.digest == cls && !row.per_mode()) d.mix(row.at(s, 0));
    }
  }
}

void put(obs::MetricsRegistry& reg, FoldRule fold, std::string_view key, u64 v) {
  if (fold == FoldRule::kSum) {
    reg.add(key, v);
  } else {
    reg.max_gauge(key, static_cast<i64>(v));
  }
}

u64 get(const obs::MetricsRegistry& reg, FoldRule fold, std::string_view key) {
  if (fold == FoldRule::kSum) return reg.counter(key).value_or(0);
  return static_cast<u64>(reg.gauge(key).value_or(0));
}

/// Registry name of a cell row in band `m`.
std::string cell_key(const CounterRow<CellStats>& row, std::size_t m) {
  if (!row.per_mode()) return std::string("medium/") + row.name;
  return std::string("medium.") + to_string(mode_from_index(m)) + "/" + row.name;
}

}  // namespace

void DeviceStats::mix(sim::Digest& d, DigestClass upto) const {
  d.mix(static_cast<u64>(station_id));
  mix_rows(*this, kDeviceRows, d, upto);
}

void CellStats::mix(sim::Digest& d, DigestClass upto) const {
  d.mix(cell_index).mix(stations);
  mix_rows(*this, kCellRows, d, upto);
}

void FleetStats::add_station(std::size_t cell_index, DeviceStats ds) {
  // One key buffer per station: the per-station names cost one registry
  // node each and no temporaries.
  std::string key = "cell" + std::to_string(cell_index) + "/station" +
                    std::to_string(ds.station_id) + "/";
  const std::size_t prefix = key.size();
  for (const CounterRow<DeviceStats>& row : kDeviceRows) {
    const u64 v = row.value(ds);
    put(metrics, row.fold, row.name, v);
    key.resize(prefix);
    put(metrics, row.fold, key.append(row.name), v);
  }
  power_sum.raw_mw += ds.power.raw_mw;
  power_sum.gated_mw += ds.power.gated_mw;
  power_sum.dvfs_mw += ds.power.dvfs_mw;
  devices.push_back(std::move(ds));
}

void FleetStats::add_cell(CellStats cs) {
  const std::string prefix = "cell" + std::to_string(cs.cell_index) + "/";
  for (const CounterRow<CellStats>& row : kCellRows) {
    for (std::size_t m = 0; m < (row.per_mode() ? kNumModes : 1); ++m) {
      const std::string key = cell_key(row, m);
      put(metrics, row.fold, key, row.at(cs, m));
      put(metrics, row.fold, prefix + key, row.at(cs, m));
    }
  }
  cells.push_back(std::move(cs));
}

void FleetStats::add_profile(const sim::ExecProfile& part) {
  for (const sim::ExecRow& row : sim::kExecRows) {
    this->*row.field = combine(row.fold, this->*row.field, part.*row.field);
    put(metrics, row.fold, std::string("sched/") + row.name, part.*row.field);
  }
}

u64 FleetStats::total(const CounterRow<DeviceStats>& row) const {
  return get(metrics, row.fold, row.name);
}

u64 FleetStats::total(const CounterRow<CellStats>& row) const {
  u64 v = 0;
  for (std::size_t m = 0; m < (row.per_mode() ? kNumModes : 1); ++m) {
    v = combine(row.fold, v, get(metrics, row.fold, cell_key(row, m)));
  }
  return v;
}

double FleetStats::mean_handoff_latency_cycles() const {
  const u64 count = total(find_row(kDeviceRows, "mac/reassociations"));
  const u64 latency = total(find_row(kDeviceRows, "mac/handoff_latency"));
  return count == 0 ? 0.0
                    : static_cast<double>(latency) / static_cast<double>(count);
}

u64 FleetStats::digest(DigestClass upto) const {
  sim::Digest d;
  for (const DeviceStats& ds : devices) ds.mix(d, upto);
  if (upto == DigestClass::kCompletion) return d.value();
  for (const CellStats& cs : cells) cs.mix(d, upto);
  d.mix(lockstep_cycles).mix(all_drained ? 1 : 0);
  return d.value();
}

std::string FleetStats::report() const {
  std::string out;
  char line[224];
  std::snprintf(line, sizeof(line), "scenario %s: %zu devices, %llu lockstep cycles%s\n",
                scenario_name.c_str(), devices.size(),
                static_cast<unsigned long long>(lockstep_cycles),
                all_drained ? "" : " [BUDGET EXHAUSTED]");
  out += line;
  out += "  dev mode";
  for (const CounterRow<DeviceStats>& row : kDeviceRows) {
    if (row.column.label == nullptr) continue;
    std::snprintf(line, sizeof(line), " %*s", row.column.width, row.column.label);
    out += line;
  }
  out += '\n';
  for (const DeviceStats& ds : devices) {
    for (std::size_t i = 0; i < kNumModes; ++i) {
      if (ds.offered[i] == 0 && ds.completed[i] == 0 && ds.peer_rx[i] == 0) continue;
      std::snprintf(line, sizeof(line), "  %3d    %c", ds.station_id, "ABC"[i]);
      out += line;
      for (const CounterRow<DeviceStats>& row : kDeviceRows) {
        if (row.column.label == nullptr) continue;
        std::snprintf(line, sizeof(line), " %*llu", row.column.width,
                      static_cast<unsigned long long>(row.at(ds, i)));
        out += line;
      }
      out += '\n';
    }
  }
  for (const CellStats& cs : cells) {
    for (std::size_t i = 0; i < kNumModes; ++i) {
      if (cs.collided_frames[i] == 0 && cs.ap_rx[i] == 0 && cs.busy_cycles[i] == 0) {
        continue;
      }
      std::snprintf(line, sizeof(line),
                    "  cell %u mode %c: %u stations, %llu collided (%llu dropped, "
                    "%llu captured), ap_rx %u, ap_acks %llu, busy %llu\n",
                    cs.cell_index, "ABC"[i], cs.stations,
                    static_cast<unsigned long long>(cs.collided_frames[i]),
                    static_cast<unsigned long long>(cs.dropped_frames[i]),
                    static_cast<unsigned long long>(cs.capture_wins[i]), cs.ap_rx[i],
                    static_cast<unsigned long long>(cs.ap_acks[i]),
                    static_cast<unsigned long long>(cs.busy_cycles[i]));
      out += line;
    }
  }
  for (const DeviceStats& ds : devices) {
    std::snprintf(line, sizeof(line),
                  "  dev %3d power: %7.2f mW raw, %6.2f mW gated+PSO, %6.2f mW "
                  "+DVFS/2 (cpu %4.1f%%, bus %4.1f%%)\n",
                  ds.station_id, ds.power.raw_mw, ds.power.gated_mw, ds.power.dvfs_mw,
                  100.0 * ds.power.cpu_activity, 100.0 * ds.power.bus_activity);
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "  fleet power: %.2f mW raw, %.2f mW gated+PSO, %.2f mW +DVFS/2; "
                "%llu collisions, %llu defers\n",
                fleet_raw_mw(), fleet_gated_mw(), fleet_dvfs_mw(),
                static_cast<unsigned long long>(total_collisions()),
                static_cast<unsigned long long>(total_defers()));
  out += line;
  std::snprintf(line, sizeof(line), "  digests: completion=%016llx full=%016llx\n",
                static_cast<unsigned long long>(completion_digest()),
                static_cast<unsigned long long>(full_digest()));
  out += line;
  return out;
}

}  // namespace drmp::scenario
