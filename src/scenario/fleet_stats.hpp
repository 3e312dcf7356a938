// Aggregate statistics of one fleet scenario run.
//
// Every integral station and cell counter is one row of kDeviceRows or
// kCellRows below (registry name, member, digest class, fold rule).
// net::Cell::collect reads the component sources once; the digests, the
// metrics registry, the fleet totals and report()'s device table all
// iterate the rows. FleetStats is also a sim::ExecProfile: the engine folds
// every clock domain's and the lockstep run's profile into it by the rows of
// sim::kExecRows, outside every digest.
//
// Three digests, one per digest class, each covering the classes before it:
//   * completion_digest(): the kCompletion rows, counters coupled to MSDU
//     completion. Invariant to *when* a drained lane's clock stops, so any
//     lockstep stride (a lane overshoots by up to stride-1 cycles) agrees
//     with a per-cycle early exit on it.
//   * full_digest(): + the kFull rows (delivery, peer, channel, contention,
//     cycle counts). Equal specs through the same execution path produce
//     equal full digests — the determinism contract the tests pin, in its
//     frozen v1 composition.
//   * full_digest_v2(): + the kNone rows (NAV, EIFS, expiry, mobility,
//     topology epochs) — every integral row.
//
// Power estimates (DevicePower) are derived floating-point views of the busy
// counters: deterministic for a given build, but outside every digest.
#pragma once

#include <array>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/types.hpp"
#include "obs/metrics.hpp"
#include "sim/exec_profile.hpp"
#include "sim/stats.hpp"

namespace drmp::scenario {

/// Activity-weighted power estimate of one device over its run, through
/// est::estimate_power with the §6.2 technique sets.
struct DevicePower {
  double raw_mw = 0.0;    ///< No power management (worst case).
  double gated_mw = 0.0;  ///< Clock gating + power shut-off.
  double dvfs_mw = 0.0;   ///< Gating + PSO + half-rate DVFS.
  double cpu_activity = 0.0;  ///< Measured CPU busy fraction.
  double bus_activity = 0.0;  ///< Measured packet-bus busy fraction.
  /// Duty-weighted mean rate fraction from mac::LinkMgr rate adaptation
  /// (1.0 = full rate, or no adaptation).
  double rate_scale = 1.0;
  /// gated_mw re-estimated with measured activity scaled by rate_scale —
  /// the adaptation-aware est::estimate_power report. Equals gated_mw when
  /// rate_scale is 1.0.
  double adapted_mw = 0.0;
};

/// The digests a counter row feeds (each class is also in every later one).
enum class DigestClass : u8 {
  kCompletion,  ///< completion_digest(), full_digest(), full_digest_v2().
  kFull,        ///< full_digest(), full_digest_v2().
  kNone,        ///< Outside both v1 digests: full_digest_v2() only.
};

using sim::combine;
using sim::FoldRule;

/// A counter's column in FleetStats::report()'s device table (no label: not
/// a column).
struct ReportColumn {
  const char* label = nullptr;
  int width = 0;
};

struct DeviceStats {
  int station_id = 0;
  std::array<u32, kNumModes> offered{};    ///< MSDUs the traffic gen handed over.
  std::array<u64, kNumModes> offered_bytes{};
  std::array<u32, kNumModes> completed{};  ///< on_tx_complete callbacks.
  std::array<u32, kNumModes> tx_ok{};      ///< ... of which successful.
  std::array<u64, kNumModes> retries{};    ///< Summed per-MSDU retry counts.
  std::array<u32, kNumModes> peer_rx{};    ///< Data frames the peer accepted.
  std::array<u64, kNumModes> peer_acks{};  ///< ACK/Imm-ACK frames the peer sent.
  std::array<u64, kNumModes> tampered{};   ///< Frames the channel corrupted.
  // ---- Contention counters (shared-medium cells; zero on point-to-point) --
  std::array<u64, kNumModes> collisions{};  ///< Own transmissions that collided.
  std::array<Cycle, kNumModes> airtime{};   ///< Cycles this station held each band.
  u64 defers = 0;          ///< CSMA deferrals to a busy medium (BackoffRfu).
  u32 rts_sent = 0;        ///< WiFi RTS frames sent.
  u32 cts_received = 0;    ///< WiFi CTS responses received.
  // NAV (virtual carrier sense) and timing-conformance counters.
  u64 nav_defers = 0;  ///< Deferrals where only the NAV held (CCA silent).
  u64 nav_arms = 0;    ///< Overheard reservations honoured.
  u64 nav_resets = 0;  ///< CF-End NAV truncations honoured.
  /// Reservation cycles still pending when the cell clock stopped. Bounded
  /// by the largest announceable Duration field: an expired response must
  /// never strand a reservation past its announced horizon (pinned).
  Cycle nav_hangover = 0;
  u64 frames_expired = 0;     ///< Perishable responses abandoned (all kinds).
  u64 expired_acks = 0;       ///< ... of which SIFS ACKs.
  u64 expired_ctss = 0;       ///< ... of which SIFS CTSs.
  u64 expired_sifs_data = 0;  ///< ... of which SIFS-anchored data.
  u64 eifs_waits = 0;         ///< Pre-contention waits stretched to EIFS.
  // Mobility / link-management counters (mac::LinkMgr; zero on static
  // cells). Outside the v1 digests, which is what lets a frozen mobility
  // driver reproduce static-cell digests bit-for-bit.
  u64 reassociations = 0;  ///< Completed post-handoff re-exchanges.
  u64 handoffs = 0;        ///< Serving-AP retargets (TopologyDriver).
  u64 rate_shifts = 0;     ///< Rate-adaptation steps taken (both ways).
  u64 link_loss_drops = 0; ///< Traffic MSDUs lost to retry exhaustion.
  u32 rate_index = 0;      ///< Final rate-ladder position (0 = full rate).
  /// Summed handoff-to-reassociated latency over completed handoffs.
  Cycle handoff_latency = 0;
  Cycle cycles_run = 0;
  DevicePower power;

  /// Mixes station_id, then every row of class `upto` or earlier.
  void mix(sim::Digest& d, DigestClass upto) const;
};

/// Channel-level statistics of one shared-medium cell.
struct CellStats {
  u32 cell_index = 0;
  u32 stations = 0;
  std::array<u64, kNumModes> collided_frames{};  ///< All parties counted.
  std::array<u64, kNumModes> dropped_frames{};   ///< Collided, withheld from rx.
  std::array<u64, kNumModes> capture_wins{};     ///< Survived via capture.
  std::array<u64, kNumModes> tampered{};         ///< Channel-corrupted frames.
  std::array<Cycle, kNumModes> busy_cycles{};    ///< Channel occupancy per band.
  /// Air cycles burnt by collided transmissions: 1 - collided/busy is the
  /// band's airtime efficiency.
  std::array<Cycle, kNumModes> collided_airtime{};
  std::array<u32, kNumModes> ap_rx{};    ///< Data frames the AP accepted.
  std::array<u64, kNumModes> ap_acks{};  ///< ACKs the AP sent.
  u64 ap_ctss = 0;                       ///< CTS responses the AP sent.
  /// Audibility revisions each band's medium applied (zero on static cells).
  std::array<u64, kNumModes> topology_epochs{};

  /// Mixes cell_index and stations, then every row of class `upto` or earlier.
  void mix(sim::Digest& d, DigestClass upto) const;
};

/// One integral counter of `Stats` (DeviceStats or CellStats).
template <class Stats>
struct CounterRow {
  using Field =
      std::variant<u32 Stats::*, u64 Stats::*, std::array<u32, kNumModes> Stats::*,
                   std::array<u64, kNumModes> Stats::*>;
  /// Registry name. Station rows register as-is (and under
  /// cell<n>/station<id>/); cell rows as medium.<band>/<name> per band, or
  /// medium/<name> when scalar (and under cell<n>/).
  const char* name;
  Field field;
  DigestClass digest;
  ReportColumn column = {};
  FoldRule fold = FoldRule::kSum;

  constexpr bool per_mode() const noexcept { return field.index() >= 2; }
  /// The counter in band `m` (scalars ignore `m`).
  u64 at(const Stats& s, std::size_t m) const {
    return std::visit([&](auto f) { return band(s.*f, m); }, field);
  }
  static u64 band(u64 v, std::size_t) { return v; }
  template <class T>
  static u64 band(const std::array<T, kNumModes>& v, std::size_t m) { return v[m]; }
  /// The counter combined over bands.
  u64 value(const Stats& s) const {
    u64 v = at(s, 0);
    for (std::size_t m = 1; per_mode() && m < kNumModes; ++m) {
      v = combine(fold, v, at(s, m));
    }
    return v;
  }
};

// Row order within a digest class is the frozen v1 mix order: per-mode rows
// mix band by band, then scalar rows. A new counter is one row appended as
// kNone; a row in an earlier class would move the v1 pins. report()'s device
// table has one column per labelled row, in row order.
inline constexpr CounterRow<DeviceStats> kDeviceRows[] = {
    {"mac/offered", &DeviceStats::offered, DigestClass::kCompletion, {"offered", 7}},
    {"mac/offered_bytes", &DeviceStats::offered_bytes, DigestClass::kCompletion,
     {"bytes", 6}},
    {"mac/completed", &DeviceStats::completed, DigestClass::kCompletion, {"complete", 8}},
    {"mac/tx_ok", &DeviceStats::tx_ok, DigestClass::kCompletion, {"ok", 3}},
    {"mac/retries", &DeviceStats::retries, DigestClass::kCompletion, {"retries", 7}},
    {"peer/rx_frames", &DeviceStats::peer_rx, DigestClass::kFull, {"peer_rx", 7}},
    {"peer/acks", &DeviceStats::peer_acks, DigestClass::kFull, {"acks", 5}},
    {"phy/tampered", &DeviceStats::tampered, DigestClass::kFull, {"tampered", 8}},
    {"medium/collisions", &DeviceStats::collisions, DigestClass::kFull, {"coll", 4}},
    {"medium/airtime", &DeviceStats::airtime, DigestClass::kFull, {"airtime", 8}},
    {"mac/defers", &DeviceStats::defers, DigestClass::kFull},
    {"mac/rts_sent", &DeviceStats::rts_sent, DigestClass::kFull},
    {"mac/cts_received", &DeviceStats::cts_received, DigestClass::kFull},
    {"sim/cycles_run", &DeviceStats::cycles_run, DigestClass::kFull},
    {"mac/nav_defers", &DeviceStats::nav_defers, DigestClass::kNone},
    {"mac/nav_arms", &DeviceStats::nav_arms, DigestClass::kNone},
    {"mac/nav_resets", &DeviceStats::nav_resets, DigestClass::kNone},
    {"mac/nav_hangover", &DeviceStats::nav_hangover, DigestClass::kNone, {},
     FoldRule::kMax},
    {"phy/frames_expired", &DeviceStats::frames_expired, DigestClass::kNone},
    {"phy/expired_acks", &DeviceStats::expired_acks, DigestClass::kNone},
    {"phy/expired_ctss", &DeviceStats::expired_ctss, DigestClass::kNone},
    {"phy/expired_sifs_data", &DeviceStats::expired_sifs_data, DigestClass::kNone},
    {"mac/eifs_waits", &DeviceStats::eifs_waits, DigestClass::kNone},
    {"mac/reassociations", &DeviceStats::reassociations, DigestClass::kNone},
    {"mac/handoffs", &DeviceStats::handoffs, DigestClass::kNone},
    {"mac/rate_shifts", &DeviceStats::rate_shifts, DigestClass::kNone},
    {"mac/link_loss_drops", &DeviceStats::link_loss_drops, DigestClass::kNone},
    {"mac/rate_index", &DeviceStats::rate_index, DigestClass::kNone, {}, FoldRule::kMax},
    {"mac/handoff_latency", &DeviceStats::handoff_latency, DigestClass::kNone},
};

inline constexpr CounterRow<CellStats> kCellRows[] = {
    {"collided_frames", &CellStats::collided_frames, DigestClass::kFull},
    {"dropped_frames", &CellStats::dropped_frames, DigestClass::kFull},
    {"capture_wins", &CellStats::capture_wins, DigestClass::kFull},
    {"tampered", &CellStats::tampered, DigestClass::kFull},
    {"busy_cycles", &CellStats::busy_cycles, DigestClass::kFull},
    {"ap_rx", &CellStats::ap_rx, DigestClass::kFull},
    {"ap_acks", &CellStats::ap_acks, DigestClass::kFull},
    {"ap_ctss", &CellStats::ap_ctss, DigestClass::kFull},
    {"collided_airtime", &CellStats::collided_airtime, DigestClass::kNone},
    {"topology_epochs", &CellStats::topology_epochs, DigestClass::kNone},
};

/// The row registered as `name`; a misspelt name fails to compile.
template <class Stats, std::size_t N>
consteval const CounterRow<Stats>& find_row(const CounterRow<Stats> (&rows)[N],
                                            std::string_view name) {
  for (const CounterRow<Stats>& row : rows) {
    if (name == row.name) return row;
  }
  throw std::logic_error("no counter row of that name");
}

struct FleetStats : sim::ExecProfile {
  std::string scenario_name;
  std::vector<DeviceStats> devices;
  std::vector<CellStats> cells;  ///< One entry per shared-medium cell.
  /// raw/gated/dvfs mW summed over every station.
  DevicePower power_sum;

  /// Takes one collected station: registers every row in `metrics` (fleet
  /// total and under cell<n>/station<id>/), adds its power and retains it in
  /// `devices`. Stations must arrive in collection order.
  void add_station(std::size_t cell_index, DeviceStats ds);
  /// Registers one shared-medium cell's rows in `metrics` (fleet total and
  /// under cell<n>/) and retains it in `cells`.
  void add_cell(CellStats cs);
  /// Folds one clock domain's or the lockstep run's execution profile into
  /// this one by each sim::kExecRows row's fold rule, and registers it as
  /// sched/<name>.
  void add_profile(const sim::ExecProfile& part);

  Cycle lockstep_cycles = 0;  ///< Fleet-clock cycles (max over lanes).
  bool all_drained = false;   ///< Every device finished its workload.
  double wall_seconds = 0.0;  ///< Host time; never part of a digest.
  /// Counter registry: fleet totals unprefixed, per-cell breakdown under
  /// `cell<n>/station<id>/`, the execution profile under `sched/`. Every
  /// counter row lands here (kMax rows as gauges), and the totals below
  /// read it back. Never part of a digest.
  obs::MetricsRegistry metrics;
  /// Fleet total of one row: summed (kMax rows: maxed) over every station,
  /// and for cell rows over every band.
  u64 total(const CounterRow<DeviceStats>& row) const;
  u64 total(const CounterRow<CellStats>& row) const;

  u64 device_cycles_total() const {
    return total(find_row(kDeviceRows, "sim/cycles_run"));
  }
  /// Fleet throughput: simulated device-cycles per host second.
  double device_cycles_per_sec() const {
    const double cycles = static_cast<double>(device_cycles_total());
    return wall_seconds <= 0.0 ? 0.0 : cycles / wall_seconds;
  }

  // ---- Fleet energy totals (sums of the per-device estimates) ----
  double fleet_raw_mw() const { return power_sum.raw_mw; }
  double fleet_gated_mw() const { return power_sum.gated_mw; }
  double fleet_dvfs_mw() const { return power_sum.dvfs_mw; }

  u64 total_collisions() const {
    return total(find_row(kDeviceRows, "medium/collisions"));
  }
  u64 total_defers() const { return total(find_row(kDeviceRows, "mac/defers")); }
  /// NAV-only deferrals (virtual carrier sense held, CCA silent) fleet-wide.
  u64 total_nav_defers() const { return total(find_row(kDeviceRows, "mac/nav_defers")); }
  /// Pre-contention waits stretched to EIFS fleet-wide.
  u64 total_eifs_waits() const { return total(find_row(kDeviceRows, "mac/eifs_waits")); }
  /// Perishable responses abandoned past latest_start fleet-wide.
  u64 total_frames_expired() const {
    return total(find_row(kDeviceRows, "phy/frames_expired"));
  }
  u64 total_reassociations() const {
    return total(find_row(kDeviceRows, "mac/reassociations"));
  }
  u64 total_handoffs() const { return total(find_row(kDeviceRows, "mac/handoffs")); }
  /// Audibility revisions applied fleet-wide (sum over cells and bands).
  u64 total_topology_epochs() const {
    return total(find_row(kCellRows, "topology_epochs"));
  }
  /// Mean handoff-to-reassociated latency in cycles (0 when none).
  double mean_handoff_latency_cycles() const;

  u64 completion_digest() const { return digest(DigestClass::kCompletion); }
  u64 full_digest() const { return digest(DigestClass::kFull); }
  u64 full_digest_v2() const { return digest(DigestClass::kNone); }

  /// Deterministic multi-line table (no wall-clock content).
  std::string report() const;

 private:
  /// Chains every row of class `upto` or earlier; cells and the lockstep
  /// outcome join from kFull on.
  u64 digest(DigestClass upto) const;
};

}  // namespace drmp::scenario
