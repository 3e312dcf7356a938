#include "scenario/scenario_spec.hpp"

#include <stdexcept>
#include <string>

namespace drmp::scenario {

void ScenarioSpec::validate() const {
  for (std::size_t ci = 0; ci < cells.size(); ++ci) {
    const CellSpec& cell = cells[ci];
    const std::string where = "cell " + std::to_string(ci) + ": ";
    const net::AudibilityMatrix& m = cell.contention.audibility;
    if (!m.trivial()) {
      if (cell.topology != Topology::kSharedMedium) {
        throw net::AudibilityError(
            where + "audibility matrices require a shared-medium cell");
      }
      if (m.n != cell.stations.size()) {
        throw net::AudibilityError(
            where + "audibility matrix covers " + std::to_string(m.n) +
            " stations, cell has " + std::to_string(cell.stations.size()));
      }
      for (std::size_t i = 0; i < m.n; ++i) {
        if (!m.hears(i, i)) {
          throw net::AudibilityError(where +
                                     "audibility diagonal must stay 1");
        }
      }
    }
    if (cell.mobility.enabled) {
      if (cell.topology != Topology::kSharedMedium || !cell.access_point) {
        throw net::AudibilityError(
            where + "mobility requires a shared-medium cell with an AP");
      }
      if (!m.trivial()) {
        throw net::AudibilityError(
            where +
            "mobility and an explicit audibility matrix are mutually "
            "exclusive (the driver derives the matrix)");
      }
      if (cell.contention.capture_preamble_us > 0.0) {
        throw net::AudibilityError(
            where + "mobility is incompatible with the capture effect");
      }
      try {
        cell.mobility.validate(cell.stations.size());
      } catch (const net::AudibilityError& e) {
        throw net::AudibilityError(where + e.what());
      }
    }
  }
  for (std::size_t g = 0; g < couplings.size(); ++g) {
    const CouplingSpec& c = couplings[g];
    double prev = -1.0;
    for (const CouplingSpec::ReachRevision& rev : c.reach_script) {
      if (!(rev.at_us > prev)) {
        throw std::invalid_argument(
            "coupling group " + std::to_string(g) +
            ": reach_script times must strictly ascend");
      }
      prev = rev.at_us;
    }
  }
}

std::size_t ScenarioSpec::station_count() const {
  std::size_t n = 0;
  for (const CellSpec& c : cells) n += c.stations.size();
  return n;
}

void ScenarioSpec::add_station(DeviceSpec d) {
  CellSpec cell;
  cell.topology = Topology::kPointToPoint;
  cell.stations.push_back(std::move(d));
  cells.push_back(std::move(cell));
}

ScenarioSpec ScenarioSpec::mixed_three_standard(std::size_t n_devices, u64 seed,
                                                u32 msdus_per_mode) {
  ScenarioSpec spec;
  spec.name = "mixed-three-standard-" + std::to_string(n_devices);
  spec.seed = seed;

  // WiFi contends per-frame, so it tolerates loss; UWB retries inside its
  // slots; WiMAX recovery is ARQ-feedback-driven, keep its band clean here.
  spec.channel[0] = ChannelSpec{/*loss_permille=*/120};
  spec.channel[2] = ChannelSpec{/*loss_permille=*/60};

  DrmpConfig base = DrmpConfig::standard_three_mode();
  // Tighter TDD frame / superframe than the thesis defaults (5 ms / 8 ms):
  // fleet runs spend their cycles on MAC work instead of idle slot waits.
  base.modes[1].ident.tdma_period_us = 2000.0;
  base.modes[2].ident.tdma_period_us = 2000.0;

  spec.cells.reserve(n_devices);
  for (std::size_t i = 0; i < n_devices; ++i) {
    DeviceSpec d;
    d.cfg = base.for_station(static_cast<int>(i) + 1);
    // Heterogeneous mix: WiFi everywhere, UWB on even stations, WiMAX on two
    // of every three.
    d.traffic[0] = mac::TrafficSpec::wifi_csma_bursts(msdus_per_mode);
    if (i % 2 == 0) {
      d.traffic[2] = mac::TrafficSpec::uwb_slotted_stream(msdus_per_mode);
    } else {
      d.cfg.modes[2].enabled = false;
    }
    if (i % 3 != 2) {
      d.traffic[1] = mac::TrafficSpec::wimax_framed_uplink(msdus_per_mode);
    } else {
      d.cfg.modes[1].enabled = false;
    }
    spec.add_station(std::move(d));
  }
  return spec;
}

ScenarioSpec ScenarioSpec::contended_wifi_cell(std::size_t n_stations, u64 seed,
                                               u32 msdus_per_station,
                                               u32 rts_threshold) {
  ScenarioSpec spec;
  spec.name = "contended-wifi-" + std::to_string(n_stations);
  spec.seed = seed;
  spec.max_cycles = 120'000'000;

  DrmpConfig base = DrmpConfig::standard_three_mode();
  base.modes[1].enabled = false;  // WiFi only: contention is the workload.
  base.modes[2].enabled = false;
  base.modes[0].ident.rts_threshold = rts_threshold;

  CellSpec cell;
  cell.topology = Topology::kSharedMedium;
  cell.stations.reserve(n_stations);
  for (std::size_t i = 0; i < n_stations; ++i) {
    DeviceSpec d;
    d.cfg = base.for_station(static_cast<int>(i) + 1);
    d.traffic[0] = mac::TrafficSpec::wifi_csma_bursts(msdus_per_station);
    // Aligned arrivals and modest sizes: every interval boundary fires a
    // burst on every station, so each round is a genuine contention round
    // while a cell run stays within the cycle budget. Two-deep bursts keep a
    // station re-contending with a fresh backoff draw right after each
    // completion — fresh draws against the other stations' residuals are
    // where same-slot collisions come from.
    d.traffic[0].start_us = 150.0;
    d.traffic[0].interval_us = 2500.0;
    d.traffic[0].msdu_min_bytes = 256;
    d.traffic[0].msdu_max_bytes = 640;
    d.traffic[0].burst_len = 2;
    d.traffic[0].max_inflight = 2;
    cell.stations.push_back(std::move(d));
  }
  spec.cells.push_back(std::move(cell));
  return spec;
}

ScenarioSpec ScenarioSpec::contended_wifi_topology(std::size_t n_stations, Reach reach,
                                                   u64 seed, u32 msdus_per_station,
                                                   u32 rts_threshold) {
  ScenarioSpec spec =
      contended_wifi_cell(n_stations, seed, msdus_per_station, rts_threshold);
  CellSpec& cell = spec.cells[0];
  switch (reach) {
    case Reach::kFull:
      // Explicit all-ones: same physics as the trivial default, but through
      // the per-listener machinery (the digest-equivalence pin rides on it).
      cell.contention.audibility = net::AudibilityMatrix::full(n_stations);
      spec.name += "-full";
      break;
    case Reach::kHiddenPair:
      cell.contention.audibility =
          net::AudibilityMatrix::hidden_pair(n_stations, 0, 1);
      spec.name += "-hidden";
      break;
    case Reach::kChain:
      cell.contention.audibility = net::AudibilityMatrix::chain(n_stations);
      spec.name += "-chain";
      break;
    case Reach::kAsymmetric:
      cell.contention.audibility =
          net::AudibilityMatrix::asymmetric_pair(n_stations, 0, 1);
      spec.name += "-asym";
      break;
  }
  // Hidden (and one-way-deaf) nodes without virtual carrier sense collide
  // forever; NAV is the mechanism RTS/CTS protects exchanges with, so the
  // whole topology family runs with it on (policy — the RTS threshold —
  // stays the variable).
  // Long single-fragment MSDUs replace the canonical cell's modest sizes: a
  // 700-1000 byte frame occupies the air longer than the whole CW_min
  // backoff spread, so mutually-deaf stations overlap almost every aligned
  // attempt — exactly the regime the RTS threshold exists for (a 20-byte
  // RTS risks a ~35 us collision window instead of ~700 us of data). One
  // MSDU per round, with the round interval wide enough for a collided
  // exchange to resolve its retries, so *every* round re-aligns the
  // stations into a fresh hidden-node confrontation instead of the
  // completion-gated drift of the canonical cell.
  for (DeviceSpec& d : cell.stations) {
    d.cfg.modes[0].ident.nav_enabled = true;
    d.traffic[0].msdu_min_bytes = 700;
    d.traffic[0].msdu_max_bytes = 1000;
    d.traffic[0].burst_len = 1;
    d.traffic[0].max_inflight = 1;
    d.traffic[0].interval_us = 20'000.0;
  }
  return spec;
}

ScenarioSpec ScenarioSpec::coupled_wifi_cells(std::size_t n_cells,
                                              std::size_t stations_per_cell,
                                              u64 seed, u32 msdus_per_station,
                                              net::AudibilityMatrix reach) {
  // Each cell is the canonical contended cell; the composition couples them
  // on one channel. Reusing the factory keeps the isolation pin sharp: with
  // an all-zeros reach (or no coupling at all) the fleet must reproduce the
  // per-cell digests of n independent contended_wifi_cell runs placed in
  // one spec.
  ScenarioSpec spec;
  spec.name = "coupled-wifi-" + std::to_string(n_cells) + "x" +
              std::to_string(stations_per_cell);
  spec.seed = seed;
  spec.max_cycles = 120'000'000;
  CouplingSpec coupling;
  coupling.reach = std::move(reach);
  spec.couplings.push_back(std::move(coupling));
  for (std::size_t c = 0; c < n_cells; ++c) {
    ScenarioSpec one =
        contended_wifi_cell(stations_per_cell, seed, msdus_per_station);
    one.cells[0].coupling_group = 0;
    spec.cells.push_back(std::move(one.cells[0]));
  }
  return spec;
}

ScenarioSpec ScenarioSpec::mobile_wifi_cell(std::size_t n_stations, bool frozen,
                                            bool associate, u64 seed,
                                            u32 msdus_per_station,
                                            u32 rts_threshold) {
  // The topology-family cell (long aligned MSDU rounds, NAV on), with the
  // static matrix replaced by driver-derived audibility.
  ScenarioSpec spec = contended_wifi_topology(n_stations, Reach::kFull, seed,
                                              msdus_per_station, rts_threshold);
  spec.name = "mobile-wifi-" + std::to_string(n_stations) +
              (frozen ? "-frozen" : "") + (associate ? "-assoc" : "");
  CellSpec& cell = spec.cells[0];
  cell.contention.audibility = net::AudibilityMatrix{};  // Driver-derived.
  net::MobilitySpec& mob = cell.mobility;
  mob.enabled = true;
  mob.range_m = 100.0;
  mob.stations.resize(n_stations);
  // Geometry: station 0 at (30,0), station 1 far left at (-60,0) — their
  // distance is 90 m, inside range. Stations 2..n cluster at ((j-2)*6, 12),
  // within range of both (n <= 9 keeps station 1 connected to the whole
  // cluster). The walk takes station 0 to (48,0): only the (0,1) distance
  // crosses 100 m (at x = 40), everyone still reaches the omni AP — the
  // walk-behind-a-wall shape.
  if (n_stations > 0) mob.stations[0] = net::MobilityPath{30.0, 0.0, {}};
  if (n_stations > 1) mob.stations[1] = net::MobilityPath{-60.0, 0.0, {}};
  for (std::size_t j = 2; j < n_stations; ++j) {
    mob.stations[j] =
        net::MobilityPath{static_cast<double>(j - 2) * 6.0, 12.0, {}};
  }
  if (!frozen && n_stations > 0) {
    mob.stations[0].waypoints = {
        net::Waypoint{30.0, 0.0, 5'000.0},   // Hold, then
        net::Waypoint{48.0, 0.0, 30'000.0},  // walk out (hidden from ~19 ms),
        net::Waypoint{48.0, 0.0, 45'000.0},  // linger behind the wall,
        net::Waypoint{30.0, 0.0, 70'000.0},  // and walk back (~56 ms reheal).
    };
  }
  mob.ap_x_m = 0.0;
  mob.ap_y_m = 6.0;
  if (associate) {
    mob.associate = true;
    mob.adapt_rate = true;
  }
  return spec;
}

ScenarioSpec ScenarioSpec::roaming_wifi_cells(std::size_t stations_per_cell,
                                              u64 seed, u32 msdus_per_station) {
  ScenarioSpec spec;
  spec.name = "roaming-wifi-2x" + std::to_string(stations_per_cell);
  spec.seed = seed;
  spec.max_cycles = 120'000'000;
  CouplingSpec coupling;  // Trivial reach: both cells hear each other.
  spec.couplings.push_back(std::move(coupling));
  for (std::size_t c = 0; c < 2; ++c) {
    ScenarioSpec one = contended_wifi_topology(stations_per_cell, Reach::kFull,
                                               seed, msdus_per_station);
    one.cells[0].coupling_group = 0;
    spec.cells.push_back(std::move(one.cells[0]));
  }
  // Cell 0 roams; cell 1 stays a static co-channel neighbour.
  CellSpec& cell = spec.cells[0];
  cell.contention.audibility = net::AudibilityMatrix{};  // Driver-derived.
  net::MobilitySpec& mob = cell.mobility;
  mob.enabled = true;
  // Wide station-to-station range: intra-cell audibility stays full for the
  // whole walk, so the run isolates the handoff/reassociation flow (zero
  // topology epochs, pinned by tests).
  mob.range_m = 1000.0;
  mob.stations.resize(stations_per_cell);
  if (stations_per_cell > 0) {
    mob.stations[0] = net::MobilityPath{
        20.0,
        0.0,
        {net::Waypoint{20.0, 0.0, 5'000.0},
         net::Waypoint{280.0, 0.0, 45'000.0}},  // Crosses 150 m at ~25 ms.
    };
  }
  for (std::size_t j = 1; j < stations_per_cell; ++j) {
    mob.stations[j] =
        net::MobilityPath{static_cast<double>(j) * 5.0, 10.0, {}};
  }
  mob.ap_x_m = 0.0;
  mob.ap_y_m = 0.0;
  mob.roam_out_m = 150.0;
  mob.neighbor_aps = {net::NeighborAp{1, 300.0, 0.0}};
  mob.associate = true;
  return spec;
}

ScenarioSpec ScenarioSpec::contended_wifi_fragmented(std::size_t n_stations,
                                                     bool frag_burst, u64 seed,
                                                     u32 msdus_per_station) {
  ScenarioSpec spec = contended_wifi_cell(n_stations, seed, msdus_per_station);
  spec.name += frag_burst ? "-fragburst" : "-fragmented";
  for (DeviceSpec& d : spec.cells[0].stations) {
    auto& ident = d.cfg.modes[0].ident;
    // 700-1000 byte MSDUs against a 256-byte threshold: 3-4 fragment
    // bursts, the regime where per-fragment re-contention multiplies the
    // collision exposure. NAV on for both arms so the Duration chaining the
    // burst announces is actually honoured — keeping the flag the single
    // variable between the two specs.
    ident.frag_threshold = 256;
    ident.nav_enabled = true;
    ident.frag_burst_enabled = frag_burst;
    d.traffic[0].msdu_min_bytes = 700;
    d.traffic[0].msdu_max_bytes = 1000;
    d.traffic[0].burst_len = 1;
    d.traffic[0].max_inflight = 1;
    // Wide aligned rounds, like the topology family: every round restarts a
    // full contention confrontation, and a collided burst has room to
    // resolve its retries inside its own round.
    d.traffic[0].interval_us = 25'000.0;
  }
  return spec;
}

}  // namespace drmp::scenario
