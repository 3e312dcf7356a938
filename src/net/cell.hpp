// net::Cell — one radio cell of a fleet scenario, fully assembled.
//
// A cell owns one sim::Scheduler (its clock domain) and everything clocked by
// it: per-mode media, N full DRMP devices, scripted far ends and per-station
// traffic generators. Cells share no Clockables with each other, so the
// scenario engine can advance them as MultiScheduler lanes (serial or on
// worker threads) with the bit-identical digest guarantee intact. Cells of a
// co-channel coupling group still interact *physically*: net::ChannelCoupler
// mirrors their transmissions into each other's media at lockstep round
// edges (or immediately, when the group shares one scheduler through the
// external_sched constructor argument — the reference coupling mode). See
// docs/MULTICELL.md.
//
// Two assemblies, selected by CellSpec::topology:
//   * kPointToPoint — the PR-1 shape: one station, a private collision-free
//     phy::Medium per mode, a ScriptedPeer as the far end.
//   * kSharedMedium — the contention shape: one net::ContendedMedium per
//     mode carries every station. With an access point, stations uplink to a
//     scripted AP that ACKs data and answers RTS with CTS; without one
//     (exactly two stations) the stations are mirrored onto each other and
//     their own Event Handler + AckRfu paths acknowledge — the twodevice
//     integration topology as a first-class scenario. Shared cells re-derive
//     cell-consistent identities (addresses, piconet ids, CIDs, staggered
//     TDMA slots) from (cell index, station index), so any station list is
//     safe to drop into a shared cell.
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "drmp/device.hpp"
#include "mac/link_mgr.hpp"
#include "mac/traffic_gen.hpp"
#include "net/contended_medium.hpp"
#include "net/topology_driver.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/sched_recorder.hpp"
#include "phy/channel.hpp"
#include "scenario/fleet_stats.hpp"
#include "scenario/scenario_spec.hpp"
#include "sim/scheduler.hpp"

namespace drmp::net {

class Cell {
 public:
  /// Assembles the cell. `first_station_id` is the 1-based fleet-global id
  /// of the cell's first station (ids are contiguous within a cell); PRNG
  /// streams derive from (scenario_seed, global station id, mode) so a
  /// station's behaviour is invariant to fleet composition around its cell.
  /// `external_sched` registers every component on a caller-owned scheduler
  /// instead of a private one — the reference coupling mode, where every
  /// cell of a co-channel group shares one clock domain so cross-cell
  /// injection is conventionally causal; the caller must outlive the cell.
  /// `trace.enabled` attaches a per-cell obs::FlightRecorder: one track per
  /// station and per medium band, wired into every protocol-edge site before
  /// the first cycle runs, so the event stream is a pure function of the
  /// scenario (not of when tracing was switched on).
  Cell(const scenario::CellSpec& spec,
       const std::array<scenario::ChannelSpec, kNumModes>& fleet_channel,
       u64 scenario_seed, std::size_t cell_index, int first_station_id,
       sim::Scheduler* external_sched = nullptr,
       const scenario::TraceSpec& trace = {});
  ~Cell();

  Cell(const Cell&) = delete;
  Cell& operator=(const Cell&) = delete;

  sim::Scheduler& scheduler() { return *sched_; }
  bool shared() const noexcept {
    return spec_.topology == scenario::Topology::kSharedMedium;
  }
  std::size_t station_count() const noexcept { return stations_.size(); }
  DrmpDevice& device(std::size_t i);
  phy::Medium* medium(Mode m) { return media_[index(m)].get(); }

  /// Every traffic generator exhausted and all completions reported — the
  /// MultiScheduler early-exit predicate for this lane.
  bool drained() const;

  /// Reads every station's counters (activity-weighted power estimates
  /// included) and, for shared-medium cells, the channel counters into
  /// `fleet` — the only read of the component sources.
  void collect(scenario::FleetStats& fleet) const;

  /// The cell's flight recorder; null unless constructed with tracing on.
  const obs::FlightRecorder* recorder() const noexcept { return recorder_.get(); }

  /// The cell's mobility driver; null unless CellSpec::mobility is enabled.
  const TopologyDriver* topology() const noexcept { return driver_.get(); }

  // ---- Checkpoint support (sim/checkpoint.hpp) ----
  /// Serializes the cell's mutable state: the channel-corruption PRNGs, the
  /// per-mode media (virtual dispatch covers the contended backend), the
  /// scripted access points, and one record per station (its completion
  /// counters, scripted peers, traffic generators and full DrmpDevice).
  /// Legal only at a quiescent lockstep round edge; the cell's scheduler is
  /// checkpointed by the scenario engine (shared clock domains save once).
  void save_state(sim::snap::Writer& w);
  void load_state(sim::snap::Reader& r);

 private:
  struct Station {
    int station_id = 0;  ///< Fleet-global, 1-based.
    u16 track = 0;       ///< Flight-recorder track (valid when recorder_).
    std::unique_ptr<DrmpDevice> device;
    std::array<std::unique_ptr<phy::ScriptedPeer>, kNumModes> peers{};
    std::array<std::unique_ptr<mac::TrafficGen>, kNumModes> gens{};
    /// Association/roaming/rate-adaptation manager (mobility cells with
    /// MobilitySpec::associate; null otherwise). Routes Mode A completions.
    std::unique_ptr<mac::LinkMgr> link;
    // Completion counters fed by the device callbacks.
    std::array<u32, kNumModes> completed{};
    std::array<u32, kNumModes> tx_ok{};
    std::array<u64, kNumModes> retries{};
  };

  void build_media(const std::array<scenario::ChannelSpec, kNumModes>& fleet_channel,
                   u64 scenario_seed);
  void build_station(std::size_t local_index, u64 scenario_seed);
  /// Rewrites a station config's identities for shared-medium membership.
  DrmpConfig shared_identity(const DrmpConfig& cfg, std::size_t local_index) const;
  template <class Ar>
  void persist_cell(Ar& ar);
  scenario::DevicePower estimate_station_power(const Station& st) const;

  // Held by value: a Cell must stay usable standalone (tests, tools) without
  // tying its lifetime to whoever built the spec.
  scenario::CellSpec spec_;
  std::size_t cell_index_;
  int first_station_id_;
  std::unique_ptr<sim::Scheduler> owned_sched_;  ///< Null with an external one.
  sim::Scheduler* sched_ = nullptr;
  // Created before any component, so track registration order (media first,
  // then stations) is deterministic. The SchedRecorder is attached only to
  // an owned scheduler — on a shared external clock domain, per-cell exec
  // attribution would be ambiguous.
  std::unique_ptr<obs::FlightRecorder> recorder_;
  std::unique_ptr<obs::SchedRecorder> sched_rec_;
  /// Mobility driver (CellSpec::mobility). Built before the media so they
  /// take its cycle-0 derived matrix as their audibility at construction.
  std::unique_ptr<TopologyDriver> driver_;
  std::array<std::unique_ptr<phy::Medium>, kNumModes> media_{};
  std::array<u64, kNumModes> channel_rng_{};
  std::array<std::unique_ptr<phy::ScriptedPeer>, kNumModes> ap_{};
  std::vector<std::unique_ptr<Station>> stations_;
};

}  // namespace drmp::net
