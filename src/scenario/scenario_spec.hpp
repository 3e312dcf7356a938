// Declarative scenario descriptions for multi-device fleet simulation.
//
// A ScenarioSpec is a plain value: a list of *cells*, a fleet-wide
// lossy-channel model, a seed and a cycle budget. The ScenarioEngine turns
// one into a running fleet; two engines built from equal specs produce
// byte-identical aggregate statistics.
//
// A cell is one radio neighbourhood advanced by one scheduler (clock
// domain). Two topologies:
//   * kPointToPoint — one DRMP device against a scripted far-end peer on a
//     private, collision-free medium per mode (the paper's experiment
//     shape; PR-1 fleets are lists of these).
//   * kSharedMedium — N full DRMP devices contending on one
//     net::ContendedMedium per mode, either against a scripted access point
//     that ACKs/CTSes uplink traffic, or (access_point = false, exactly two
//     stations) against each other in the mirrored two-device topology.
//     Collisions, carrier-sense latency and the capture effect follow
//     ContentionSpec.
//
// Field reference (also recorded in ROADMAP.md):
//   ScenarioSpec.name            — label used in reports.
//   ScenarioSpec.seed            — master seed; every PRNG in the run (traffic
//                                  sizes/contents, channel corruption) derives
//                                  from (seed, station, mode).
//   ScenarioSpec.max_cycles      — per-cell cycle budget.
//   ScenarioSpec.lockstep_stride — MultiScheduler lockstep granularity.
//   ScenarioSpec.channel[mode]   — fleet-wide channel model; a cell may
//                                  override it with CellSpec.channel.
//   ScenarioSpec.cells[i]        — one cell (see above).
//   CellSpec.stations[j]         — one DRMP device: its DrmpConfig (use
//                                  DrmpConfig::for_station for unique fleet
//                                  identities; shared-medium cells re-derive
//                                  cell-consistent identities themselves) and
//                                  one TrafficSpec per mode.
//   ChannelSpec.loss_permille    — per-frame corruption probability (‰).
//   ChannelSpec::kMinFrameBytes  — frames below this size fly clean, so short
//                                  control responses (ACK/CTS) are not hit.
//   ContentionSpec               — net::ContendedMedium::Params.
//   ScenarioSpec.couplings[g]    — co-channel coupling groups (inter-cell
//                                  latency/horizon + cell-granular reach);
//                                  CellSpec.coupling_group joins a cell to
//                                  one. See docs/MULTICELL.md.
//   ScenarioSpec.coupled_reference — single-scheduler reference coupling
//                                  (immediate injection) instead of lax-sync
//                                  lanes; digest-identical, pinned.
#pragma once

#include <array>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "drmp/device.hpp"
#include "mac/traffic_gen.hpp"
#include "net/audibility.hpp"
#include "net/contended_medium.hpp"
#include "net/topology_driver.hpp"
#include "sim/multi_scheduler.hpp"

namespace drmp::scenario {

/// Lossy-channel model for one protocol band.
struct ChannelSpec {
  /// Control frames stay clean below this size.
  static constexpr std::size_t kMinFrameBytes = 64;
  u32 loss_permille = 0;  ///< Chance a data-sized frame is corrupted on air.
};

/// One DRMP device in the fleet and the traffic offered to it.
struct DeviceSpec {
  DrmpConfig cfg = DrmpConfig::standard_three_mode();
  std::array<mac::TrafficSpec, kNumModes> traffic{};
};

enum class Topology : u8 { kPointToPoint, kSharedMedium };

/// Shared-medium physics: capture, garbled delivery and the per-station
/// audibility matrix over the cell's *local station indices* (a non-trivial
/// matrix covers exactly the cell's station count; the scripted access
/// point is omnidirectional and needs no row).
using ContentionSpec = net::ContendedMedium::Params;

/// Co-channel coupling between the cells of one coupling group (see
/// net/channel_coupler.hpp and docs/MULTICELL.md). Cells of a group share
/// spectrum: every transmission in one member is forwarded into each member
/// that hears it as a foreign-carrier image, shifted by the inter-cell
/// latency — which doubles as the lax-sync lookahead horizon the engine
/// clamps the lockstep stride to.
struct CouplingSpec {
  /// Lumped inter-cell propagation + energy-detection latency. Also the
  /// lookahead horizon: smaller couplings synchronize lanes more often.
  double latency_us = 2.0;
  /// Cell-granular reach over the group's members in cell order:
  /// hears(listener_cell, tx_cell). Trivial = every member hears every
  /// other; a matrix with no off-diagonal hearing means full spatial reuse
  /// — the group is physically isolated and runs exactly like uncoupled
  /// cells (bit-identical digests, pinned).
  net::AudibilityMatrix reach;

  /// A scripted cell-granular reach revision: at `at_us` the group's reach
  /// becomes `reach` (same member coverage as the base matrix).
  struct ReachRevision {
    double at_us = 0.0;
    net::AudibilityMatrix reach;
  };
  /// Scripted reach revisions in strictly ascending at_us order. The engine
  /// applies each at the first lockstep round edge at or after its time —
  /// reach is piecewise-constant per round, which is what keeps lax-sync
  /// and immediate-injection reference digests identical through a
  /// revision (events generated during a round are judged under the reach
  /// that was live when the round began, on both paths).
  std::vector<ReachRevision> reach_script;

  /// True when any member can hear any other (the group actually couples).
  bool connected(std::size_t members) const {
    if (reach.trivial()) return members > 1;
    for (std::size_t l = 0; l < members; ++l) {
      for (std::size_t t = 0; t < members; ++t) {
        if (l != t && reach.hears(l, t)) return true;
      }
    }
    return false;
  }
};

/// One radio cell: its topology, member stations and channel physics.
struct CellSpec {
  Topology topology = Topology::kPointToPoint;
  /// kPointToPoint: exactly one station. kSharedMedium: two or more.
  std::vector<DeviceSpec> stations;
  /// kSharedMedium only: attach a scripted access point that ACKs data and
  /// answers RTS with CTS. false requires exactly two stations, which are
  /// then mirrored onto each other (the twodevice_test topology: both ends
  /// of the link are full DRMP devices).
  bool access_point = true;
  ContentionSpec contention;
  /// Per-cell channel override; unset inherits ScenarioSpec::channel.
  std::optional<std::array<ChannelSpec, kNumModes>> channel;
  /// Index into ScenarioSpec::couplings, or -1 (isolated — the default).
  /// Coupled cells must be kSharedMedium, share one arch_freq_hz across the
  /// group and run without the capture effect.
  int coupling_group = -1;
  /// Scripted waypoint mobility (net/topology_driver.hpp). Enabling it
  /// replaces ContentionSpec::audibility (which must stay trivial) with the
  /// driver-derived matrix and registers a TopologyDriver on the cell's
  /// scheduler; kSharedMedium with an access point only, capture off.
  net::MobilitySpec mobility;
};

/// Flight-recorder opt-in (src/obs/). Off by default: recorder-off runs are
/// bit-identical to a build without the subsystem (digests pinned). When
/// enabled, every cell owns a ring-buffer recorder with one track per
/// station and per medium band; the engine exposes Chrome-trace and text-
/// timeline exporters over them, plus scheduler execution-domain events.
struct TraceSpec {
  bool enabled = false;
  /// Ring capacity in events per cell per domain (oldest evicted past
  /// this; protocol and execution events evict independently).
  std::size_t capacity = std::size_t{1} << 18;
};

struct ScenarioSpec {
  std::string name = "scenario";
  u64 seed = 1;
  Cycle max_cycles = 40'000'000;
  Cycle lockstep_stride = sim::MultiScheduler::kDefaultStride;
  /// Lockstep worker threads. 1 = serial (the default, and the
  /// reference for bit-identical digests — parallel runs match it exactly);
  /// 0 = one per hardware core. Workers persist across lockstep rounds;
  /// larger strides still amortise the per-round wakeup on small fleets.
  unsigned worker_threads = 1;
  /// Quiescence-aware scheduling (sim/scheduler.hpp):
  /// skip components that prove their ticks are no-ops, fast-forward
  /// globally-idle stretches, and skip lockstep rounds for fully-quiescent
  /// lanes. Bit-identical to false (every component ticked every cycle);
  /// the equivalence tests pin that, so keep the flag only as the baseline
  /// for comparisons and for debugging suspected skip bugs.
  bool idle_skip = true;
  /// Structured event tracing (see TraceSpec). Orthogonal to idle_skip and
  /// worker_threads: the recorded protocol-event stream is pinned identical
  /// across all four combinations.
  TraceSpec trace;
  std::array<ChannelSpec, kNumModes> channel{};
  std::vector<CellSpec> cells;
  /// Co-channel coupling groups; CellSpec::coupling_group indexes this.
  std::vector<CouplingSpec> couplings;
  /// Run every connected coupling group on ONE shared scheduler with
  /// immediate cross-cell injection — the conventional conservative
  /// reference the lax-sync lane path is pinned digest-identical to. Slower
  /// (coupled cells lose lane parallelism and round skipping); exists for
  /// the equivalence tests and as the baseline bench arm.
  bool coupled_reference = false;

  /// Total stations across all cells.
  std::size_t station_count() const;
  /// Appends a single-station point-to-point cell (the PR-1 fleet shape).
  void add_station(DeviceSpec d);

  /// Structural validation, run by the engine before any cell is built:
  /// per-cell audibility matrices must cover exactly the cell's station
  /// count with an intact diagonal, mobility specs must be coherent
  /// (net::MobilitySpec::validate) and must not compete with an explicit
  /// matrix, and coupling reach scripts must cover their groups with
  /// strictly ascending times. Throws net::AudibilityError with cell
  /// context for topology shape errors, std::invalid_argument otherwise.
  void validate() const;

  /// The canonical point-to-point fleet workload: n devices, each in its own
  /// cell, with heterogeneous traffic mixes over all three prototype
  /// standards — every device carries WiFi CSMA bursts, every second a UWB
  /// slotted stream, and two of every three a WiMAX framed uplink — over a
  /// lossy WiFi/UWB channel. TDD/superframe periods are tightened versus the
  /// thesis defaults so a fleet run stays in the millions-of-cycles range.
  static ScenarioSpec mixed_three_standard(std::size_t n_devices, u64 seed = 1,
                                           u32 msdus_per_mode = 3);

  /// The canonical contention workload: one shared-medium cell of
  /// `n_stations` WiFi-only stations uplinking CSMA bursts to a scripted
  /// access point. Arrivals are aligned across stations so every burst
  /// contends; `rts_threshold` > 0 precedes MSDUs of that size or more with
  /// an RTS/CTS handshake.
  static ScenarioSpec contended_wifi_cell(std::size_t n_stations, u64 seed = 1,
                                          u32 msdus_per_station = 3,
                                          u32 rts_threshold = 0);

  /// Reachability shapes for the hidden-node workloads.
  enum class Reach : u8 {
    kFull,        ///< Every station hears every other (explicit all-ones).
    kHiddenPair,  ///< Stations 0 and 1 are mutually deaf; the rest a clique.
    kChain,       ///< A line: station i hears only stations i-1, i, i+1.
    /// One-way gap: station 1 is deaf to station 0 while station 0 still
    /// hears station 1 — the asymmetric link (power/antenna imbalance) the
    /// hidden-pair shape cannot express. The deaf side transmits over
    /// frames it cannot sense and collides; RTS/CTS + NAV (the AP's CTS is
    /// omnidirectional) and EIFS after the garbled pile-ups recover it.
    kAsymmetric,
  };

  /// The hidden-node variant of contended_wifi_cell: same stations, traffic
  /// and access point, but with a per-station audibility matrix shaped by
  /// `reach` and NAV virtual carrier sense enabled on every station — the
  /// regime where the RTS/CTS handshake (rts_threshold) earns its keep.
  static ScenarioSpec contended_wifi_topology(std::size_t n_stations, Reach reach,
                                              u64 seed = 1, u32 msdus_per_station = 3,
                                              u32 rts_threshold = 0);

  /// The fragmentation-under-contention workload: the canonical contended
  /// cell with a fragmentation threshold small enough that every MSDU
  /// (700-1000 bytes against a 256-byte threshold) splits into a 3-4
  /// fragment burst, NAV virtual carrier sense on. With `frag_burst` the
  /// burst flies SIFS-spaced with chained durations (802.11 §9.1.4); off,
  /// every fragment re-contends — the PR-2 simplification — so the pair of
  /// specs isolates exactly the mid-burst collision exposure the
  /// SIFS-spacing removes (`bench_net_fragburst` sweeps both).
  static ScenarioSpec contended_wifi_fragmented(std::size_t n_stations,
                                                bool frag_burst, u64 seed = 1,
                                                u32 msdus_per_station = 3);

  /// The overlapping-BSS workload: `n_cells` co-channel WiFi cells of
  /// `stations_per_cell` stations each (every cell its own AP and BSS, all
  /// on one channel), coupled into one group with `reach` over cell
  /// indices. Stations cannot decode the neighbour BSS's frames but their
  /// CCA hears them — inter-cell contention without inter-cell traffic, the
  /// regime docs/MULTICELL.md treats. Trivial reach = every cell hears
  /// every other; AudibilityMatrix::hidden_pair etc. build inter-cell
  /// hidden-node shapes. Arrivals are aligned across cells so every round
  /// contends across BSS boundaries.
  static ScenarioSpec coupled_wifi_cells(std::size_t n_cells,
                                         std::size_t stations_per_cell,
                                         u64 seed = 1, u32 msdus_per_station = 3,
                                         net::AudibilityMatrix reach = {});

  /// The mobility workload: the contended_wifi_topology cell (long aligned
  /// MSDU rounds, NAV on) with scripted waypoint mobility instead of a
  /// static matrix. Station 1 sits far left, the rest cluster near the
  /// origin, and station 0 — unless `frozen` — walks away until the (0,1)
  /// link crosses the audibility range mid-run (the walk-behind-a-wall
  /// shape), then returns. `frozen` drops the waypoints: every position
  /// holds, the derived matrix is full connectivity, and the run must
  /// reproduce the static Reach::kFull digests bit-for-bit (pinned).
  /// `associate` gates traffic behind the probe/assoc exchange and enables
  /// rate adaptation. Supports up to 9 stations (cluster geometry).
  static ScenarioSpec mobile_wifi_cell(std::size_t n_stations, bool frozen,
                                       bool associate, u64 seed = 1,
                                       u32 msdus_per_station = 3,
                                       u32 rts_threshold = 0);

  /// The roaming workload: two coupled co-channel cells; cell 0's station 0
  /// walks from its home AP at (0,0) toward cell 1's AP at (300,0),
  /// crossing the 150 m roam-out threshold mid-run and handing off. The
  /// station-to-station range is wide, so intra-cell audibility stays full
  /// — the run isolates the handoff/reassociation flow. Association is on
  /// in cell 0; cell 1 is a static contended cell.
  static ScenarioSpec roaming_wifi_cells(std::size_t stations_per_cell,
                                         u64 seed = 1,
                                         u32 msdus_per_station = 3);
};

}  // namespace drmp::scenario
