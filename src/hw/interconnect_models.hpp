// Interconnect alternatives for the RHCP (thesis §3.6.3, §5.5, §7.1.1).
//
// "While a single-bus network has been shown to be enough for 3 concurrent
// protocol modes with a bandwidth of 20 Mbps at a moderate clock frequency of
// 200 MHz, it may become a bottleneck for faster protocols. ... One could
// simply increase the bus-width for higher throughput. A multi-bus network
// [100] may be used to allow two or three RFUs to simultaneously function for
// different protocol modes. A segmented bus [100] could also achieve similar
// results, with lower resources but with some additional control operations
// involved." (§3.6.3)
//
// These models replay a recorded single-bus workload (the bus tenures that
// PacketBus::attach_recorder logs, rebuilt by bus_transactions below)
// through each alternative topology and report the contention each flow would
// see, so the architectural trade the thesis defers to future work can be
// quantified on the real demand pattern. The replay preserves each flow's
// *demand* timeline — a transaction may never start before its original
// request cycle — and scales only the transfer portion of each tenure with
// bus width; master-held stall cycles (RFU-internal processing) are
// width-invariant.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "obs/flight_recorder.hpp"

namespace drmp::hw {

/// One bus tenure by one mode: from the task handler raising its request
/// line to its release, with the data-phase profile observed in between.
struct BusTransaction {
  Mode mode = Mode::A;
  Cycle request = 0;       ///< Cycle the request line went active.
  Cycle first_access = 0;  ///< First data-phase cycle (== request if none).
  Cycle last_access = 0;   ///< Last data-phase cycle.
  u32 words = 0;           ///< Word transfers performed during the tenure.
  bool touched_mem = false;  ///< Any access hit the packet memory.
  bool touched_rfu = false;  ///< Any access decoded as RFU trigger/argument.
  bool operator==(const BusTransaction&) const = default;

  /// Cycles the master held the bus without moving a word (RFU-internal
  /// processing, trigger hand-off) — these do not shrink with bus width.
  Cycle stall_cycles() const {
    if (words == 0) return 0;
    const Cycle span = last_access - first_access + 1;
    return span > words ? span - words : 0;
  }
};

/// Replays the "packet_bus" track of `rec` (PacketBus::attach_recorder)
/// into the bus tenures it records, ordered by request cycle. A request
/// re-asserted within an open tenure does not split it; an access outside
/// one opens it; a word run extends its tenure's last access; tenures still
/// open at `end` close there. Throws std::runtime_error if the recorder's
/// signal domain dropped events.
std::vector<BusTransaction> bus_transactions(const obs::FlightRecorder& rec,
                                             Cycle end);

/// A replayable transaction, decoupled from the 3-mode `Mode` type so the
/// same machinery drives the N-flow scaling study (§3.1 footnote: "nothing in
/// the architecture's basic design that limits it to three protocol modes...
/// the potential bottleneck is the interconnect").
struct FlowTx {
  u32 flow = 0;      ///< Flow id; doubles as fixed priority (0 = highest).
  Cycle request = 0; ///< Earliest cycle the transaction may start.
  u32 words = 0;     ///< Word transfers (shrink with a wider bus).
  Cycle stall = 0;   ///< Width-invariant cycles held without a transfer.
  /// Segment usage bitmask for the segmented-bus model.
  static constexpr u8 kSegMem = 1;
  static constexpr u8 kSegRfu = 2;
  u8 segments = kSegMem;
};

/// Converts a recorded bus trace into replayable flow transactions
/// (mode index becomes the flow id / priority).
std::vector<FlowTx> to_flow_trace(std::span<const BusTransaction> trace);

/// Synthesizes an N-flow workload by replicating flow 0's transaction
/// pattern of `trace` across `n_flows` flows, each offset by `phase` cycles —
/// the §3.1-footnote scaling experiment.
std::vector<FlowTx> synthesize_n_flows(std::span<const FlowTx> trace, u32 n_flows,
                                       Cycle phase);

struct InterconnectSpec {
  enum class Kind : u8 {
    SingleBus,    ///< The prototype: one bus, one word per cycle.
    WideBus,      ///< §3.6.3 "increase the bus-width": width_words per cycle.
    MultiBus,     ///< §3.6.3 multi-bus network: flow f uses bus f % num_buses.
    SegmentedBus, ///< §3.6.3 segmented bus: memory + RFU segments, bridged.
  };
  Kind kind = Kind::SingleBus;
  u32 width_words = 1;  ///< WideBus only (1 = 32-bit, 2 = 64-bit, ...).
  u32 num_buses = 1;    ///< MultiBus only.

  std::string label() const;
  /// Relative interconnect wiring cost (32-bit single bus = 1.0) — the
  /// resource-cost axis of the §3.6.3 trade ("with lower resources but with
  /// some additional control operations" for the segmented option).
  double wire_cost() const;
};

struct FlowReplayStats {
  Cycle wait = 0;  ///< Cycles spent queued behind other flows.
  Cycle hold = 0;  ///< Cycles holding a bus resource.
  u32 transactions = 0;
};

struct ReplayResult {
  Cycle makespan = 0;  ///< Completion cycle of the last transaction.
  std::vector<FlowReplayStats> flows;
  /// Utilization of the busiest single resource over the makespan.
  double peak_utilization = 0.0;

  Cycle total_wait() const;
  Cycle worst_flow_wait() const;
};

/// Replays `trace` through the interconnect described by `spec` under fixed
/// flow-priority arbitration (flow 0 highest, matching §3.6.4).
ReplayResult replay_interconnect(std::span<const FlowTx> trace, const InterconnectSpec& spec);

}  // namespace drmp::hw
