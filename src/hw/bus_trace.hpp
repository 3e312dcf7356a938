// Bus-transaction recorder for interconnect exploration (thesis §3.6.3,
// §5.5, §7.1.1).
//
// The thesis identifies the single packet bus as the throughput bottleneck
// and names the alternatives it would explore as future work: "One could
// simply increase the bus-width for higher throughput. A multi-bus network
// [100] may be used to allow two or three RFUs to simultaneously function for
// different protocol modes. A segmented bus [100] could also achieve similar
// results." This recorder captures the live single-bus workload —
// request/release of each mode's task handler plus every data-phase cycle —
// so interconnect_models.hpp can replay the identical demand through those
// alternative topologies.
#pragma once

#include <array>
#include <vector>

#include "common/types.hpp"

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

/// Passive observer attached to the PacketBus; builds the transaction list
/// consumed by the interconnect replay models.
class BusTraceRecorder {
 public:
  void on_request(Mode m, Cycle now);
  void on_release(Mode m, Cycle now);
  /// `rfu_region` — the access decoded as an RFU trigger/argument (or the
  /// override address) rather than a packet-memory word.
  void on_access(Mode origin, Cycle now, bool rfu_region);
  /// `n` packet-memory words of a declared word run, moved in the `n`
  /// cycles after the tenure's last access (PacketBus::read_run/write_run).
  void on_run(Mode origin, std::size_t n);

  /// Closes any still-open tenures (end of recording window).
  void finish(Cycle now);

  const std::vector<BusTransaction>& transactions() const { return done_; }
  std::size_t size() const { return done_.size(); }

 private:
  struct Open {
    bool active = false;
    bool any_access = false;
    BusTransaction tx;
  };
  void close(std::size_t i, Cycle now);

  std::array<Open, kNumModes> open_{};
  std::vector<BusTransaction> done_;
};

}  // namespace drmp::hw
