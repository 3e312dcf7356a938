// RFU Trigger Logic (thesis §3.6.5, Fig. 3.13): decodes the packet address
// bus and generates a primary trigger for an RFU when the corresponding
// address is asserted with write-enable. "It then calculates the ID of the
// addressed RFU by calculating the offset of the asserted address from a
// known base-address."
//
// Each trigger carries the word on the data bus: the TH_M "asserts its
// address on the packet-address-bus, which generates a trigger for the RFU,
// and the argument on the data-bus" (§3.6.1.2 step 7). Triggers are latched
// per-RFU until the RFU consumes them on its clock edge.
//
// The arguments of an op pass as a *trigger burst* (PacketBus::
// declare_burst): the command word is latched as above, and the arguments
// that follow it one per cycle are declared with it, so neither the IRC nor
// the RFU ticks for them. The RFU takes argument k as burst(id)[k], by its
// own progress, on its tick or when it is settled.
#pragma once

#include <array>
#include <deque>
#include <optional>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "hw/memory_map.hpp"
#include "sim/scheduler.hpp"

namespace drmp::hw {

class RfuTriggerLogic {
 public:
  /// Called by the bus on every write. Returns true if the address decoded
  /// to an RFU trigger (the write is then *not* a memory write). Wakes the
  /// addressed RFU: a latched trigger invalidates its quiescence bound.
  bool decode_write(u32 addr, Word data);

  /// Registers the component to wake when a trigger latches for `rfu_id`
  /// (the RFU itself; wired at RFU construction).
  void set_waker(u8 rfu_id, sim::Clockable* c) { wakers_[rfu_id] = c; }

  /// Pure address-range predicate (no side effects): would a write to `addr`
  /// decode as an RFU trigger?
  static bool decodes(u32 addr) { return is_rfu_trigger_addr(addr); }

  /// RFU-side: consume the oldest pending trigger, if any.
  std::optional<Word> take(u8 rfu_id);

  bool pending(u8 rfu_id) const { return !latched_[rfu_id].empty(); }

  /// The arguments of the trigger burst declared for `rfu_id`, in order
  /// (empty: none). It lasts until the RFU takes its op's execute trigger;
  /// a load forgets it, and the remaining arguments are then written one
  /// by one.
  std::span<const Word> burst(u8 rfu_id) const { return bursts_[rfu_id]; }
  void declare_burst(u8 rfu_id, std::span<const Word> args) {
    bursts_[rfu_id].assign(args.begin(), args.end());
  }

  /// True once the RFU has been triggered at least once since the flag was
  /// last cleared; used by the bus Grant Delay Logic (Fig. 3.12).
  bool triggered_flag(u8 rfu_id) const { return triggered_flag_[rfu_id]; }
  void clear_triggered_flag(u8 rfu_id) { triggered_flag_[rfu_id] = false; }

  /// Checkpoint support (sim/checkpoint.hpp); wakers are wiring, and a
  /// burst is not state (see burst()).
  template <class Ar>
  void persist(Ar& ar) {
    ar.io(latched_);
    ar.io(triggered_flag_);
    if constexpr (Ar::kLoading) {
      for (std::vector<Word>& b : bursts_) b.clear();
    }
  }

 private:
  std::array<std::deque<Word>, kMaxRfus> latched_{};
  std::array<bool, kMaxRfus> triggered_flag_{};
  std::array<std::vector<Word>, kMaxRfus> bursts_{};
  std::array<sim::Clockable*, kMaxRfus> wakers_{};
};

}  // namespace drmp::hw
