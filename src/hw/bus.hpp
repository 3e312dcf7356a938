// The single shared packet bus and its arbiter (thesis §3.6.3-3.6.5,
// Figs. 3.10-3.12):
//
//   * Single-bus interconnect connecting the IRC, the RFU pool and the packet
//     memory; "the same packet-bus can be used for: the IRC writing data to
//     RFU, the IRC writing data to the packet memory, an RFU writing data to
//     the packet memory or an RFU writing data to another RFU."
//   * Fixed-priority arbitration between the three mode task-handlers
//     ("mode 1 has the highest priority and mode 3 the lowest", §3.6.4);
//     non-preemptive — a granted transaction holds the bus until released.
//   * Grant Delay Logic (Fig. 3.12): when the IRC requests the bus on behalf
//     of an RFU, the grant is delayed until the IRC has triggered that RFU.
//   * Grant Override Logic (Fig. 3.11, §3.6.5): the current master RFU writes
//     the reserved override address with a slave RFU id to hand the bus over,
//     and the slave writes it again to hand it back. "Only the RFU that
//     already has access to the bus can override the grant."
#pragma once

#include <array>
#include <cassert>
#include <span>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "hw/memory_map.hpp"
#include "hw/packet_memory.hpp"
#include "hw/trigger.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/scheduler.hpp"
#include "sim/stats.hpp"

namespace drmp::hw {

class PacketBus : public sim::Clockable {
 public:
  enum class MasterKind : u8 { None, Irc, Rfu };

  struct Grant {
    MasterKind kind = MasterKind::None;
    Mode mode = Mode::A;   // Valid when kind == Irc.
    u8 rfu_id = 0xFF;      // Valid when kind == Rfu.
    bool operator==(const Grant&) const = default;

    template <class Ar>
    void persist(Ar& ar) {
      ar.io(kind);
      ar.io(mode);
      ar.io(rfu_id);
    }
  };

  struct ModeRequest {
    bool active = false;
    bool for_rfu = false;  // IRC requesting on behalf of an RFU.
    u8 rfu_id = 0xFF;

    template <class Ar>
    void persist(Ar& ar) {
      ar.io(active);
      ar.io(for_rfu);
      ar.io(rfu_id);
    }
  };

  explicit PacketBus(PacketMemory& mem);

  // ---- Request lines (driven by the mode task handlers) ----
  void request_for_irc(Mode m);
  void request_for_rfu(Mode m, u8 rfu_id);
  void release(Mode m);

  // ---- Grant queries ----
  const Grant& grant() const noexcept { return grant_; }
  bool granted_irc(Mode m) const {
    return grant_.kind == MasterKind::Irc && grant_.mode == m;
  }
  bool granted_rfu(u8 rfu_id) const {
    return grant_.kind == MasterKind::Rfu && grant_.rfu_id == rfu_id;
  }

  // ---- Transactions (current master only; at most one per cycle) ----
  Word read(u32 addr);
  void write(u32 addr, Word data);
  bool can_access() const noexcept { return !accessed_this_cycle_; }

  // ---- Trigger logic access (RFU side) ----
  RfuTriggerLogic& triggers() noexcept { return triggers_; }

  // ---- Arbitration (once per architecture cycle) ----
  void tick() override;

  // ---- Word runs (the fourth busy sleeper, sim/scheduler.hpp) ----
  /// The master that just accessed the bus declares that it accesses it
  /// again in each of the next `n` cycles: the rest of its word run, bar
  /// the final access, which it makes for real. Grants are not preemptive,
  /// so the run is fixed when it starts. The bus then counts those cycles
  /// as accessed without an access call, and the master sleeps through
  /// them. An RFU master moves their words through read_run/write_run/
  /// write_scatter when it is settled, and port B of the memory settles it
  /// first; the IRC declares its runs with declare_burst.
  void declare_run(sim::Clockable* master, Cycle n);
  /// The IRC, having just written `rfu_id`'s command word, declares the
  /// op's arguments as a trigger burst: a run of args.size() trigger writes
  /// after the command word, one per cycle, that the RFU reads from
  /// triggers().burst() by its own progress (hw/trigger.hpp). The execute
  /// trigger after them is a real write. The IRC's request line holds the
  /// grant until then, so a burst is never cut short.
  void declare_burst(sim::Clockable* irc, u8 rfu_id, std::span<const Word> args);
  /// True while `master` may sleep through its declared run: the run still
  /// has cycles to count.
  bool in_run(const sim::Clockable* master) const noexcept {
    return run_master_ == master && run_left_ > 0;
  }
  /// Bulk port-A path for an RFU's slept-through run words (no per-cycle
  /// bookkeeping: declare_run accounted those cycles). An attached recorder
  /// credits the words to the open tenure here, as they move, so a run cut
  /// short by a dropped grant is not over-counted.
  void read_run(u32 addr, std::span<Word> out) const;
  void write_run(u32 addr, std::span<const Word> in);
  /// A scatter run's words: each pair's word is written at base + offset.
  void write_scatter(u32 base, std::span<const std::pair<u32, Word>> words);

  // ---- Quiescence contract (sim/scheduler.hpp) ----
  /// Skippable while idle (no request line asserted, no grant held) and
  /// through a held grant: arbitration would neither drop nor promote it,
  /// after a cycle without an access or while a declared run lasts. Either
  /// way a tick is pure cycle, access, hold and wait accounting. Request
  /// lines, releases and accesses wake the bus; the counters below settle
  /// on read. A tick that drops a grant mid-run wakes the run's master
  /// first, which settles it while it still holds the grant. Recorders
  /// stamp events with the raw cycle count, which every input settles first.
  Cycle quiescent_for() const override;
  void skip_idle(Cycle n) override;
  /// Component woken whenever arbitration makes a new MasterKind::Irc grant
  /// (the plain grant and the grant-delay grant alike), so a task handler
  /// waiting for the bus can sleep until its grant instead of polling
  /// granted_irc() every cycle. The grant happens in the bus's own tick,
  /// and the bus ticks before the IRC, so the catch-up rule has the IRC
  /// tick on the grant cycle, as every-tick mode does. Wired by DrmpDevice
  /// to the IRC; null = no waker.
  void set_grant_waker(sim::Clockable* c) noexcept { grant_waker_ = c; }

  // ---- Instrumentation ----
  Cycle busy_cycles() const noexcept {
    settle_self();
    return busy_.busy_cycles();
  }
  Cycle total_cycles() const noexcept {
    settle_self();
    return busy_.total_cycles();
  }
  Cycle mode_hold_cycles(Mode m) const {
    settle_self();
    return mode_hold_cycles_[index(m)];
  }
  /// Cycles a mode spent requesting without owning the bus (contention).
  Cycle mode_wait_cycles(Mode m) const {
    settle_self();
    return mode_wait_cycles_[index(m)];
  }
  /// Accessed cycles of all cycles (DrmpDevice::stats() names it
  /// "packet_bus"). Raw: the caller settles.
  sim::BusyCounter& busy_counter() noexcept { return busy_; }

  /// Logs request, release, access, word-run and burst events onto `r`'s
  /// "packet_bus" signal track for interconnect exploration (§3.6.3/§7.1
  /// alternatives; hw::bus_transactions replays them); pass nullptr to
  /// detach.
  void attach_recorder(obs::FlightRecorder* r) {
    recorder_ = r;
    if (r != nullptr) track_ = r->track("packet_bus");
  }

  /// Checkpoint support (sim/checkpoint.hpp). The arbiter state machine,
  /// the trigger latches and every cycle counter travel; the memory and
  /// recorders are wiring owned elsewhere, and the quiet-cycle
  /// hint only decides when the bus sleeps.
  ///
  /// A run is not state: the current cycle's slept-through access is saved
  /// as the access flag every-tick mode would hold, and after a load an RFU
  /// master ticks its next word and declares the rest again, while the IRC
  /// writes a burst's remaining arguments one by one (the trigger logic
  /// forgets the burst too).
  template <class Ar>
  void persist(Ar& ar) {
    ar.io(triggers_);
    ar.io(requests_);
    ar.io(grant_);
    ar.io(override_stack_);
    if constexpr (Ar::kLoading) {
      ar.io(accessed_this_cycle_);
      run_master_ = nullptr;
      run_left_ = 0;
    } else {
      bool accessed = accessed_this_cycle_ || run_left_ > 0;
      ar.io(accessed);
    }
    ar.io(busy_.busy_slot());
    ar.io(busy_.total_slot());
    ar.io(mode_hold_cycles_);
    ar.io(mode_wait_cycles_);
  }

 private:
  /// What arbitration does with a held grant: the one test behind both
  /// arbitrate() and the quiet-hold bound.
  enum class HoldFate : u8 { Drop, Keep, Promote };
  HoldFate hold_fate() const;
  Mode grant_origin_mode() const;
  /// Logs a bus event on the recorder's track, stamped with the raw cycle
  /// count (every input settles it first; a run logs at its settle point).
  void trace(obs::EventKind kind, Mode m, i64 b = 0) const {
    recorder_->log(busy_.total_cycles(), kind, track_, index(m), b);
  }
  void arbitrate();
  /// Adds n post-arbitration cycles of hold and wait counts.
  void account_hold(Cycle n);

  PacketMemory& mem_;
  obs::FlightRecorder* recorder_ = nullptr;
  u16 track_ = 0;
  sim::Clockable* grant_waker_ = nullptr;
  RfuTriggerLogic triggers_;

  std::array<ModeRequest, kNumModes> requests_{};
  Grant grant_{};
  std::vector<Grant> override_stack_;

  bool accessed_this_cycle_ = false;
  bool accessed_last_cycle_ = false;  ///< Sleep hint (not persisted).
  /// Declared run: the next run_left_ ticks count an access whatever the
  /// flag says (the first one accounts the declaring access itself).
  sim::Clockable* run_master_ = nullptr;
  Cycle run_left_ = 0;
  sim::BusyCounter busy_;
  std::array<Cycle, kNumModes> mode_hold_cycles_{};
  std::array<Cycle, kNumModes> mode_wait_cycles_{};
};

}  // namespace drmp::hw
