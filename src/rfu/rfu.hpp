// Reconfigurable Functional Unit base class (thesis §3.6.2).
//
// Standardized RFU interface (Fig. 3.8): primary trigger (via the packet-bus
// address decode), optional secondary trigger (hard-wired master/slave
// lines), RC_en/RC_cnfgst from the Reconfiguration Controller, DONE and
// RDONE outputs, packet-bus mastership and (for MA-RFUs) reconfiguration-bus
// access.
//
// Two reconfiguration mechanisms (§3.6.2.2), transparent to the RC:
//   * CS-RFU  — context switch, RDONE after 1-2 cycles;
//   * MA-RFU  — streams its configuration blob from the reconfiguration
//               memory at one word per cycle, then RDONE.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "hw/bus.hpp"
#include "hw/reconfig_memory.hpp"
#include "rfu/rfu_ids.hpp"
#include "sim/clock.hpp"
#include "sim/scheduler.hpp"
#include "sim/stats.hpp"

namespace drmp::rfu {

enum class ReconfigMech : u8 { ContextSwitch, MemoryAccess };

class Rfu : public sim::Clockable {
 public:
  struct Env {
    hw::PacketBus* bus = nullptr;
    hw::ReconfigMemory* rmem = nullptr;
    const sim::TimeBase* timebase = nullptr;
  };

  Rfu(u8 id, std::string name, ReconfigMech mech, Env env);
  ~Rfu() override = default;

  u8 id() const noexcept { return id_; }
  const std::string& name() const noexcept { return name_; }
  ReconfigMech mechanism() const noexcept { return mech_; }

  // ---- IRC-facing signals ----
  bool done() const noexcept { return done_; }
  void clear_done() noexcept { done_ = false; }
  bool rdone() const noexcept { return rdone_; }
  void clear_rdone() noexcept { rdone_ = false; }
  u8 config_state() const noexcept { return c_state_; }
  bool busy() const noexcept { return phase_ != Phase::Idle; }
  bool reconfiguring() const noexcept { return phase_ == Phase::Reconfiguring; }

  /// Number of valid configuration states (rfu_table 'nstates' field).
  virtual u8 nstates() const { return 3; }

  /// True for RFUs that execute without holding the packet bus (e.g. the
  /// channel-access timer); the TH_M releases the bus after triggering them.
  virtual bool detached_execution() const { return false; }

  /// RC interface: RC_en + RC_cnfgst (starts the reconfiguration).
  void rc_configure(u8 new_state);

  /// Registers the component woken when DONE or RDONE asserts (the IRC):
  /// both lines are level signals the controllers otherwise poll, so the
  /// wake lets the IRC sleep through a unit's whole execution span.
  void set_completion_waker(sim::Clockable* w) noexcept { completion_waker_ = w; }

  /// Hard-wired secondary trigger from a master RFU (thesis §3.6.5 option c):
  /// `bytes` passed the master on the packet bus, in stream order — one
  /// word's worth per cycle, or a slept-through word run's at once.
  virtual void on_secondary_trigger(u8 master_id, std::span<const u8> bytes);

  void tick() final;

  // ---- Quiescence contract (sim/scheduler.hpp) ----
  /// An RFU is skippable while Idle or collecting arguments with no latched
  /// trigger (trigger pushes wake it through the RfuTriggerLogic waker; a
  /// trigger burst's arguments are taken by skip_idle as by the tick),
  /// bounded by its slave role;
  /// subclasses may additionally declare quiescent stretches of the Running
  /// phase (e.g. the channel-access RFU waiting for a TDMA slot boundary,
  /// or a streaming unit counting down a compute stall).
  Cycle quiescent_for() const final;
  void skip_idle(Cycle n) final;

  // ---- Checkpoint support (sim/checkpoint.hpp) ----
  /// Serializes the base execution engine (phase, latched command/arguments,
  /// DONE/RDONE lines, reconfiguration progress, counters), then the
  /// subclass state via save_extra/load_extra. The completion waker is
  /// wiring and stays untouched; the busy counter's total travels in the
  /// device's "stats" record.
  void save_state(sim::snap::Writer& w);
  void load_state(sim::snap::Reader& r);

  // ---- Instrumentation ----
  /// Settle on read: a unit sleeps through reconfiguration countdowns,
  /// Running-phase waits and compute stalls.
  Cycle busy_cycles() const noexcept {
    settle_self();
    return busy_.busy_cycles();
  }
  Cycle reconfig_cycles() const noexcept {
    settle_self();
    return reconfig_cycles_;
  }
  u64 reconfig_count() const noexcept { return reconfig_count_; }
  u64 exec_count() const noexcept { return exec_count_; }
  /// Busy samples, one per cycle (DrmpDevice::stats() names it
  /// "rfu.<name>"). Raw: the caller settles.
  sim::BusyCounter& busy_counter() noexcept { return busy_; }

 protected:
  /// Runs every cycle regardless of phase — used by RFUs with a hard-wired
  /// slave role (e.g. the FCS engine finishing a master's stream after a
  /// grant override) whose slave work is independent of the primary-trigger
  /// state machine.
  virtual void slave_step() {}

  /// Quiescence bound of the slave role: RFUs whose slave_step can have work
  /// pending must return 0 while it does (and wake_self when it is posted).
  virtual Cycle slave_quiescent_for() const { return kIdleForever; }
  /// Quiescence bound while Phase::Running — for access/timer RFUs whose
  /// work_step merely polls a known-future condition. A subclass returning
  /// a non-zero bound here must account the skipped work_step calls in
  /// on_running_skip (busy cycles are handled by the base).
  virtual Cycle running_quiescent_for() const { return 0; }
  virtual void on_running_skip(Cycle /*n*/) {}

  /// Called when the execute trigger fires (arguments latched in args_).
  virtual void on_execute(Op op) = 0;
  /// One cycle of work while running; return true when the task is complete.
  virtual bool work_step() = 0;
  /// Called when a reconfiguration completes; the blob (possibly empty for
  /// CS-RFUs) is the configuration data just loaded.
  virtual void on_reconfigured(u8 /*new_state*/, const std::vector<Word>& /*blob*/) {}

  /// Checkpoint extras: subclasses forward both directions to one shared
  /// `template <class Ar> void persist(Ar&)` so the field list cannot drift.
  virtual void save_extra(sim::snap::Writer& /*w*/) {}
  virtual void load_extra(sim::snap::Reader& /*r*/) {}

  // Bus helpers for subclasses.
  bool bus_granted() const { return env_.bus->granted_rfu(id_); }
  bool bus_free() const { return env_.bus->can_access(); }
  Word bus_read(u32 addr) { return env_.bus->read(addr); }
  void bus_write(u32 addr, Word w) { env_.bus->write(addr, w); }

  Env env_;
  Op current_op_ = Op::Nop;
  std::vector<Word> args_;
  u8 c_state_ = 0;

 private:
  enum class Phase : u8 { Idle, CollectArgs, Running, Reconfiguring };

  /// Takes up to `n` more arguments from a declared trigger burst; returns
  /// how many it took.
  std::size_t take_burst_args(Cycle n);

  template <class Ar>
  void persist_base(Ar& ar) {
    ar.io(current_op_);
    ar.io(args_);
    ar.io(c_state_);
    ar.io(phase_);
    ar.io(expected_args_);
    ar.io(command_word_);
    ar.io(pending_state_);
    ar.io(reconfig_remaining_);
    ar.io(done_);
    ar.io(rdone_);
    ar.io(busy_.busy_slot());
    ar.io(reconfig_cycles_);
    ar.io(reconfig_count_);
    ar.io(exec_count_);
  }

  u8 id_;
  std::string name_;
  ReconfigMech mech_;

  Phase phase_ = Phase::Idle;
  u8 expected_args_ = 0;
  Word command_word_ = 0;

  u8 pending_state_ = 0;
  Cycle reconfig_remaining_ = 0;

  bool done_ = false;
  bool rdone_ = false;
  sim::Clockable* completion_waker_ = nullptr;

  sim::BusyCounter busy_;
  Cycle reconfig_cycles_ = 0;
  u64 reconfig_count_ = 0;
  u64 exec_count_ = 0;
};

}  // namespace drmp::rfu
