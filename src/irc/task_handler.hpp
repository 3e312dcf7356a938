// Per-mode Task Handler (thesis §3.6.1): "The control task of the IC is
// delegated to three Task Handlers (TH), one for each of the three protocol
// modes ... Each of these task handlers is composed of a task-handler for
// reconfiguration (TH_R), and a task-handler for MAC operations (TH_M)."
//
// The two controllers run concurrently over the same service request: TH_R
// walks the op-codes ahead, reserving and reconfiguring RFUs via the RC;
// TH_M executes them in order — looking up the tables under mutexes,
// queueing/sleeping on busy RFUs, passing arguments over the packet bus and
// waiting for DONE. State names follow Figs. 3.5/3.6 so the state-occupancy
// statistics reproduce Fig. 5.12 directly.
#pragma once

#include <array>
#include <deque>
#include <functional>
#include <vector>

#include "hw/bus.hpp"
#include "irc/reconf_controller.hpp"
#include "irc/tables.hpp"
#include "rfu/rfu.hpp"
#include "sim/stats.hpp"
#include "sim/trace.hpp"

namespace drmp::irc {

/// One op-code call within a super-op-code.
struct OpCall {
  rfu::Op op;
  std::vector<Word> args;

  template <class Ar>
  void persist(Ar& ar) {
    ar.io(op);
    ar.io(args);
  }
};

/// A decoded super-op-code: "One software request may consist of multiple
/// op-codes, and hence the request may be termed a super-op-code" (§3.6.1.2).
struct ServiceRequest {
  std::vector<OpCall> ops;
  bool from_cpu = true;  ///< false: originated by the Event Handler.
  u32 tag = 0;

  template <class Ar>
  void persist(Ar& ar) {
    ar.io(ops);
    ar.io(from_cpu);
    ar.io(tag);
  }
};

/// TH_R statechart states (Fig. 3.5).
enum class ThRState : u8 {
  Idle = 0,
  Wait4Oct,
  Wait4Rfut,
  Sleep,
  UseRfut1,
  Wait4Rc,
  UseRcWait,
  Wait4Rfut2,
  UseRfut2,
};

/// TH_M statechart states (Fig. 3.6).
enum class ThMState : u8 {
  Idle = 0,
  Wait4Oct,
  Wait4Rfut,
  Sleep1,  ///< RFU held / being prepared by the same mode's TH_R.
  Sleep2,  ///< RFU in use by another mode (queued in the rfu_table).
  UseRfut1,
  Wait4Pbus,
  UsePbus,
  Wait4RfuDone,
  Wait4Rfut2,
  UseRfut2,
};

const char* to_string(ThRState s);
const char* to_string(ThMState s);

class TaskHandler;

struct ThEnv {
  OpCodeTable* oct = nullptr;
  RfuTable* rfut = nullptr;
  TableMutex* oct_mutex = nullptr;
  TableMutex* rfut_mutex = nullptr;
  ReconfController* rc = nullptr;
  hw::PacketBus* bus = nullptr;
  std::array<rfu::Rfu*, hw::kMaxRfus>* rfus = nullptr;
  std::array<TaskHandler*, kNumModes>* handlers = nullptr;  ///< WAKE routing.
  sim::TraceRecorder* trace = nullptr;
};

class TaskHandler : public sim::Clockable {
 public:
  TaskHandler(Mode mode, ThEnv env);

  Mode mode() const noexcept { return mode_; }
  bool idle() const noexcept { return !active_; }

  /// Accepts a new service request (the In-Interface dispatches here).
  void start(ServiceRequest req);

  /// WAKE signal: another mode's TH_M released an RFU we queued on.
  void wake(ThKind kind);

  /// Invoked when the last op-code of the request completes.
  std::function<void(Mode, const ServiceRequest&)> on_complete;

  void tick() override;

  /// Per-state quiescence bound feeding Irc::quiescent_for(): 0 when either
  /// statechart can transition on its next tick, kIdleForever when both are
  /// parked in a wait whose release path is guaranteed to wake the IRC —
  /// Idle (submit/doorbell wakes), Sleep* (released by a sibling handler of
  /// the same IRC, which only runs while the IRC is awake), Wait4RfuDone /
  /// UseRcWait (the RFU's DONE/RDONE completion waker), Wait4Pbus until the
  /// grant (the bus's grant waker). Every other state polls table mutexes
  /// or the bus's per-cycle access slot and returns 0.
  Cycle quiescent_for_bound() const noexcept;
  /// Bulk-accounts n skipped ticks (constant-Idle occupancy/busy samples).
  /// Trace channels store change events only, so a skipped constant-state
  /// stretch records exactly what the per-tick path would.
  void skip_idle(Cycle n) override;

  ThRState thr_state() const noexcept { return thr_state_; }
  ThMState thm_state() const noexcept { return thm_state_; }
  u64 requests_completed() const noexcept { return completed_; }
  /// Non-Idle cycles and per-state cycles of one statechart, sampled every
  /// cycle (DrmpDevice::stats() names them "irc.thr.<mode>" and
  /// "irc.thm.<mode>").
  sim::BusyCounter& busy_counter(ThKind k) noexcept {
    return k == ThKind::ThR ? thr_busy_ : thm_busy_;
  }
  sim::StateOccupancy& occupancy(ThKind k) noexcept {
    return k == ThKind::ThR ? thr_occ_ : thm_occ_;
  }

  /// Checkpoint support (sim/checkpoint.hpp): both statecharts and the
  /// in-flight request context. The trace channels are wiring; the
  /// counters travel in the device's "stats" record.
  template <class Ar>
  void persist(Ar& ar) {
    ar.io(req_);
    ar.io(active_);
    ar.io(thr_cleared_);
    ar.io(completed_);
    ar.io(thr_state_);
    ar.io(thr_queue_);
    ar.io(thr_cur_);
    ar.io(thr_entry_);
    ar.io(thr_woken_);
    ar.io(thm_state_);
    ar.io(thm_started_);
    ar.io(thm_idx_);
    ar.io(thm_entry_);
    ar.io(thm_woken_);
    ar.io(pbus_seq_);
  }

 private:
  void tick_thr();
  void tick_thm();
  /// TH_R finished preparing op `idx` (reconfig done or not needed).
  void thr_clear_op(std::size_t idx);
  /// TH_M found a stale configuration; hand the op back to TH_R.
  void thm_request_redo(std::size_t idx);
  void release_rfu_and_wake(u8 rfu_id);
  void complete_request();

  Mode mode_;
  ThEnv env_;

  // Shared request context.
  ServiceRequest req_;
  bool active_ = false;
  std::vector<bool> thr_cleared_;
  u64 completed_ = 0;

  // TH_R context.
  ThRState thr_state_ = ThRState::Idle;
  std::deque<std::size_t> thr_queue_;  ///< Op indices awaiting preparation.
  std::size_t thr_cur_ = 0;
  OpCodeEntry thr_entry_{};
  bool thr_woken_ = false;

  // TH_M context.
  ThMState thm_state_ = ThMState::Idle;
  bool thm_started_ = false;  ///< GO_THM received from TH_R.
  std::size_t thm_idx_ = 0;
  OpCodeEntry thm_entry_{};
  bool thm_woken_ = false;
  u32 pbus_seq_ = 0;

  sim::BusyCounter thr_busy_;
  sim::BusyCounter thm_busy_;
  sim::StateOccupancy thr_occ_;
  sim::StateOccupancy thm_occ_;
  /// State trace channels, set by the constructor (null: no trace).
  struct Sinks {
    sim::TraceChannel* thr_chan = nullptr;
    sim::TraceChannel* thm_chan = nullptr;
  } sinks_;
};

}  // namespace drmp::irc
