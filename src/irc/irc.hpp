// The Interface and Reconfiguration Controller (thesis §3.6.1, Fig. 3.4) —
// "a combination of interacting controllers ... an Interface Controller and a
// Reconfiguration Controller. The IC has two interface modules: one that
// receives the service requests from the CPU, and the other that interrupts
// the MPU. The control task of the IC is delegated to three Task Handlers."
//
// Service requests arrive either from the CPU (super-op-codes written to the
// memory-mapped interface registers, Table 3.2) or from the Event Handler
// ("A service request to the IRC can thus originate from either the CPU or
// the Event-handler. The source of the request is transparent to the IRC",
// §3.6.6).
#pragma once

#include <array>
#include <deque>
#include <functional>
#include <memory>

#include "hw/bus.hpp"
#include "hw/packet_memory.hpp"
#include "irc/reconf_controller.hpp"
#include "irc/task_handler.hpp"
#include "sim/stats.hpp"

namespace drmp::irc {

/// Interrupt event codes written to the per-mode event register.
enum class IrqEvent : u8 {
  None = 0,
  ReqDone = 1,   ///< A CPU-originated service request completed.
  RxInd = 2,     ///< A data frame was received, checked and parsed.
  RxAckInd = 3,  ///< An ACK/control frame was received.
  RxBad = 4,     ///< A frame failed its redundancy checks (for statistics).
};

class Irc : public sim::Clockable {
 public:
  struct Env {
    hw::PacketBus* bus = nullptr;
    hw::PacketMemory* mem = nullptr;  ///< Interface-register access (direct).
  };

  explicit Irc(Env env);

  /// Registers an RFU with the pool (id taken from the unit).
  void register_rfu(rfu::Rfu* unit);

  /// Direct submission path (Event Handler, tests). Returns the request tag.
  u32 submit(Mode mode, ServiceRequest req);

  /// Completion notification: invoked when any request finishes.
  std::function<void(Mode, const ServiceRequest&)> on_complete;

  /// Interrupt generator: pending-interrupt line to the CPU. The CPU model
  /// reads the source registers via its own port and calls irq_ack.
  bool irq_line() const noexcept { return !irq_queue_.empty(); }
  struct IrqInfo {
    Mode mode;
    IrqEvent event;
    Word param;

    template <class Ar>
    void persist(Ar& ar) {
      ar.io(mode);
      ar.io(event);
      ar.io(param);
    }
  };
  /// CPU-side: pop the oldest pending interrupt (reads + clears the
  /// memory-mapped source registers).
  IrqInfo irq_take();
  void irq_raise(Mode mode, IrqEvent ev, Word param = 0);

  void tick() override;

  // ---- Quiescence contract (sim/scheduler.hpp) ----
  /// The IRC — the single most expensive idle ticker of a device (three
  /// TH_R/TH_M pairs plus the RC, each sampling occupancy statistics every
  /// cycle) — is skippable when no request is queued, no doorbell may be
  /// rung, and every controller statechart sits in a wait whose release is
  /// event-driven: Idle (submit() / the doorbell PacketMemory watch wake
  /// it), Sleep* (released only by sibling handlers of this same IRC),
  /// Wait4RfuDone / TriggerRcnfgWait / UseRcWait (an RFU's DONE/RDONE
  /// transition fires the completion waker installed by register_rfu) and
  /// Wait4Pbus before its grant (the bus's grant waker, wired by
  /// DrmpDevice, wakes the IRC when arbitration grants it). States that
  /// poll table mutexes bound the IRC to 0. Doorbells are read only while
  /// a flag says one may be rung: the doorbell watch sets it, a poll
  /// clears it (every doorbell reads zero after a poll's accepting
  /// writes), and a checkpoint load sets it. A sleeping IRC changes no
  /// chart state, so the task handlers' change-only signal tracks lose
  /// nothing, and the bus cycle counter they stamp settles on read.
  Cycle quiescent_for() const override;
  void skip_idle(Cycle n) override;

  TaskHandler& handler(Mode m) { return *handlers_[index(m)]; }
  ReconfController& rc() { return *rc_; }
  RfuTable& rfu_table() { return rfut_; }
  const OpCodeTable& op_code_table() const { return oct_; }
  std::array<rfu::Rfu*, hw::kMaxRfus>& rfu_pool() { return rfus_; }

  std::size_t queued_requests(Mode m) const { return pending_[index(m)].size(); }

  /// Checkpoint support (sim/checkpoint.hpp): the whole IRC complex — both
  /// look-up tables' dynamic halves, mutexes, the three task handlers, the
  /// RC and the queues. The op-code table is fabrication-time constant.
  template <class Ar>
  void persist(Ar& ar) {
    ar.io(rfut_);
    ar.io(oct_mutex_);
    ar.io(rfut_mutex_);
    ar.io(*rc_);
    for (auto& h : handler_storage_) ar.io(*h);
    ar.io(pending_);
    ar.io(irq_queue_);
    ar.io(next_tag_);
    // The doorbell flag is not saved: a load may bring rung doorbells with
    // it, so the first poll after it reads them all.
    if constexpr (Ar::kLoading) doorbell_rung_ = env_.mem != nullptr;
  }

 private:
  void poll_doorbells();
  void dispatch();

  Env env_;
  OpCodeTable oct_;
  RfuTable rfut_;
  TableMutex oct_mutex_;
  TableMutex rfut_mutex_;
  std::array<rfu::Rfu*, hw::kMaxRfus> rfus_{};
  std::unique_ptr<ReconfController> rc_;
  std::array<std::unique_ptr<TaskHandler>, kNumModes> handler_storage_;
  std::array<TaskHandler*, kNumModes> handlers_{};

  std::array<std::deque<ServiceRequest>, kNumModes> pending_;
  std::deque<IrqInfo> irq_queue_;
  u32 next_tag_ = 1;
  /// A doorbell may be non-zero: set by the doorbell watch and by a load,
  /// cleared by poll_doorbells.
  bool doorbell_rung_ = false;
};

/// Serializes a ServiceRequest into the mode's interface-register block
/// (what the device-driver side of the API does, Table 3.2) — used by the
/// CPU model; the In-Interface parses it back.
void write_super_op_code(hw::PacketMemory& mem, Mode mode, const ServiceRequest& req);

}  // namespace drmp::irc
