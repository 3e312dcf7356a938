#include "irc/irc.hpp"

#include <algorithm>
#include <cassert>

#include "hw/memory_map.hpp"

namespace drmp::irc {

using namespace drmp::hw;

Irc::Irc(Env env) : env_(env) {
  ReconfController::Env rc_env;
  rc_env.oct = &oct_;
  rc_env.rfut = &rfut_;
  rc_env.oct_mutex = &oct_mutex_;
  rc_env.rfut_mutex = &rfut_mutex_;
  rc_env.rfus = &rfus_;
  rc_ = std::make_unique<ReconfController>(rc_env);

  ThEnv th_env;
  th_env.oct = &oct_;
  th_env.rfut = &rfut_;
  th_env.oct_mutex = &oct_mutex_;
  th_env.rfut_mutex = &rfut_mutex_;
  th_env.rc = rc_.get();
  th_env.bus = env_.bus;
  th_env.rfus = &rfus_;
  th_env.handlers = &handlers_;
  th_env.irc = this;
  for (std::size_t i = 0; i < kNumModes; ++i) {
    handler_storage_[i] = std::make_unique<TaskHandler>(mode_from_index(i), th_env);
    handlers_[i] = handler_storage_[i].get();
    handlers_[i]->on_complete = [this](Mode m, const ServiceRequest& req) {
      if (on_complete) on_complete(m, req);
    };
  }

  // Doorbell writes arrive through plain memory stores (the device driver's
  // side of Table 3.2); watch them so a sleeping IRC is woken to poll.
  if (env_.mem != nullptr) {
    for (std::size_t i = 0; i < kNumModes; ++i) {
      env_.mem->watch_write(iface_base(mode_from_index(i)) + kDoorbellOffset, this,
                            &doorbell_rung_);
    }
  }
}

void Irc::register_rfu(rfu::Rfu* unit) {
  assert(unit != nullptr);
  unit->set_completion_waker(this);  // DONE/RDONE release controller waits.
  rfus_[unit->id()] = unit;
  auto& e = rfut_.entry(unit->id());
  e.c_state = unit->config_state();
  e.nstates = unit->nstates();
}

u32 Irc::submit(Mode mode, ServiceRequest req) {
  wake_self();  // A queued request dispatches on the next tick.
  if (req.tag == 0) req.tag = next_tag_++;
  const u32 tag = req.tag;
  pending_[index(mode)].push_back(std::move(req));
  return tag;
}

Cycle Irc::quiescent_for() const {
  for (std::size_t i = 0; i < kNumModes; ++i) {
    // A queued request is only actionable once its handler is idle, and a
    // handler goes idle inside complete_request — during an (awake) IRC
    // tick — so a request parked behind an active one cannot pin the IRC
    // to a per-cycle dispatch poll.
    if (!pending_[i].empty() && handlers_[i]->idle()) return 0;
  }
  if (doorbell_rung_) return 0;
  // Every controller contributes a per-state bound: 0 while a statechart can
  // transition, kIdleForever when it is parked in a wait whose release is
  // guaranteed to wake this component (submit(), the doorbell watch, or an
  // RFU's DONE/RDONE completion waker) — so requests in flight no longer pin
  // the IRC to a per-cycle poll across long RFU execution and
  // reconfiguration spans.
  Cycle q = rc_->quiescent_for_bound();
  for (const TaskHandler* th : handlers_) {
    if (q == 0) return 0;
    q = std::min(q, th->quiescent_for_bound());
  }
  return q;
}

void Irc::skip_idle(Cycle n) {
  for (TaskHandler* th : handlers_) th->skip_idle(n);
  rc_->skip_idle(n);
}

Irc::IrqInfo Irc::irq_take() {
  assert(!irq_queue_.empty());
  IrqInfo info = irq_queue_.front();
  irq_queue_.pop_front();
  return info;
}

void Irc::irq_raise(Mode mode, IrqEvent ev, Word param) {
  irq_queue_.push_back(IrqInfo{mode, ev, param});
  // Mirror into the memory-mapped source registers (Table 3.2: "the software
  // will respond to the interrupt by reading a memory-mapped hardware
  // register ... to indicate the source of the interrupt").
  if (env_.mem != nullptr) {
    const Word src = env_.mem->cpu_read(kIrqSourceReg);
    env_.mem->cpu_write(kIrqSourceReg, src | (1u << index(mode)));
    env_.mem->cpu_write(kIrqEventReg0 + static_cast<u32>(index(mode)),
                        static_cast<Word>(ev));
    env_.mem->cpu_write(kIrqParamReg0 + static_cast<u32>(index(mode)), param);
  }
}

void Irc::poll_doorbells() {
  if (!doorbell_rung_) return;
  for (std::size_t i = 0; i < kNumModes; ++i) {
    const Mode m = mode_from_index(i);
    const u32 base = iface_base(m);
    const Word nwords = env_.mem->cpu_read(base + kDoorbellOffset);
    if (nwords == 0) continue;
    // Parse the serialized super-op-code.
    ServiceRequest req;
    u32 at = base + kSopBufOffset;
    const Word head = env_.mem->cpu_read(at++);
    const u32 n_ops = head & 0xFF;
    req.tag = head >> 8;
    req.from_cpu = true;
    for (u32 k = 0; k < n_ops; ++k) {
      const Word opw = env_.mem->cpu_read(at++);
      OpCall call;
      call.op = rfu::command_op(opw);
      const u8 nargs = rfu::command_nargs(opw);
      for (u8 a = 0; a < nargs; ++a) call.args.push_back(env_.mem->cpu_read(at++));
      req.ops.push_back(std::move(call));
    }
    env_.mem->cpu_write(base + kDoorbellOffset, 0);  // Accept the request.
    submit(m, std::move(req));
  }
  // Every doorbell now reads zero, found so or cleared by the accepting
  // write above (whose watch set the flag again).
  doorbell_rung_ = false;
}

void Irc::dispatch() {
  for (std::size_t i = 0; i < kNumModes; ++i) {
    auto& q = pending_[i];
    if (q.empty()) continue;
    TaskHandler& th = *handlers_[i];
    if (!th.idle()) continue;
    th.start(std::move(q.front()));
    q.pop_front();
  }
}

void Irc::tick() {
  poll_doorbells();
  dispatch();
  // The seven controllers of the IRC run concurrently (§3.6.1.1): three
  // TH_R/TH_M pairs and the RC. Deterministic order: mode A, B, C, then RC.
  for (auto* th : handlers_) th->tick();
  rc_->tick();
}

void write_super_op_code(hw::PacketMemory& mem, Mode mode, const ServiceRequest& req) {
  const u32 base = iface_base(mode);
  u32 at = base + kSopBufOffset;
  u32 count = 0;
  mem.cpu_write(at++, static_cast<Word>(req.ops.size() & 0xFF) | (req.tag << 8));
  ++count;
  for (const OpCall& call : req.ops) {
    mem.cpu_write(at++, rfu::make_command_word(call.op, static_cast<u8>(call.args.size())));
    ++count;
    for (Word a : call.args) {
      mem.cpu_write(at++, a);
      ++count;
    }
  }
  assert(count <= kSopBufWords && "super-op-code exceeds interface buffer");
  mem.cpu_write(base + kDoorbellOffset, count);  // Ring the doorbell.
}

}  // namespace drmp::irc
