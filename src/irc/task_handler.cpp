#include "irc/task_handler.hpp"

#include <algorithm>
#include <cassert>

#include "hw/memory_map.hpp"

namespace drmp::irc {

const char* to_string(ThRState s) {
  switch (s) {
    case ThRState::Idle: return "IDLE";
    case ThRState::Wait4Oct: return "WAIT4_OCT";
    case ThRState::Wait4Rfut: return "WAIT4_RFUT";
    case ThRState::Sleep: return "SLEEP";
    case ThRState::UseRfut1: return "USE_RFUT1";
    case ThRState::Wait4Rc: return "WAIT4_RC";
    case ThRState::UseRcWait: return "USE_RC_WAIT";
    case ThRState::Wait4Rfut2: return "WAIT4_RFUT2";
    case ThRState::UseRfut2: return "USE_RFUT2";
  }
  return "?";
}

const char* to_string(ThMState s) {
  switch (s) {
    case ThMState::Idle: return "IDLE";
    case ThMState::Wait4Oct: return "WAIT4_OCT";
    case ThMState::Wait4Rfut: return "WAIT4_RFUT";
    case ThMState::Sleep1: return "SLEEP1";
    case ThMState::Sleep2: return "SLEEP2";
    case ThMState::UseRfut1: return "USE_RFUT1";
    case ThMState::Wait4Pbus: return "WAIT4_PBUS";
    case ThMState::UsePbus: return "USE_PBUS";
    case ThMState::Wait4RfuDone: return "WAIT4_RFUDONE";
    case ThMState::Wait4Rfut2: return "WAIT4_RFUT2";
    case ThMState::UseRfut2: return "USE_RFUT2";
  }
  return "?";
}

void TaskHandler::start(ServiceRequest req) {
  assert(!active_ && "task handler busy: In-Interface must queue requests");
  assert(!req.ops.empty());
  req_ = std::move(req);
  active_ = true;
  thr_cleared_.assign(req_.ops.size(), false);
  thr_queue_.clear();
  for (std::size_t i = 0; i < req_.ops.size(); ++i) thr_queue_.push_back(i);
  thr_state_ = ThRState::Idle;
  thm_state_ = ThMState::Idle;
  thm_started_ = false;
  thm_idx_ = 0;
  pbus_seq_ = 0;
  thr_woken_ = thm_woken_ = false;
}

void TaskHandler::wake(ThKind kind) {
  if (kind == ThKind::ThR) {
    thr_woken_ = true;
  } else {
    thm_woken_ = true;
  }
}

void TaskHandler::thr_clear_op(std::size_t idx) {
  thr_cleared_[idx] = true;
  if (idx == 0 || !thm_started_) {
    // "As soon as the TH_R has cleared the first op-code of the
    // super-op-code, it triggers the corresponding TH_M" (§3.6.1.2).
    thm_started_ = true;
  }
  // TICK: wake TH_M if it sleeps on this op's preparation.
  if (thm_state_ == ThMState::Sleep1 && thm_idx_ == idx) {
    thm_woken_ = true;
  }
}

void TaskHandler::thm_request_redo(std::size_t idx) {
  thr_cleared_[idx] = false;
  thr_queue_.push_back(idx);
}

void TaskHandler::release_rfu_and_wake(u8 rfu_id) {
  auto& e = env_.rfut->entry(rfu_id);
  e.in_use = false;
  e.reserved_by_thr = false;
  // Wake every queued waiter; the freed unit is re-arbitrated among them on
  // their next table access (losers re-queue). Waking only the queue head
  // deadlocks when the woken controller declines the unit — e.g. it finds
  // the configuration state changed and hands the op back to its TH_R —
  // because the declined unit stays free while the tail waiter sleeps
  // forever. Popping in queue order preserves the Table 3.4 FCFS intent:
  // the earlier waiter re-checks first within the cycle.
  while (auto waiter = env_.rfut->pop_waiter(rfu_id)) {
    (*env_.handlers)[index(waiter->mode)]->wake(waiter->kind);
  }
}

void TaskHandler::complete_request() {
  active_ = false;
  ++completed_;
  if (on_complete) on_complete(mode_, req_);
}

TaskHandler::TaskHandler(Mode mode, ThEnv env) : mode_(mode), env_(env) {
  if (env_.trace == nullptr) return;
  // The state channels open with the charts' reset state, before the bus's
  // first cycle, so a trace reads the same whether the IRC's first ticks
  // ran or were slept through.
  const std::string m = to_string(mode_);
  sinks_.thr_chan = &env_.trace->channel("thr." + m);
  sinks_.thm_chan = &env_.trace->channel("thm." + m);
  sinks_.thr_chan->record(0, static_cast<int>(ThRState::Idle));
  sinks_.thm_chan->record(0, static_cast<int>(ThMState::Idle));
}

Cycle TaskHandler::quiescent_for_bound() const noexcept {
  if (!active_) return sim::Clockable::kIdleForever;  // Both charts in Idle.
  Cycle thr_q;
  switch (thr_state_) {
    case ThRState::Idle:
      thr_q = thr_queue_.empty() ? sim::Clockable::kIdleForever : 0;
      break;
    case ThRState::Sleep:
      // Released by release_rfu_and_wake from a sibling handler — which can
      // only run while this IRC ticks, so a sleeping IRC cannot miss it.
      thr_q = thr_woken_ ? 0 : sim::Clockable::kIdleForever;
      break;
    case ThRState::UseRcWait:
      // RC_DONE is produced by the RC statechart; while it is outstanding
      // the RC's own bound keeps the IRC awake, and once flagged the next
      // tick consumes it.
      thr_q = env_.rc->done_pending(mode_) ? 0 : sim::Clockable::kIdleForever;
      break;
    default:
      thr_q = 0;
      break;
  }
  if (thr_q == 0) return 0;
  Cycle thm_q;
  switch (thm_state_) {
    case ThMState::Idle:
      thm_q = (thm_started_ && thm_idx_ < req_.ops.size())
                  ? 0
                  : sim::Clockable::kIdleForever;
      break;
    case ThMState::Sleep1:
    case ThMState::Sleep2:
      thm_q = thm_woken_ ? 0 : sim::Clockable::kIdleForever;
      break;
    case ThMState::Wait4Pbus:
      // Arbitration grants the bus in the bus's own tick and wakes the IRC
      // through the grant waker, so the IRC ticks on the grant cycle.
      thm_q = env_.bus->granted_irc(mode_) ? 0 : sim::Clockable::kIdleForever;
      break;
    case ThMState::Wait4RfuDone: {
      // The unit's DONE transition fires the completion waker registered by
      // Irc::register_rfu, so sleeping through the execution span observes
      // DONE on exactly the tick the per-cycle poll would have.
      const rfu::Rfu* unit = (*env_.rfus)[thm_entry_.rfu_id];
      thm_q = unit->done() ? 0 : sim::Clockable::kIdleForever;
      break;
    }
    default:
      thm_q = 0;
      break;
  }
  return std::min(thr_q, thm_q);
}

void TaskHandler::skip_idle(Cycle n) {
  thr_occ_.sample_n(static_cast<int>(thr_state_), n);
  thm_occ_.sample_n(static_cast<int>(thm_state_), n);
  thr_busy_.sample_n(thr_state_ != ThRState::Idle, n);
  thm_busy_.sample_n(thm_state_ != ThMState::Idle, n);
}

void TaskHandler::tick() {
  if (active_) {
    tick_thr();
    tick_thm();
  } else {
    // Between requests both charts sit in Idle: the tick only samples.
    assert(thr_state_ == ThRState::Idle && thm_state_ == ThMState::Idle);
  }
  thr_occ_.sample(static_cast<int>(thr_state_));
  thm_occ_.sample(static_cast<int>(thm_state_));
  thr_busy_.sample(thr_state_ != ThRState::Idle);
  thm_busy_.sample(thm_state_ != ThMState::Idle);
  if (sinks_.thr_chan != nullptr) {
    // Recorded every tick; the channel stores change events only.
    const Cycle now = env_.bus->total_cycles();
    sinks_.thr_chan->record(now, static_cast<int>(thr_state_));
    sinks_.thm_chan->record(now, static_cast<int>(thm_state_));
  }
}

// --------------------------------------------------------------------- TH_R

void TaskHandler::tick_thr() {
  const u8 self = mutex_owner(mode_, ThKind::ThR);
  switch (thr_state_) {
    case ThRState::Idle: {
      if (!active_ || thr_queue_.empty()) return;
      thr_cur_ = thr_queue_.front();
      thr_state_ = ThRState::Wait4Oct;  // GO / read service-request op-code.
      return;
    }
    case ThRState::Wait4Oct: {
      if (!env_.oct_mutex->try_lock(self)) return;
      const rfu::Op op = req_.ops[thr_cur_].op;
      assert(env_.oct->contains(op) && "unknown op-code in service request");
      thr_entry_ = env_.oct->lookup(op);
      env_.oct_mutex->unlock(self);
      thr_state_ = ThRState::Wait4Rfut;
      return;
    }
    case ThRState::Wait4Rfut: {
      if (!env_.rfut_mutex->try_lock(self)) return;
      auto& e = env_.rfut->entry(thr_entry_.rfu_id);
      const bool needs_reconf = (e.c_state != thr_entry_.reconf_state);
      if (e.in_use) {
        if (e.owner == mode_ && e.reserved_by_thr) {
          // Our own earlier reservation (redo path): continue with it.
          env_.rfut_mutex->unlock(self);
          if (!needs_reconf) {
            thr_queue_.pop_front();
            thr_clear_op(thr_cur_);
            thr_state_ = ThRState::Idle;
          } else {
            thr_state_ = ThRState::Wait4Rc;
          }
          return;
        }
        // "[RFU in use by other mode] / Queue in RFUT" -> SLEEP.
        const bool queued = env_.rfut->queue_waiter(
            thr_entry_.rfu_id, {mode_, ThKind::ThR, static_cast<u8>(index(mode_))});
        env_.rfut_mutex->unlock(self);
        if (queued) {
          thr_state_ = ThRState::Sleep;
        }  // else retry the lookup next cycle (both queue slots full).
        return;
      }
      if (!needs_reconf) {
        // "[RFU already in required config. state]": clear without reserving.
        env_.rfut_mutex->unlock(self);
        thr_queue_.pop_front();
        thr_clear_op(thr_cur_);
        thr_state_ = ThRState::Idle;
        return;
      }
      // Reserve for reconfiguration.
      e.in_use = true;
      e.owner = mode_;
      e.reserved_by_thr = true;
      env_.rfut_mutex->unlock(self);
      thr_state_ = ThRState::UseRfut1;
      return;
    }
    case ThRState::Sleep: {
      if (!thr_woken_) return;
      thr_woken_ = false;
      thr_state_ = ThRState::Wait4Rfut;
      return;
    }
    case ThRState::UseRfut1: {
      // "Update RFU Table 'in_use'; check its state" — one table cycle.
      thr_state_ = ThRState::Wait4Rc;
      return;
    }
    case ThRState::Wait4Rc: {
      env_.rc->submit(mode_, thr_entry_.rfu_id, thr_entry_.reconf_state);
      thr_state_ = ThRState::UseRcWait;
      return;
    }
    case ThRState::UseRcWait: {
      if (!env_.rc->take_done(mode_)) return;  // Await RC_DONE.
      thr_state_ = ThRState::Wait4Rfut2;
      return;
    }
    case ThRState::Wait4Rfut2: {
      if (!env_.rfut_mutex->try_lock(self)) return;
      thr_state_ = ThRState::UseRfut2;
      return;
    }
    case ThRState::UseRfut2: {
      // Reservation stays (owner = this mode) for TH_M to claim.
      env_.rfut_mutex->unlock(self);
      thr_queue_.pop_front();
      thr_clear_op(thr_cur_);
      thr_state_ = ThRState::Idle;
      return;
    }
  }
}

// --------------------------------------------------------------------- TH_M

void TaskHandler::tick_thm() {
  const u8 self = mutex_owner(mode_, ThKind::ThM);
  switch (thm_state_) {
    case ThMState::Idle: {
      if (!active_ || !thm_started_) return;
      if (thm_idx_ >= req_.ops.size()) return;  // complete_request handles exit.
      thm_state_ = ThMState::Wait4Oct;  // GO_THM / read op-code.
      return;
    }
    case ThMState::Wait4Oct: {
      if (!env_.oct_mutex->try_lock(self)) return;
      thm_entry_ = env_.oct->lookup(req_.ops[thm_idx_].op);
      env_.oct_mutex->unlock(self);
      thm_state_ = ThMState::Wait4Rfut;
      return;
    }
    case ThMState::Wait4Rfut: {
      if (!thr_cleared_[thm_idx_]) {
        // "[RFU in use by same mode's TH_R]" -> SLEEP1, woken by TICK.
        thm_state_ = ThMState::Sleep1;
        return;
      }
      if (!env_.rfut_mutex->try_lock(self)) return;
      auto& e = env_.rfut->entry(thm_entry_.rfu_id);
      if (e.in_use) {
        if (e.owner == mode_) {
          if (e.c_state != thm_entry_.reconf_state) {
            // Stale configuration under our own reservation: redo.
            env_.rfut_mutex->unlock(self);
            thm_request_redo(thm_idx_);
            thm_state_ = ThMState::Sleep1;
            return;
          }
          e.reserved_by_thr = false;  // Claim the TH_R reservation.
          env_.rfut_mutex->unlock(self);
          thm_state_ = ThMState::UseRfut1;
          return;
        }
        // "[RFU in use by other mode] / Queue in RFUT" -> SLEEP2.
        const bool queued = env_.rfut->queue_waiter(
            thm_entry_.rfu_id, {mode_, ThKind::ThM, static_cast<u8>(index(mode_))});
        env_.rfut_mutex->unlock(self);
        if (queued) {
          thm_state_ = ThMState::Sleep2;
        }
        return;
      }
      if (e.c_state != thm_entry_.reconf_state) {
        // Free but reconfigured away by another mode since TH_R checked:
        // hand the op back to TH_R.
        env_.rfut_mutex->unlock(self);
        thm_request_redo(thm_idx_);
        thm_state_ = ThMState::Sleep1;
        return;
      }
      e.in_use = true;
      e.owner = mode_;
      e.reserved_by_thr = false;
      env_.rfut_mutex->unlock(self);
      thm_state_ = ThMState::UseRfut1;
      return;
    }
    case ThMState::Sleep1: {
      if (!thm_woken_) return;
      thm_woken_ = false;
      thm_state_ = ThMState::Wait4Rfut;
      return;
    }
    case ThMState::Sleep2: {
      if (!thm_woken_) return;
      thm_woken_ = false;
      thm_state_ = ThMState::Wait4Rfut;
      return;
    }
    case ThMState::UseRfut1: {
      // Assert in_use — one table cycle — then request the packet bus.
      env_.bus->request_for_irc(mode_);
      thm_state_ = ThMState::Wait4Pbus;
      return;
    }
    case ThMState::Wait4Pbus: {
      if (!env_.bus->granted_irc(mode_)) return;
      pbus_seq_ = 0;
      thm_state_ = ThMState::UsePbus;
      return;
    }
    case ThMState::UsePbus: {
      if (!env_.bus->can_access()) return;
      const OpCall& call = req_.ops[thm_idx_];
      assert(call.args.size() == thm_entry_.nargs &&
             "op-code argument count mismatch with op_code_table");
      const u32 trig = hw::rfu_trigger_addr(thm_entry_.rfu_id);
      const u32 total = 1 + thm_entry_.nargs + 1;  // cmd + args + execute.
      if (pbus_seq_ == 0) {
        env_.bus->write(trig, rfu::make_command_word(call.op, thm_entry_.nargs));
      } else if (pbus_seq_ <= thm_entry_.nargs) {
        env_.bus->write(trig, call.args[pbus_seq_ - 1]);
      } else {
        env_.bus->write(trig, 0);  // Execute trigger.
      }
      if (++pbus_seq_ < total) return;
      if (thm_entry_.detached) {
        // Channel-access style RFUs run without the bus.
        env_.bus->release(mode_);
        env_.bus->triggers().clear_triggered_flag(thm_entry_.rfu_id);
      } else {
        // Hand the bus to the RFU (grant-delay promotes once the trigger has
        // been observed).
        env_.bus->request_for_rfu(mode_, thm_entry_.rfu_id);
      }
      thm_state_ = ThMState::Wait4RfuDone;
      return;
    }
    case ThMState::Wait4RfuDone: {
      rfu::Rfu* unit = (*env_.rfus)[thm_entry_.rfu_id];
      if (!unit->done()) return;
      unit->clear_done();
      if (!thm_entry_.detached) env_.bus->release(mode_);
      thm_state_ = ThMState::Wait4Rfut2;
      return;
    }
    case ThMState::Wait4Rfut2: {
      if (!env_.rfut_mutex->try_lock(self)) return;
      thm_state_ = ThMState::UseRfut2;
      return;
    }
    case ThMState::UseRfut2: {
      release_rfu_and_wake(thm_entry_.rfu_id);
      env_.rfut_mutex->unlock(mutex_owner(mode_, ThKind::ThM));
      ++thm_idx_;
      thm_state_ = ThMState::Idle;
      if (thm_idx_ >= req_.ops.size()) {
        complete_request();
      }
      return;
    }
  }
}

}  // namespace drmp::irc
