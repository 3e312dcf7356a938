#include "rfu/rfu.hpp"

#include <algorithm>
#include <cassert>

#include "sim/checkpoint.hpp"

namespace drmp::rfu {

Rfu::Rfu(u8 id, std::string name, ReconfigMech mech, Env env)
    : env_(env), id_(id), name_(std::move(name)), mech_(mech) {
  if (env_.bus != nullptr) env_.bus->triggers().set_waker(id_, this);
}

void Rfu::rc_configure(u8 new_state) {
  wake_self();  // Reconfiguration starts next tick: drop any quiescence bound.
  assert(phase_ == Phase::Idle && "reconfiguration of a busy RFU");
  phase_ = Phase::Reconfiguring;
  pending_state_ = new_state;
  rdone_ = false;
  if (mech_ == ReconfigMech::ContextSwitch) {
    // "RFUs implementing the context-switching reconfiguration mechanism
    // will be configured simply by switching the control signal RC_cnfgst
    // ... albeit much quicker (in 1-2 clock cycles)" (§3.6.2.2).
    reconfig_remaining_ = 2;
  } else {
    // MA-RFU: one word per cycle from the reconfiguration memory, plus one
    // cycle of address setup.
    const u32 len = env_.rmem != nullptr ? env_.rmem->blob_len(id_, new_state) : 0;
    reconfig_remaining_ = 1 + len;
  }
  ++reconfig_count_;
}

void Rfu::on_secondary_trigger(u8 /*master_id*/, std::span<const u8> /*bytes*/) {
  // Default: RFU has no slave role (secondary trigger not wired, Fig. 3.8).
}

Cycle Rfu::quiescent_for() const {
  Cycle q = 0;
  switch (phase_) {
    case Phase::Idle:
    case Phase::CollectArgs:
      // Both phases are trigger-driven: with nothing latched, a tick only
      // samples constant state. The trigger decode wakes the addressed RFU
      // on every push (hw::RfuTriggerLogic::set_waker), so "until woken" is
      // exact for the primary-trigger machinery in either phase.
      q = env_.bus->triggers().pending(id_) ? 0 : kIdleForever;
      break;
    case Phase::Running:
      q = running_quiescent_for();
      break;
    case Phase::Reconfiguring:
      // The countdown length was fixed at rc_configure; every tick strictly
      // before the completing one (remaining reaching 0) only decrements.
      // remaining >= 1 holds at both contract evaluation points, so the
      // bound never swallows the completion tick.
      q = reconfig_remaining_ - 1;
      break;
  }
  return std::min(q, slave_quiescent_for());
}

void Rfu::skip_idle(Cycle n) {
  // The phase is constant across a quiescent stretch (that is what the
  // bound asserts), so n constant-state samples reproduce the per-tick
  // bookkeeping exactly.
  busy_.sample_n(phase_ != Phase::Idle, n);
  if (phase_ == Phase::Running) {
    on_running_skip(n);
  } else if (phase_ == Phase::Reconfiguring) {
    // n no-op countdown ticks: the bound keeps n < remaining, so the
    // completing tick (and on_reconfigured) still executes for real.
    reconfig_cycles_ += n;
    reconfig_remaining_ -= n;
  }
  // CollectArgs: nothing beyond the busy accounting above — the skipped
  // ticks held no latched trigger by contract.
}

void Rfu::tick() {
  slave_step();

  busy_.sample(phase_ != Phase::Idle);

  switch (phase_) {
    case Phase::Reconfiguring: {
      ++reconfig_cycles_;
      if (--reconfig_remaining_ == 0) {
        c_state_ = pending_state_;
        static const std::vector<Word> kEmpty;
        const std::vector<Word>* blob = &kEmpty;
        if (mech_ == ReconfigMech::MemoryAccess && env_.rmem != nullptr &&
            env_.rmem->has_blob(id_, c_state_)) {
          blob = &env_.rmem->blob(id_, c_state_);
        }
        on_reconfigured(c_state_, *blob);
        rdone_ = true;
        phase_ = Phase::Idle;
        if (completion_waker_ != nullptr) completion_waker_->wake_self();
      }
      return;
    }
    case Phase::Idle: {
      // A pending primary trigger starts argument collection; the first word
      // is the command word (op + nargs).
      if (auto w = env_.bus->triggers().take(id_)) {
        command_word_ = *w;
        current_op_ = command_op(*w);
        expected_args_ = command_nargs(*w);
        args_.clear();
        phase_ = Phase::CollectArgs;
        // Fall through to collect any further trigger in this same cycle? No:
        // one trigger per bus cycle by construction.
      }
      return;
    }
    case Phase::CollectArgs: {
      // One trigger per bus cycle: each is either the next argument or — once
      // all arguments are latched — the execute command ("the same trigger
      // can be used to signal argument-ready as well as start-execution",
      // §3.6.1.2 step 9).
      if (auto w = env_.bus->triggers().take(id_)) {
        if (args_.size() < expected_args_) {
          args_.push_back(*w);
        } else {
          phase_ = Phase::Running;
          ++exec_count_;
          on_execute(current_op_);
        }
      }
      return;
    }
    case Phase::Running: {
      if (work_step()) {
        done_ = true;
        phase_ = Phase::Idle;
        if (completion_waker_ != nullptr) completion_waker_->wake_self();
      }
      return;
    }
  }
}


void Rfu::save_state(sim::snap::Writer& w) {
  persist_base(w);
  save_extra(w);
}

void Rfu::load_state(sim::snap::Reader& r) {
  persist_base(r);
  load_extra(r);
}

}  // namespace drmp::rfu
