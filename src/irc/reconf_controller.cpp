#include "irc/reconf_controller.hpp"

#include <cassert>

namespace drmp::irc {

void ReconfController::submit(Mode mode, u8 rfu_id, u8 target_state) {
  assert(!pending_[index(mode)].has_value() && "RC: one outstanding request per mode");
  pending_[index(mode)] = Request{rfu_id, target_state};
  done_[index(mode)] = false;
}

bool ReconfController::take_done(Mode mode) {
  if (!done_[index(mode)]) return false;
  done_[index(mode)] = false;
  return true;
}

void ReconfController::skip_idle(Cycle n) {
  busy_.sample_n(state_ != State::Idle, n);
  occ_.sample_n(static_cast<int>(state_), n);
}

void ReconfController::tick() {
  busy_.sample(state_ != State::Idle);
  occ_.sample(static_cast<int>(state_));

  switch (state_) {
    case State::Idle: {
      // Serve pending requests in mode-priority order (A > B > C).
      for (std::size_t i = 0; i < kNumModes; ++i) {
        if (pending_[i]) {
          serving_ = mode_from_index(i);
          state_ = State::Wait4Oct;
          return;
        }
      }
      return;
    }
    case State::Wait4Oct: {
      // Read the op-code table (config vector lookup) under its mutex.
      if (!env_.oct_mutex->try_lock(kMutexOwnerRc)) return;
      env_.oct_mutex->unlock(kMutexOwnerRc);
      // Trigger the RFU's reconfiguration (RC_en + RC_cnfgst).
      const Request& r = *pending_[index(serving_)];
      rfu::Rfu* unit = (*env_.rfus)[r.rfu_id];
      assert(unit != nullptr && "RC: reconfiguring an unregistered RFU");
      unit->rc_configure(r.target_state);
      state_ = State::TriggerRcnfgWait;
      return;
    }
    case State::TriggerRcnfgWait: {
      const Request& r = *pending_[index(serving_)];
      rfu::Rfu* unit = (*env_.rfus)[r.rfu_id];
      if (!unit->rdone()) return;  // Wait for RFU_RDONE.
      unit->clear_rdone();
      state_ = State::Wait4Rfut;
      return;
    }
    case State::Wait4Rfut: {
      if (!env_.rfut_mutex->try_lock(kMutexOwnerRc)) return;
      state_ = State::UpdateRfut;
      return;
    }
    case State::UpdateRfut: {
      const Request r = *pending_[index(serving_)];
      auto& e = env_.rfut->entry(r.rfu_id);
      e.c_state = r.target_state;
      e.nstates = (*env_.rfus)[r.rfu_id]->nstates();
      env_.rfut_mutex->unlock(kMutexOwnerRc);
      pending_[index(serving_)].reset();
      done_[index(serving_)] = true;  // RC_DONE to the requesting TH_R.
      ++count_;
      state_ = State::Idle;
      return;
    }
  }
}

}  // namespace drmp::irc
