#include "cpu/cpu_model.hpp"

#include <algorithm>
#include <cassert>
#include <functional>

namespace drmp::cpu {

void CpuModel::raise_hw_interrupt(Mode m, u32 event, Word param) {
  wake_self();
  pending_.push_back(PendingIsr{m, IsrContext{IsrCause::HwInterrupt, event, param}, now()});
}

void CpuModel::set_timer(Mode m, u32 timer_id, Cycle delay) {
  wake_self();  // The new deadline may undercut the current idle bound.
  cancel_timer(m, timer_id);
  timers_.push_back(Timer{now() + delay, timer_seq_++, m, timer_id, false});
  std::push_heap(timers_.begin(), timers_.end(), std::greater<>{});
}

void CpuModel::cancel_timer(Mode m, u32 timer_id) {
  // Lazy cancellation: tombstone in place (heap order is untouched) and let
  // the entry pop with the heap. A stale tombstone at the top only makes the
  // idle bound conservative, never wrong.
  for (Timer& t : timers_) {
    if (t.mode == m && t.id == timer_id) t.cancelled = true;
  }
  while (!timers_.empty() && timers_.front().cancelled) {
    std::pop_heap(timers_.begin(), timers_.end(), std::greater<>{});
    timers_.pop_back();
  }
}

void CpuModel::post_host_request(Mode m, u32 request_id, Word param) {
  wake_self();
  pending_.push_back(PendingIsr{m, IsrContext{IsrCause::HostRequest, request_id, param}, now()});
}

Cycle CpuModel::quiescent_for() const {
  // Skippable while every tick is bookkeeping skip_idle replays exactly:
  // through a running handler's fixed body (busy_until_ is set at dispatch)
  // that no pending request preempts, or idle with nothing parked or
  // dispatchable — either way up to the next timer deadline, whose expiry
  // stamps posted_at. The preemption test reads pending_ as it stands: a
  // request delivered between runs is state at entry, not a future wake.
  // now() equals the index of the next tick at both evaluation points.
  const Cycle now = this->now();
  Cycle q = kIdleForever;
  if (now < busy_until_) {
    if (preemptor() < pending_.size()) return 0;
    q = busy_until_ - now;
  } else if (running_.has_value() || !suspended_.empty() || !pending_.empty()) {
    return 0;  // The completion or dispatch tick must execute.
  }
  if (timers_.empty()) return q;
  const Cycle due = timers_.front().fire_at;  // Conservative if tombstoned.
  return std::min(q, due > now ? due - now : 0);
}

void CpuModel::skip_idle(Cycle n) {
  // The bound never crosses a completion tick, so the stretch is a busy
  // prefix (the rest of the running body) followed by pure idle.
  const Cycle now = this->now();
  const Cycle b = now < busy_until_ ? std::min(n, busy_until_ - now) : 0;
  busy_.sample_n(true, b);
  busy_.sample_n(false, n - b);
  if (running_) mode_cycles_[index(*running_)] += b;
}

std::size_t CpuModel::preemptor() const {
  // Mid-handler pre-emption (§4.1.1): only a strictly higher-priority
  // mode's request parks the running handler.
  if (!cfg_.preemptive || !running_ || pending_.empty()) return pending_.size();
  const std::size_t b = best_pending();
  return index(pending_[b].mode) < index(*running_) ? b : pending_.size();
}

std::size_t CpuModel::best_pending() const {
  std::size_t best = pending_.size();
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    if (best == pending_.size() || index(pending_[i].mode) < index(pending_[best].mode)) {
      best = i;
    }
  }
  return best;
}

void CpuModel::dispatch(const PendingIsr& job, bool is_preemption, Cycle now) {
  max_dispatch_latency_ = std::max(max_dispatch_latency_, now - job.posted_at);
  auto& per_mode = mode_max_latency_[index(job.mode)];
  per_mode = std::max(per_mode, now - job.posted_at);

  Handler& h = handlers_[index(job.mode)];
  u32 instr = cfg_.isr_overhead_instr;
  if (is_preemption) instr += cfg_.preempt_overhead_instr / 2;
  if (h) {
    instr += h(job.ctx);
  }
  const Cycle cost = std::max<Cycle>(1, instr_to_arch_cycles(instr));
  busy_until_ = now + cost;
  running_ = job.mode;
  ++isr_count_;
}

void CpuModel::tick() {
  // The clock is the busy counter's total, sampled last: everything this
  // tick runs (handlers arming timers or raising interrupts included) reads
  // the tick's own index.
  const Cycle now = this->now();
  // Expire due timers into the pending queue, deadline order (ties in
  // arming order), popping the heap instead of erasing mid-vector.
  while (!timers_.empty() &&
         (timers_.front().cancelled || timers_.front().fire_at <= now)) {
    std::pop_heap(timers_.begin(), timers_.end(), std::greater<>{});
    const Timer t = timers_.back();
    timers_.pop_back();
    if (!t.cancelled) {
      pending_.push_back(PendingIsr{t.mode, IsrContext{IsrCause::Timer, t.id, 0}, now});
    }
  }

  const bool was_busy = now < busy_until_;
  if (was_busy && running_) ++mode_cycles_[index(*running_)];

  if (!was_busy && running_ && !suspended_.empty()) {
    // Completion: the running handler's budget is spent — pop back into the
    // handler that it pre-empted (innermost-last nesting stack).
    const Suspended s = suspended_.back();
    suspended_.pop_back();
    running_ = s.mode;
    // Restoring the parked frame costs the restore half of the overhead.
    busy_until_ =
        now + s.remaining +
        std::max<Cycle>(1, instr_to_arch_cycles(cfg_.preempt_overhead_instr / 2));
  } else {
    if (!was_busy) running_.reset();
    if (const std::size_t b = preemptor(); b < pending_.size()) {
      // The pre-empting request parks the running handler and runs at once.
      suspended_.push_back(Suspended{*running_, busy_until_ - now});
      ++preemption_count_;
      const PendingIsr job = pending_[b];
      pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(b));
      dispatch(job, /*is_preemption=*/true, now);
    } else if (now >= busy_until_ && !pending_.empty()) {
      // Idle dispatch: highest-priority pending ISR first (priority ordering
      // in the queue; mode A highest, matching the bus arbiter convention).
      const std::size_t b = best_pending();
      const PendingIsr job = pending_[b];
      pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(b));
      dispatch(job, /*is_preemption=*/false, now);
    }
  }
  busy_.sample(was_busy);
}

}  // namespace drmp::cpu
