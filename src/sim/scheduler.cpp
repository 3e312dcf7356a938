#include "sim/scheduler.hpp"

#include "sim/checkpoint.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <string>
#include <utility>

namespace drmp::sim {

void Clockable::wake_self() noexcept {
  if (wake_sched_ != nullptr) wake_sched_->wake_component(wake_index_);
}

void Scheduler::add(Clockable& c, std::string name, int stage) {
  entries_.push_back(Entry{&c, stage});
  names_.push_back(std::move(name));
  batch_dirty_ = true;
}

void Scheduler::freeze() {
  // Stable sort keeps registration order within a stage, so an all-default
  // scheduler executes in exact registration order (the legacy contract).
  std::vector<u32> order(entries_.size());
  std::iota(order.begin(), order.end(), u32{0});
  std::stable_sort(order.begin(), order.end(), [this](u32 a, u32 b) {
    return entries_[a].stage < entries_[b].stage;
  });
  // A re-freeze (late add()) carries every component's counts to its new
  // frozen index.
  std::vector<TickCounts> counts(order.size());
  for (std::size_t i = 0; i < rank_.size(); ++i) counts[i] = counts_[rank_[i]];
  order_ = std::move(order);
  rank_.resize(order_.size());
  counts_.resize(order_.size());
  batch_.clear();
  batch_.reserve(order_.size());
  // Bind the wake route: wake_self() must reach this scheduler's active-set
  // bookkeeping. A component lives in exactly one scheduler in this code
  // base; re-freezing (or re-registering elsewhere) rebinds it.
  for (u32 k = 0; k < order_.size(); ++k) {
    Clockable* c = entries_[order_[k]].component;
    batch_.push_back(c);
    c->wake_sched_ = this;
    c->wake_index_ = k;
    rank_[order_[k]] = k;
    counts_[k] = counts[order_[k]];
  }
  batch_dirty_ = false;
}

template <typename Done>
bool Scheduler::advance(Cycle n, const Done& done, bool hold) {
  if (!fault_.empty()) throw SchedulerFaulted(fault_);
  bool fired = done();
  if (!fired) {
    if (batch_dirty_) {  // A late add() re-freezes: the held indices go.
      close_held();
      freeze();
    }
    try {
      fired = idle_skip_ && !batch_.empty() ? run_skipping(now_ + n, done)
                                            : run_every_tick(n, done);
    } catch (...) {  // Zero-cost until a tick throws.
      fault();
      throw;
    }
  }
  if (!hold) {
    close_held();
  } else if (in_batched_run_) {
    publish_wake_hint();  // Held exit: nothing is settled.
  }
  return fired;
}

template <typename Done>
bool Scheduler::run_every_tick(Cycle n, const Done& done) {
  // A plain loop over the frozen array, held in locals. The member clock
  // still advances every cycle so components that sample now() mid-tick
  // observe the same values as under skipping.
  Clockable* const* comps = batch_.data();
  const std::size_t count = batch_.size();
  Cycle ran = 0;
  bool fired = false;
  std::size_t k = 0;
  try {
    while (ran < n && !fired) {
      for (k = 0; k < count; ++k) comps[k]->tick();
      ++now_;
      ++ran;
      fired = done();
    }
  } catch (...) {
    cursor_ = k < count ? k : kNoCursor;  // Names the culprit for fault().
    throw;
  }
  for (k = 0; k < count; ++k) counts_[k].executed += ran;
  next_wake_ = now_;
  return fired;
}

void Scheduler::enter_batched() {
  in_batched_run_ = true;
  in_cycle_ = false;
  cursor_ = kNoCursor;
  states_.assign(batch_.size(), CompState{});
  wheel_.reset(now_);
  wheel_stale_ = 0;
  active_.reset(batch_.size());
  // Entry partition: every component is fully caught up here, so bounds are
  // relative to the next cycle to execute (now_).
  for (u32 i = 0; i < batch_.size(); ++i) {
    const Cycle q = batch_[i]->quiescent_for();
    if (q == 0) {
      active_.insert(i);
      continue;
    }
    CompState& st = states_[i];
    st.sleeping = true;
    st.slept_from = st.span_from = now_;
    if (q != Clockable::kIdleForever && q <= Clockable::kIdleForever - now_) {
      wheel_.push(now_ + q, i, st.gen);
      st.in_wheel = true;
      wheel_depth_max_ = std::max<u64>(wheel_depth_max_, wheel_.size());
    }
  }
}

void Scheduler::close_held() {
  if (in_batched_run_) exit_batched();
}

void Scheduler::exit_batched() {
  // The hint first: the settle below retires every wheel entry.
  publish_wake_hint();
  // Settle: every sleeping component is caught up through the last executed
  // cycle, so introspection (stats, counters, internal clocks) between runs
  // is indistinguishable from every-tick mode.
  for (u32 i = 0; i < states_.size(); ++i) {
    if (states_[i].sleeping) end_sleep(i);
  }
  in_batched_run_ = false;
}

void Scheduler::publish_wake_hint() {
  // Lane-level wake hint for MultiScheduler: with nothing awake, the
  // earliest live wheel bound (sleepers outside the wheel sleep until
  // woken). A bound already due reads as now_.
  if (active_.size() != 0) {
    next_wake_ = now_;
    return;
  }
  const auto live = [this](const TimingWheel::Entry& e) { return is_live(e); };
  next_wake_ = std::max(now_, wheel_.next_live_bound(live));
}

void Scheduler::settle_sleeper(u32 idx) {
  // The catch-up rule (header comment): mid-cycle, a sleeper whose tick
  // slot has passed owes this cycle too. A settle that already covered this
  // cycle owes nothing, so settle-then-wake never double-counts. The mark
  // moves before skip_idle runs, so a read it makes of its own component
  // cannot settle the same stretch twice.
  CompState& st = states_[idx];
  const Cycle upto = now_ + (in_cycle_ && idx <= cursor_ ? 1 : 0);
  if (upto <= st.slept_from) return;
  const Cycle owed = upto - st.slept_from;
  st.slept_from = upto;
  batch_[idx]->skip_idle(owed);
  counts_[idx].skipped += owed;
}

void Scheduler::end_sleep(u32 idx) {
  settle_sleeper(idx);
  CompState& st = states_[idx];
  st.sleeping = false;
  ++st.gen;  // Any wake-wheel entry for this sleep period is now stale.
  if (observer_ != nullptr && st.slept_from > st.span_from) {
    observer_->on_skip_span(names_[order_[idx]], st.span_from,
                            st.slept_from - st.span_from);
  }
}

void Scheduler::wake_component(u32 idx) {
  if (!in_batched_run_) {
    // External input between runs: the published lane hint no longer
    // proves quiescence (the next batched entry re-partitions anyway).
    next_wake_ = now_;
    return;
  }
  CompState& st = states_[idx];
  if (!st.sleeping) return;
  if (st.in_wheel) {
    st.in_wheel = false;
    ++wheel_stale_;  // Woken early: its wheel entry lingers until purged.
  }
  // The settle covers exactly the cycles it is owed, so it really ticks at
  // now_ if its slot has not passed this cycle, at now_+1 otherwise.
  end_sleep(idx);
  active_.insert(idx);
  // Between held runs, a round-skipped lane must be dispatched again (a
  // run's own exit recomputes the hint anyway).
  next_wake_ = now_;
}

void Scheduler::drain_wheel() {
  // Scheduled bounds that expire this cycle. Entries are drained in bucket
  // order, not time order — every drained entry is due at now_ (or stale),
  // and wake_component is order-independent within a cycle boundary.
  wheel_.advance(now_, [this](const TimingWheel::Entry& e) {
    CompState& st = states_[e.index];
    if (st.sleeping && st.gen == e.gen) {
      st.in_wheel = false;
      wake_component(e.index);
    } else if (wheel_stale_ > 0) {
      --wheel_stale_;  // A stale entry just fell out on its own.
    }
  });
  // Lazy-deletion leak fix: components woken early leave their entries
  // behind; sweep them out as soon as they are the majority so the wheel's
  // depth tracks the *sleeping* population, not the wake history.
  if (wheel_stale_ >= kPurgeMinStale && wheel_stale_ * 2 >= wheel_.size()) {
    wheel_.purge([this](const TimingWheel::Entry& e) { return is_live(e); });
    wheel_stale_ = 0;
    ++wheel_purges_;
  }
}

template <typename Done>
bool Scheduler::run_skipping(Cycle limit, const Done& done) {
  if (!in_batched_run_) enter_batched();  // A held state resumes as it is.
  bool fired = false;
  while (now_ < limit && !fired) {
    drain_wheel();
    // Globally-quiescent gap: nothing is awake. Fast-forward to the
    // earliest wake bound; sleepers settle lazily (on read, wake or exit).
    // The wheel reports a *lower* bound (a bucket floor above level 0), so
    // a long gap may take a few hops — additive skip chunking makes that
    // bit-identical to one jump.
    if (active_.size() == 0) {
      const Cycle gap = std::min(limit, wheel_.next_bound()) - now_;
      if (observer_ != nullptr) observer_->on_fast_forward(now_, gap);
      now_ += gap;
      ff_cycles_ += gap;
      ++ff_events_;
      fired = done();
      continue;
    }
    // One real cycle over the awake set, in frozen (stage) order. After
    // each tick the word is re-read above the cursor, so an index inserted
    // by wake_component mid-pass is picked up later in this same pass —
    // the same semantics the std::set iteration used to provide.
    in_cycle_ = true;
    for (std::size_t w = 0; w < active_.word_count(); ++w) {
      u64 m = active_.word(w);
      while (m != 0) {
        const auto bit = static_cast<u32>(std::countr_zero(m));
        const auto idx = static_cast<u32>(w * 64) + bit;
        cursor_ = idx;
        Clockable* c = batch_[idx];
        c->tick();
        ++counts_[idx].executed;
        const Cycle q = c->quiescent_for();
        if (q > 0) {
          CompState& st = states_[idx];
          st.sleeping = true;
          ++st.gen;
          st.slept_from = st.span_from = now_ + 1;
          if (q != Clockable::kIdleForever &&
              q < Clockable::kIdleForever - now_ - 1) {
            wheel_.push(now_ + 1 + q, idx, st.gen);
            st.in_wheel = true;
            wheel_depth_max_ = std::max<u64>(wheel_depth_max_, wheel_.size());
          }
          active_.erase(idx);
        }
        // Re-read above the cursor: picks up same-cycle wakes at higher
        // indices of this word (u64{2} << 63 wraps to 0, masking the word
        // out entirely).
        m = active_.word(w) & ~((u64{2} << bit) - 1);
      }
    }
    in_cycle_ = false;
    cursor_ = kNoCursor;
    ++now_;
    fired = done();
  }
  return fired;  // advance() closes or holds the state.
}

void Scheduler::run_cycles(Cycle n) {
  advance(n, [] { return false; }, false);  // Folds out of the kernel's loops.
}

void Scheduler::run_held(Cycle n) {
  advance(n, [] { return false; }, true);
}

bool Scheduler::run_until(const std::function<bool()>& done, Cycle max_cycles) {
  return advance(max_cycles, done, false);
}

void Scheduler::fault() {
  // Sleepers stay unsettled mid-run, so no cycle describes this state.
  std::string who = "the run";
  if (cursor_ != kNoCursor) who = "component '" + names_[order_[cursor_]] + "'";
  fault_ = "sim::Scheduler faulted: " + who + " threw at cycle " + std::to_string(now_);
  in_batched_run_ = false;  // Later wakes only reset next_wake_...
  next_wake_ = now_;        // ...so lanes dispatch this scheduler, which throws.
}

std::map<int, std::pair<u64, u64>> Scheduler::ticks_by_stage() const {
  std::map<int, std::pair<u64, u64>> by_stage = restored_stages_;
  for (std::size_t k = 0; k < counts_.size(); ++k) {
    auto& [exec, skip] = by_stage[entries_[order_[k]].stage];
    exec += counts_[k].executed;
    skip += counts_[k].skipped;
  }
  return by_stage;
}

ExecProfile Scheduler::profile() const {
  ExecProfile p;
  for (const auto& [stage, counts] : ticks_by_stage()) {
    p.ticks_executed += counts.first;
    p.ticks_skipped += counts.second;
    if (stage == kStageMedium) {
      p.medium_ticks_executed = counts.first;
      p.medium_ticks_skipped = counts.second;
    }
  }
  p.ff_cycles = ff_cycles_;
  p.ff_events = ff_events_;
  p.wheel_depth_max = wheel_depth_max_;
  p.wheel_cascades = wheel_.cascades();
  p.wheel_purges = wheel_purges_;
  return p;
}

// The record keeps its version-1 layout, so older snapshots load: the tick
// totals (equal to the stage map's sums), a 65-word slot that once held a
// fast-forward length histogram (written as zeros, skipped on load), and
// {executed, skipped} per stage. A load restores the per-stage totals;
// per-component counts restart from zero.
void Scheduler::save_state(snap::Writer& w) {
  if (!fault_.empty()) throw SchedulerFaulted(fault_);
  close_held();
  ExecProfile p = profile();
  std::map<int, std::pair<u64, u64>> by_stage = ticks_by_stage();
  std::array<u64, 65> retired{};
  w.io(now_);
  w.io(p.ticks_executed);
  w.io(p.ticks_skipped);
  w.io(ff_cycles_);
  w.io(ff_events_);
  w.io(wheel_depth_max_);
  w.io(wheel_purges_);
  w.io(retired);
  w.io(by_stage);
}

void Scheduler::load_state(snap::Reader& r) {
  u64 ticks_executed = 0;
  u64 ticks_skipped = 0;
  std::array<u64, 65> retired{};
  r.io(now_);
  r.io(ticks_executed);
  r.io(ticks_skipped);
  r.io(ff_cycles_);
  r.io(ff_events_);
  r.io(wheel_depth_max_);
  r.io(wheel_purges_);
  r.io(retired);
  r.io(restored_stages_);
  std::fill(counts_.begin(), counts_.end(), TickCounts{});
  next_wake_ = now_;
}

}  // namespace drmp::sim
