// Interrupt-driven CPU model (thesis Ch. 4).
//
// The DRMP's programming model runs the protocol control of all three modes
// as interrupt handlers on one CPU (Fig. 4.1b): "Each protocol's high-level
// control, partitioned to software, is implemented as an interrupt-handler
// routine." The model accounts cycles: every handler invocation costs a
// context-switch overhead plus the instructions the handler reports, scaled
// by the CPU:architecture clock ratio, so the experiments can show that a
// slow-clocked CPU keeps up with three concurrent protocol streams (§5.5.5).
#pragma once

#include <array>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "common/types.hpp"
#include "sim/clock.hpp"
#include "sim/scheduler.hpp"
#include "sim/stats.hpp"

namespace drmp::cpu {

/// Why a handler was invoked.
enum class IsrCause : u8 {
  HwInterrupt = 0,  ///< Interrupt from the RHCP (event code + param).
  Timer = 1,        ///< A software timer expired.
  HostRequest = 2,  ///< The application processor requested service (e.g. TX).
};

struct IsrContext {
  IsrCause cause;
  u32 event = 0;  ///< IrqEvent code / timer id / host request id.
  Word param = 0;

  template <class Ar>
  void persist(Ar& ar) {
    ar.io(cause);
    ar.io(event);
    ar.io(param);
  }
};

class CpuModel : public sim::Clockable {
 public:
  struct Config {
    double cpu_freq_hz = 40e6;
    double arch_freq_hz = 200e6;
    /// Context save/restore + dispatch overhead per ISR entry (CPU cycles).
    u32 isr_overhead_instr = 40;
    /// §4.1.1: "a priority mechanism whereby the interrupt from a higher
    /// priority protocol would pre-empt another mode's interrupt handler."
    /// Off by default — the thesis prototype runs handlers to completion and
    /// relies on their brevity; turning this on models true mid-handler
    /// pre-emption (nested ISRs, mode A highest priority).
    bool preemptive = false;
    /// Extra context save + restore cost charged per pre-emption (CPU cycles,
    /// split evenly between suspend and resume).
    u32 preempt_overhead_instr = 24;
  };

  /// A mode's interrupt handler: receives the cause and returns the number
  /// of CPU instructions it executed (the brevity requirement of §4.1.1).
  using Handler = std::function<u32(const IsrContext&)>;

  explicit CpuModel(Config cfg) : cfg_(cfg) {}

  void set_handler(Mode m, Handler h) { handlers_[index(m)] = std::move(h); }

  /// RHCP interrupt line (one line, source register decoded by the ISR).
  void raise_hw_interrupt(Mode m, u32 event, Word param);

  /// Arms a one-shot software timer for a mode (architecture cycles).
  void set_timer(Mode m, u32 timer_id, Cycle delay);
  void cancel_timer(Mode m, u32 timer_id);

  /// Host (application-processor) request, e.g. "transmit this MSDU".
  void post_host_request(Mode m, u32 request_id, Word param = 0);

  void tick() override;

  // ---- Quiescence contract (sim/scheduler.hpp) ----
  /// Sleeps through a running handler's body (its length is fixed at
  /// dispatch) and through idle stretches with nothing pending, either way
  /// no further than the nearest armed timer deadline (the heap top).
  /// A handler that a pending request pre-empts on the next tick stays
  /// awake. Interrupts, host requests and timer arms wake the model; the
  /// time-derived reads below settle on read.
  Cycle quiescent_for() const override;
  void skip_idle(Cycle n) override;

  // ---- Instrumentation ----
  bool busy() const noexcept {
    settle_self();
    return now_ < busy_until_;
  }
  Cycle busy_cycles() const noexcept {
    settle_self();
    return busy_.busy_cycles();
  }
  Cycle total_cycles() const noexcept {
    settle_self();
    return busy_.total_cycles();
  }
  double busy_fraction() const {
    settle_self();
    return busy_.busy_fraction();
  }
  /// Handler-busy cycles of all cycles (DrmpDevice::stats() names it
  /// "cpu"). Raw: the caller settles.
  sim::BusyCounter& busy_counter() noexcept { return busy_; }
  u64 isr_invocations() const noexcept { return isr_count_; }
  Cycle mode_cpu_cycles(Mode m) const {
    settle_self();
    return mode_cycles_[index(m)];
  }
  /// Longest time an ISR request waited before its handler started (cycles).
  Cycle max_dispatch_latency() const noexcept { return max_dispatch_latency_; }
  /// Per-mode worst-case dispatch latency (cycles) — the figure the
  /// pre-emption ablation compares.
  Cycle max_dispatch_latency(Mode m) const { return mode_max_latency_[index(m)]; }
  /// Number of mid-handler pre-emptions performed (preemptive mode only).
  u64 preemptions() const noexcept { return preemption_count_; }
  /// Mode of the handler currently executing, if any.
  std::optional<Mode> running_mode() const noexcept { return running_; }

  const Config& config() const noexcept { return cfg_; }

  /// Checkpoint support (sim/checkpoint.hpp). The timer min-heap vector
  /// travels verbatim — heap layout is deterministic for a given arm/cancel
  /// history, so restoring it byte-for-byte preserves pop order. Handlers
  /// are wiring; the busy counter's total travels in the device's "stats"
  /// record.
  template <class Ar>
  void persist(Ar& ar) {
    ar.io(now_);
    ar.io(busy_until_);
    ar.io(busy_.busy_slot());
    ar.io(isr_count_);
    ar.io(preemption_count_);
    ar.io(max_dispatch_latency_);
    ar.io(mode_max_latency_);
    ar.io(mode_cycles_);
    ar.io(running_);
    ar.io(suspended_);
    ar.io(pending_);
    ar.io(timers_);
    ar.io(timer_seq_);
  }

 private:
  struct PendingIsr {
    Mode mode;
    IsrContext ctx;
    Cycle posted_at;

    template <class Ar>
    void persist(Ar& ar) {
      ar.io(mode);
      ar.io(ctx);
      ar.io(posted_at);
    }
  };
  /// Deadline-ordered timer entry. Timers live in a binary min-heap on
  /// (fire_at, seq) — expiry pops are O(log n) instead of the old O(n)
  /// mid-vector erase per fired timer, and the heap top is the CPU's
  /// quiescence bound. Cancellation is lazy (tombstones pop with the heap);
  /// equal deadlines fire in arming order via seq.
  struct Timer {
    Cycle fire_at;
    u64 seq;
    Mode mode;
    u32 id;
    bool cancelled;
    bool operator>(const Timer& o) const noexcept {
      return fire_at != o.fire_at ? fire_at > o.fire_at : seq > o.seq;
    }

    template <class Ar>
    void persist(Ar& ar) {
      ar.io(fire_at);
      ar.io(seq);
      ar.io(mode);
      ar.io(id);
      ar.io(cancelled);
    }
  };
  /// A handler frame parked by a pre-emption, with its unexecuted remainder.
  struct Suspended {
    Mode mode;
    Cycle remaining;

    template <class Ar>
    void persist(Ar& ar) {
      ar.io(mode);
      ar.io(remaining);
    }
  };

  void dispatch(const PendingIsr& job, bool is_preemption);
  /// Index into pending_ of the best dispatchable request, or npos.
  std::size_t best_pending() const;
  /// Index into pending_ of the request that pre-empts the running handler
  /// on the next tick, or pending_.size(): the one test behind both tick()
  /// and the busy-stretch bound.
  std::size_t preemptor() const;

  Cycle instr_to_arch_cycles(u32 instr) const {
    return static_cast<Cycle>(static_cast<double>(instr) *
                                  (cfg_.arch_freq_hz / cfg_.cpu_freq_hz) +
                              0.5);
  }

  Config cfg_;
  Cycle now_ = 0;
  Cycle busy_until_ = 0;
  sim::BusyCounter busy_;
  u64 isr_count_ = 0;
  u64 preemption_count_ = 0;
  Cycle max_dispatch_latency_ = 0;
  std::array<Cycle, kNumModes> mode_max_latency_{};
  std::array<Handler, kNumModes> handlers_{};
  std::array<Cycle, kNumModes> mode_cycles_{};
  std::optional<Mode> running_;
  std::vector<Suspended> suspended_;  ///< Nesting stack, innermost last.
  std::deque<PendingIsr> pending_;
  std::vector<Timer> timers_;  ///< Min-heap on (fire_at, seq); see Timer.
  u64 timer_seq_ = 0;
};

}  // namespace drmp::cpu
