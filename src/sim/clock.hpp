// Clock domains for the cycle-stepped simulation.
//
// The simulation advances in ticks of the *architecture clock* (the RHCP
// clock, 200 MHz in the prototype, thesis §5.4). Slower domains — the CPU
// clock and the per-protocol PHY byte clocks — are derived with fractional
// dividers so non-integer ratios (e.g. 200 MHz / 11 Mbps line rate) stay
// cycle-accurate in the long run.
#pragma once

#include "common/types.hpp"

namespace drmp::sim {

/// Frequency in Hz.
using Hz = double;

/// Converts between cycles of the architecture clock and wall-clock time.
class TimeBase {
 public:
  explicit TimeBase(Hz arch_freq) : arch_freq_(arch_freq) {}

  Hz arch_freq() const noexcept { return arch_freq_; }

  double cycles_to_us(Cycle c) const noexcept { return static_cast<double>(c) / arch_freq_ * 1e6; }
  Cycle us_to_cycles(double us) const noexcept {
    return static_cast<Cycle>(us * 1e-6 * arch_freq_ + 0.5);
  }
  Cycle ns_to_cycles(double ns) const noexcept {
    return static_cast<Cycle>(ns * 1e-9 * arch_freq_ + 0.5);
  }

 private:
  Hz arch_freq_;
};

/// A derived clock domain ticking at `freq` while the master clock ticks at
/// `arch_freq`. Call advance() every architecture cycle; it returns how many
/// derived-domain edges fall in that cycle (0 or 1 for slower domains).
class DerivedClock {
 public:
  DerivedClock(Hz arch_freq, Hz freq) : step_(freq / arch_freq) {}

  unsigned advance() noexcept {
    acc_ += step_;
    unsigned edges = 0;
    while (acc_ >= 1.0) {
      acc_ -= 1.0;
      ++edges;
    }
    return edges;
  }

  void reset() noexcept { acc_ = 0.0; }

 private:
  double step_;
  double acc_ = 0.0;
};

}  // namespace drmp::sim
