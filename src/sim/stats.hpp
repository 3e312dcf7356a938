// Statistics collectors backing the paper's evaluation artefacts:
//   * BusyCounter        -> Tables 5.1 / 5.2 (busy time of entities)
//   * StateOccupancy     -> Fig. 5.12 (state occupation in the task handler)
// Each component owns its counters; StatsRegistry is a by-name view of
// them, built on demand (DrmpDevice::stats()).
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <map>
#include <stdexcept>
#include <string>

#include "common/types.hpp"
#include "sim/checkpoint.hpp"

namespace drmp::sim {

/// Counts cycles during which an entity reports itself busy.
class BusyCounter {
 public:
  void sample(bool busy) noexcept {
    ++total_;
    if (busy) ++busy_;
  }
  /// Bulk form: n consecutive cycles of one constant state. Equivalent to n
  /// sample(busy) calls — the quiescence skip path accounts idle stretches
  /// and fixed busy ones (handler bodies, compute stalls) through this.
  void sample_n(bool busy, Cycle n) noexcept {
    total_ += n;
    if (busy) busy_ += n;
  }
  Cycle busy_cycles() const noexcept { return busy_; }
  Cycle total_cycles() const noexcept { return total_; }
  double busy_fraction() const noexcept {
    return total_ == 0 ? 0.0 : static_cast<double>(busy_) / static_cast<double>(total_);
  }
  /// Checkpoint support (sim/checkpoint.hpp). A component whose own record
  /// also carries the busy count (the bus's, the total too) reaches the
  /// fields through the slots below.
  template <class Ar>
  void persist(Ar& ar) {
    ar.io(busy_);
    ar.io(total_);
  }
  Cycle& busy_slot() noexcept { return busy_; }
  Cycle& total_slot() noexcept { return total_; }

 private:
  Cycle busy_ = 0;
  Cycle total_ = 0;
};

/// Per-state cycle histogram for a finite-state controller. States are
/// small non-negative enum values (the IRC's statecharts have at most 11),
/// so the histogram is a flat array; the seen-mask records which states
/// were ever sampled, even for 0 cycles, and a snapshot lists exactly
/// those.
class StateOccupancy {
 public:
  static constexpr int kMaxStates = 16;

  void sample(int state) { ++slot(state); }
  /// Bulk form: n consecutive cycles in one state (quiescence skip path).
  void sample_n(int state, Cycle n) { slot(state) += n; }
  Cycle cycles_in(int state) const noexcept {
    return in_range(state) ? cycles_[static_cast<std::size_t>(state)] : 0;
  }
  Cycle total() const noexcept {
    Cycle t = 0;
    for (Cycle c : cycles_) t += c;
    return t;
  }
  void reset() noexcept {
    cycles_.fill(0);
    seen_ = 0;
  }

  /// Checkpoint support (sim/checkpoint.hpp). The encoding is a
  /// std::map<int, Cycle>'s — a u64 count, then each sampled state's (int,
  /// Cycle) pair in ascending state order — so snapshots written while the
  /// histogram was such a map still load.
  template <class Ar>
  void persist(Ar& ar) {
    u64 n = static_cast<u64>(std::popcount(seen_));
    ar.io(n);
    if constexpr (Ar::kLoading) {
      reset();
      for (u64 i = 0; i < n; ++i) {
        int state = 0;
        ar.io(state);
        ar.io(slot(state));
      }
    } else {
      for (int s = 0; s < kMaxStates; ++s) {
        if ((seen_ >> s & 1u) == 0) continue;
        ar.io(s);
        ar.io(cycles_[static_cast<std::size_t>(s)]);
      }
    }
  }

 private:
  static constexpr bool in_range(int state) noexcept {
    return state >= 0 && state < kMaxStates;
  }
  Cycle& slot(int state) {
    if (!in_range(state)) throw std::out_of_range("state occupancy: state out of range");
    seen_ |= u32{1} << state;
    return cycles_[static_cast<std::size_t>(state)];
  }

  std::array<Cycle, kMaxStates> cycles_{};
  u32 seen_ = 0;  ///< Bit s: state s was sampled (a map key existed).
};

/// Order-sensitive FNV-1a accumulator over counter streams. The scenario
/// engine folds every per-device counter into one of these, so "same seed =>
/// byte-identical aggregate stats" collapses to a single u64 comparison.
class Digest {
 public:
  Digest() = default;
  /// Resumes a chain from a previously observed value() — the hierarchical
  /// fold path (FleetStats::add_station) keeps a running digest this way.
  explicit Digest(u64 resumed) noexcept : h_(resumed) {}

  Digest& mix(u64 v) noexcept {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ull;
    }
    return *this;
  }
  u64 value() const noexcept { return h_; }

 private:
  u64 h_ = 0xCBF29CE484222325ull;
};

/// View of a device's counters by name: each entry points at a counter a
/// component owns, so bench binaries can print the whole Table 5.1/5.2 row
/// set generically. Readers only read; a snapshot load writes through it.
/// Built on demand; it must not outlive the components it names.
class StatsRegistry {
 public:
  void add(std::string name, BusyCounter& c) { busy_.emplace(std::move(name), &c); }
  void add(std::string name, StateOccupancy& o) { occ_.emplace(std::move(name), &o); }
  const std::map<std::string, BusyCounter*>& all_busy() const& noexcept { return busy_; }
  const std::map<std::string, StateOccupancy*>& all_occupancy() const& noexcept {
    return occ_;
  }
  // A temporary view's maps would dangle: keep the view in a variable.
  void all_busy() && = delete;
  void all_occupancy() && = delete;

  /// Checkpoint support (sim/checkpoint.hpp): a count, then (name, value)
  /// in name order, for the busy counters and then the occupancies. A
  /// load restores each entry into the counter with that name and refuses
  /// a name this view does not have.
  template <class Ar>
  void persist(Ar& ar) {
    persist_map(ar, busy_);
    persist_map(ar, occ_);
  }

 private:
  template <class Ar, class M>
  static void persist_map(Ar& ar, M& m) {
    u64 n = m.size();
    ar.io(n);
    if constexpr (Ar::kLoading) {
      for (u64 i = 0; i < n; ++i) {
        std::string key;
        ar.io(key);
        const auto it = m.find(key);
        if (it == m.end()) {
          throw snap::UnknownRecordError("snapshot rejected: stats record names '" + key +
                                         "', which this device does not have");
        }
        ar.io(*it->second);
      }
    } else {
      for (auto& [k, v] : m) {
        std::string key = k;
        ar.io(key);
        ar.io(*v);
      }
    }
  }

  std::map<std::string, BusyCounter*> busy_;
  std::map<std::string, StateOccupancy*> occ_;
};

}  // namespace drmp::sim
