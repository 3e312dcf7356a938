// Dual-port packet memory (thesis §3.6.3, memory option 3 of Table 3.5):
// port A serves the packet bus (RFUs / IRC), port B gives the CPU direct
// access so "one mode may be accessing packet-data in the RHCP ... while
// another mode may be reading header data and carrying out control operations
// through the CPU".
//
// Port B settles on read: a streaming RFU that sleeps through a word run
// (hw::PacketBus::declare_run) moves its words into port A only when it is
// settled, so every port-B access first brings that unit up to the current
// cycle. A reader on either side of the unit's tick slot then sees exactly
// the words every-tick mode would have moved by then.
#pragma once

#include <algorithm>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/types.hpp"
#include "hw/memory_map.hpp"
#include "sim/scheduler.hpp"
#include "sim/stats.hpp"

namespace drmp::hw {

class PacketMemory {
 public:
  PacketMemory() : words_(kMemWords, 0) {}

  // ---- Port A (packet bus) ----
  Word read(u32 addr) const { return words_.at(addr); }
  void write(u32 addr, Word data) { words_.at(addr) = data; }
  /// Bulk forms for a word run's slept-through cycles.
  void read_words(u32 addr, std::span<Word> out) const {
    check_range(addr, out.size());
    std::copy_n(words_.begin() + addr, out.size(), out.begin());
  }
  void write_words(u32 addr, std::span<const Word> in) {
    check_range(addr, in.size());
    std::copy(in.begin(), in.end(), words_.begin() + addr);
  }

  /// The unit whose word run port B settles first (set by the bus when a
  /// run is declared; a unit that is awake settles as a no-op).
  void set_streamer(const sim::Clockable* c) noexcept { streamer_ = c; }

  // ---- Port B (CPU direct access) ----
  Word cpu_read(u32 addr) const {
    settle_streamer();
    return words_.at(addr);
  }
  void cpu_write(u32 addr, Word data) {
    settle_streamer();
    words_.at(addr) = data;
    if (!watches_.empty()) notify_watchers(addr);
  }

  /// Address watch: wakes `c` whenever port B writes `addr`, then sets
  /// `*written`. Used for the doorbell registers, where the CPU's device
  /// driver rings the IRC without any signal the IRC could otherwise sleep
  /// against; the flag spares the IRC reading its doorbells until one may
  /// have been rung. The set is tiny (one doorbell per mode), so the
  /// hot-path cost is one emptiness branch.
  void watch_write(u32 addr, sim::Clockable* c, bool* written) {
    watches_.push_back({addr, c, written});
  }

  // ---- Page helpers (byte-level view used by software models & tests) ----
  void write_page_bytes(Mode m, Page p, std::span<const u8> bytes);
  Bytes read_page_bytes(Mode m, Page p) const;
  u32 page_byte_len(Mode m, Page p) const {
    settle_streamer();
    return words_.at(page_base(m, p) + kPageLenOffset);
  }

  /// Checkpoint support (sim/checkpoint.hpp); watches and the streamer are
  /// wiring, not state.
  template <class Ar>
  void persist(Ar& ar) {
    ar.io(words_);
  }

 private:
  struct Watch {
    u32 addr;
    sim::Clockable* component;
    bool* written;
  };
  void settle_streamer() const noexcept {
    if (streamer_ != nullptr) streamer_->settle_self();
  }
  void check_range(u32 addr, std::size_t n) const {
    if (addr > words_.size() || n > words_.size() - addr) {
      throw std::out_of_range("packet memory word run out of range");
    }
  }
  void notify_watchers(u32 addr) const {
    for (const Watch& w : watches_) {
      if (w.addr != addr) continue;
      w.component->wake_self();
      *w.written = true;
    }
  }

  std::vector<Word> words_;
  std::vector<Watch> watches_;
  const sim::Clockable* streamer_ = nullptr;
};

}  // namespace drmp::hw
