#include "hw/bus.hpp"

#include <algorithm>

namespace drmp::hw {

PacketBus::PacketBus(PacketMemory& mem) : mem_(mem) {}

void PacketBus::request_for_irc(Mode m) {
  wake_self();  // An asserted request line re-enters arbitration next tick.
  auto& r = requests_[index(m)];
  if (recorder_ != nullptr && !r.active) trace(obs::EventKind::kBusRequest, m);
  r.active = true;
  r.for_rfu = false;
  r.rfu_id = 0xFF;
}

void PacketBus::request_for_rfu(Mode m, u8 rfu_id) {
  wake_self();
  auto& r = requests_[index(m)];
  if (recorder_ != nullptr && !r.active) trace(obs::EventKind::kBusRequest, m);
  r.active = true;
  r.for_rfu = true;
  r.rfu_id = rfu_id;
}

void PacketBus::release(Mode m) {
  wake_self();  // A dropped request line may end a quiet hold.
  assert(override_stack_.empty() &&
         "bus released by IRC while a grant override is outstanding");
  if (recorder_ != nullptr && requests_[index(m)].active) {
    trace(obs::EventKind::kBusRelease, m);
  }
  requests_[index(m)] = ModeRequest{};
}

Word PacketBus::read(u32 addr) {
  wake_self();  // The access is accounted by the next tick.
  assert(grant_.kind != MasterKind::None && "bus read without a master");
  assert(!accessed_this_cycle_ && "second bus access in one cycle");
  accessed_this_cycle_ = true;
  if (recorder_ != nullptr) trace(obs::EventKind::kBusAccess, grant_origin_mode());
  return mem_.read(addr);
}

void PacketBus::write(u32 addr, Word data) {
  wake_self();  // Also: triggers and overrides change the grant's fate.
  assert(grant_.kind != MasterKind::None && "bus write without a master");
  assert(!accessed_this_cycle_ && "second bus access in one cycle");
  accessed_this_cycle_ = true;
  if (recorder_ != nullptr) {
    const bool rfu_region = addr == kOverrideAddr || triggers_.decodes(addr);
    trace(obs::EventKind::kBusAccess, grant_origin_mode(), rfu_region ? 1 : 0);
  }

  if (addr == kOverrideAddr) {
    // Grant Override Logic (thesis §3.6.5): only the current RFU master may
    // override. Writing another RFU's id delegates the bus to that slave;
    // writing its own id (or 0xFF) hands the bus back to the saved master.
    assert(grant_.kind == MasterKind::Rfu && "only an RFU master can override the grant");
    const u8 target = static_cast<u8>(data);
    if (target == grant_.rfu_id || target == 0xFF) {
      assert(!override_stack_.empty() && "override return without a saved master");
      grant_ = override_stack_.back();
      override_stack_.pop_back();
    } else {
      override_stack_.push_back(grant_);
      grant_ = Grant{MasterKind::Rfu, grant_.mode, target};
    }
    return;
  }

  if (triggers_.decode_write(addr, data)) {
    return;  // Write decoded as an RFU trigger; not a memory write.
  }
  mem_.write(addr, data);
}

void PacketBus::declare_run(sim::Clockable* master, Cycle n) {
  assert(grant_.kind != MasterKind::None && accessed_this_cycle_ &&
         "a word run starts with the master's access");
  run_master_ = master;
  run_left_ = n + 1;  // The declaring access, then the n slept-through ones.
  if (grant_.kind == MasterKind::Rfu) mem_.set_streamer(master);
}

void PacketBus::declare_burst(sim::Clockable* irc, u8 rfu_id, std::span<const Word> args) {
  assert(grant_.kind == MasterKind::Irc && "a trigger burst is the IRC's");
  declare_run(irc, args.size());
  triggers_.declare_burst(rfu_id, args);
  // Logged whole at the command word: the burst cannot be cut short.
  if (recorder_ != nullptr) {
    trace(obs::EventKind::kBusBurst, grant_.mode, static_cast<i64>(args.size()));
  }
}

void PacketBus::read_run(u32 addr, std::span<Word> out) const {
  assert(grant_.kind == MasterKind::Rfu && "word run without an RFU master");
  if (recorder_ != nullptr) {
    trace(obs::EventKind::kBusRun, grant_origin_mode(), static_cast<i64>(out.size()));
  }
  mem_.read_words(addr, out);
}

void PacketBus::write_run(u32 addr, std::span<const Word> in) {
  assert(grant_.kind == MasterKind::Rfu && "word run without an RFU master");
  assert(addr != kOverrideAddr && !triggers_.decodes(addr) &&
         !triggers_.decodes(addr + static_cast<u32>(in.size()) - 1) &&
         "a word run writes packet memory only");
  if (recorder_ != nullptr) {
    trace(obs::EventKind::kBusRun, grant_origin_mode(), static_cast<i64>(in.size()));
  }
  mem_.write_words(addr, in);
}

void PacketBus::write_scatter(u32 base, std::span<const std::pair<u32, Word>> words) {
  assert(grant_.kind == MasterKind::Rfu && "scatter run without an RFU master");
  if (recorder_ != nullptr) {
    trace(obs::EventKind::kBusRun, grant_origin_mode(), static_cast<i64>(words.size()));
  }
  for (const auto& [offset, word] : words) {
    assert(base + offset != kOverrideAddr && !triggers_.decodes(base + offset) &&
           "a scatter run writes packet memory only");
    mem_.write(base + offset, word);
  }
}

Mode PacketBus::grant_origin_mode() const {
  // Which mode's request produced the current grant (for statistics).
  if (grant_.kind == MasterKind::Irc) return grant_.mode;
  if (grant_.kind == MasterKind::Rfu) {
    // Find the mode whose delegated RFU is the master (or, for an override
    // slave, the mode that installed the original master).
    const u8 master = override_stack_.empty() ? grant_.rfu_id : override_stack_.front().rfu_id;
    for (std::size_t i = 0; i < kNumModes; ++i) {
      const auto& r = requests_[i];
      if (r.active && r.for_rfu && r.rfu_id == master) return mode_from_index(i);
    }
  }
  return grant_.mode;
}

PacketBus::HoldFate PacketBus::hold_fate() const {
  // Keep the current grant while its originating request is still active
  // (non-preemptive time-multiplexing, §3.6.3). During the grant-delay
  // window the IRC of mode m holds the bus; once delegated, the RFU (or its
  // override slave) holds it.
  bool still_active = false;
  for (std::size_t i = 0; i < kNumModes && !still_active; ++i) {
    const auto& r = requests_[i];
    if (!r.active) continue;
    const Mode m = mode_from_index(i);
    still_active = granted_irc(m) || (r.for_rfu && grant_.kind == MasterKind::Rfu);
  }
  if (!still_active) return HoldFate::Drop;
  // Grant Delay Logic: an IRC-held grant passes to the requested RFU once
  // the RFU's trigger has been observed (Fig. 3.12).
  if (grant_.kind == MasterKind::Irc) {
    const auto& r = requests_[index(grant_.mode)];
    if (r.active && r.for_rfu && triggers_.triggered_flag(r.rfu_id)) {
      return HoldFate::Promote;
    }
  }
  return HoldFate::Keep;
}

void PacketBus::arbitrate() {
  if (grant_.kind != MasterKind::None) {
    switch (hold_fate()) {
      case HoldFate::Keep:
        return;
      case HoldFate::Promote: {
        const u8 rfu_id = requests_[index(grant_.mode)].rfu_id;
        triggers_.clear_triggered_flag(rfu_id);
        grant_ = Grant{MasterKind::Rfu, grant_.mode, rfu_id};
        return;
      }
      case HoldFate::Drop:
        if (run_master_ != nullptr) {
          // The master loses the bus mid-run: settle its slept-through
          // words while it still holds the grant, and let it tick again.
          run_master_->wake_self();
          run_master_ = nullptr;
          run_left_ = 0;
        }
        grant_ = Grant{};
        override_stack_.clear();
        break;
    }
  }

  // New arbitration: fixed priority, mode A highest (§3.6.4).
  for (std::size_t i = 0; i < kNumModes; ++i) {
    const auto& r = requests_[i];
    if (!r.active) continue;
    const Mode m = mode_from_index(i);
    if (r.for_rfu && triggers_.triggered_flag(r.rfu_id)) {
      triggers_.clear_triggered_flag(r.rfu_id);
      grant_ = Grant{MasterKind::Rfu, m, r.rfu_id};
    } else {
      // A request for the IRC itself, or on behalf of a not-yet-triggered
      // RFU: grant the IRC so it can perform the trigger (delay semantics).
      if (grant_waker_ != nullptr) grant_waker_->wake_self();
      grant_ = Grant{MasterKind::Irc, m, 0xFF};
    }
    break;
  }
}

void PacketBus::account_hold(Cycle n) {
  // Hold/wait accounting for cycles starting after arbitration, so the very
  // first granted cycle does not count as contention.
  const bool held = grant_.kind != MasterKind::None;
  const Mode origin = held ? grant_origin_mode() : Mode::A;
  if (held) mode_hold_cycles_[index(origin)] += n;
  for (std::size_t i = 0; i < kNumModes; ++i) {
    if (requests_[i].active && !(held && origin == mode_from_index(i))) {
      mode_wait_cycles_[i] += n;
    }
  }
}

Cycle PacketBus::quiescent_for() const {
  if (accessed_this_cycle_) return 0;
  if (grant_.kind == MasterKind::None) {
    // Idle: any asserted request line is granted on the next tick.
    for (const ModeRequest& r : requests_) {
      if (r.active) return 0;
    }
    return kIdleForever;
  }
  // Held grant: arbitration keeps it as it is, so a tick only counts hold
  // and wait cycles, and an access while a declared run lasts. A master
  // accessing outside a run would wake a sleeping bus on every access, so
  // otherwise sleep only after a cycle with none.
  return (run_left_ > 0 || !accessed_last_cycle_) && hold_fate() == HoldFate::Keep
             ? kIdleForever
             : 0;
}

void PacketBus::skip_idle(Cycle n) {
  // A sleeping bus holds no access flag (every access wakes it first), so
  // the accessed cycles are exactly the run's.
  const Cycle run = std::min(n, run_left_);
  run_left_ -= run;
  busy_.sample_n(true, run);
  busy_.sample_n(false, n - run);
  account_hold(n);
  accessed_last_cycle_ = run == n;
}

void PacketBus::tick() {
  // Account the cycle that just completed; a declared run's cycle counts
  // as accessed whether its master slept through it or not.
  bool accessed = accessed_this_cycle_;
  if (run_left_ > 0) {
    --run_left_;
    accessed = true;
  }
  busy_.sample(accessed);
  accessed_last_cycle_ = accessed;
  accessed_this_cycle_ = false;

  arbitrate();
  account_hold(1);
}

}  // namespace drmp::hw
