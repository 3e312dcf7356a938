// StreamingRfu: a micro-sequencer shared by the word-streaming RFUs.
//
// Coarse-grained RFUs move packet data through the single packet bus at one
// word per cycle (§3.6.3); compute-bound units add stall cycles per word.
// Subclasses enqueue micro-operations (read page, stall, write page, patch
// bytes) and drive them one bus access per cycle from work_step().
#pragma once

#include <deque>

#include "hw/memory_map.hpp"
#include "rfu/rfu.hpp"

namespace drmp::rfu {

class StreamingRfu : public Rfu {
 public:
  using Rfu::Rfu;

 protected:
  /// Queues a read of a page header (length word) and its payload words into
  /// in_bytes_.
  void q_read_page(u32 page_addr);
  /// Queues a read of `nwords` raw words starting at `addr` into in_words_.
  void q_read_words(u32 addr, u32 nwords);
  /// Queues a write of out_bytes_ as a page (length word + payload).
  void q_write_page(u32 page_addr);
  /// Queues a byte-patch of out_bytes_ at byte offset `byte_off` within the
  /// payload of the page at `page_addr` (read-modify-write on word bounds).
  void q_patch_bytes(u32 page_addr, u32 byte_off);
  /// Queues a write of the page length word only.
  void q_write_len(u32 page_addr, u32 len_bytes);
  /// Queues `n` pure compute cycles.
  void q_stall(Cycle n);

  /// Quiescence while Running: a Stall at the head of the queue is pure
  /// countdown, so every tick before the one that pops it is skippable.
  /// Exact because every subclass that queues a stall calls io_step() first
  /// in work_step() and returns while it is false.
  Cycle running_quiescent_for() const override;
  void on_running_skip(Cycle n) override;

  /// Executes one cycle of the queued micro-ops. Returns true when the whole
  /// queue has drained.
  bool io_step();

  bool io_idle() const { return ops_.empty(); }
  void io_clear() {
    ops_.clear();
    in_bytes_.clear();
    in_words_.clear();
  }

  /// Checkpoint support: the whole micro-op queue and its scratch —
  /// streaming subclasses call this from their persist before their own
  /// fields, so a snapshot can land mid-stream.
  template <class Ar>
  void persist_streaming(Ar& ar) {
    ar.io(in_bytes_);
    ar.io(in_words_);
    ar.io(out_bytes_);
    ar.io(ops_);
    ar.io(staged_words_);
    ar.io(pending_len_);
    ar.io(patch_words_);
    ar.io(patch_word0_);
    ar.io(patch_nwords_);
    ar.io(patch_loaded_);
  }

  Bytes in_bytes_;                ///< Result of q_read_page.
  std::vector<Word> in_words_;    ///< Result of q_read_words.
  Bytes out_bytes_;               ///< Source for q_write_page / q_patch_bytes.

 private:
  struct IoOp {
    enum class Kind : u8 { ReadLen, ReadData, ReadWords, WriteLen, WriteData, Patch, Stall };
    Kind kind;
    u32 addr = 0;      // Page or word address.
    u32 a = 0;         // Kind-specific (nwords / byte_off / len / stall count).
    u32 progress = 0;  // Words done so far.

    template <class Ar>
    void persist(Ar& ar) {
      ar.io(kind);
      ar.io(addr);
      ar.io(a);
      ar.io(progress);
    }
  };

  bool step_op(IoOp& op);

  std::deque<IoOp> ops_;
  std::vector<Word> staged_words_;  // Packed out_bytes_ for the active write.
  u32 pending_len_ = 0;             // Byte length read by ReadLen.
  // Patch scratch.
  std::vector<Word> patch_words_;
  u32 patch_word0_ = 0;
  u32 patch_nwords_ = 0;
  bool patch_loaded_ = false;
};

}  // namespace drmp::rfu
