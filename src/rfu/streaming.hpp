// StreamingRfu: a micro-sequencer shared by the word-streaming RFUs.
//
// Coarse-grained RFUs move packet data through the single packet bus at one
// word per cycle (§3.6.3); compute-bound units add stall cycles per word.
// Subclasses enqueue micro-operations (read page, stall, write page, patch
// bytes, stream words to or from a subclass buffer) and drive them one bus
// access per cycle from work_step().
//
// Every multi-word op is a *word run*: once its first word has moved, the
// unit holds a grant that is not preemptive, so each remaining word takes
// exactly one cycle. The unit declares the run to the bus
// (hw::PacketBus::declare_run) and sleeps through all of it but the final
// word, whose tick pops the op for real; a settle moves the slept-through
// words in one call through the bus's bulk path. A run's words are
// contiguous, or, in a *scatter run* (q_scatter), (offset, word) pairs
// written at their own addresses — a fixed list of sparse status words. A
// compute stall sleeps the same way. All are exact because every subclass
// calls io_step() first in work_step() and returns while it is false.
#pragma once

#include <deque>
#include <span>
#include <utility>

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
  /// Queues a run of `nwords` words read from `addr` into stream_in().
  void q_stream_in(u32 addr, u32 nwords);
  /// Queues a run of `nwords` words from stream_out() written at `addr`.
  void q_stream_out(u32 addr, u32 nwords);
  /// Queues a scatter run of `nwords` (offset, word) pairs from
  /// scatter_out(), each word written at `base` + offset.
  void q_scatter(u32 base, u32 nwords);

  /// Sink of q_stream_in and sources of q_stream_out and q_scatter: the
  /// next words of the run, one per ticked cycle or a slept-through
  /// stretch at once.
  virtual void stream_in(std::span<const Word> /*words*/) {}
  virtual void stream_out(std::span<Word> /*words*/) {}
  virtual void scatter_out(std::span<std::pair<u32, Word>> /*words*/) {}

  /// Quiescence while Running: a Stall at the head of the queue is pure
  /// countdown, and a declared word run is one access per cycle, so every
  /// tick before the one that pops the op is skippable.
  Cycle running_quiescent_for() const override;
  void on_running_skip(Cycle n) override;

  /// Executes one cycle of the queued micro-ops. Returns true when the whole
  /// queue has drained.
  bool io_step();

  bool io_idle() const { return ops_.empty(); }

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
    enum class Kind : u8 {
      ReadLen, ReadData, ReadWords, WriteLen, WriteData, Patch, Stall, StreamIn, StreamOut,
      Scatter
    };
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
  /// Bus accesses a word-run op has left (0 for the single-access kinds).
  u32 words_left(const IoOp& op) const;
  /// The word-run primitive: moves the op's next `n` words, one bus access
  /// each — one word on the packet bus from a ticked cycle, or the words a
  /// sleep skipped through the bus's bulk path.
  void move_words(IoOp& op, u32 n, bool slept);

  std::deque<IoOp> ops_;
  std::vector<Word> staged_words_;  // Packed out_bytes_ for the active write.
  u32 pending_len_ = 0;             // Byte length read by ReadLen.
  // Patch scratch.
  std::vector<Word> patch_words_;
  u32 patch_word0_ = 0;
  u32 patch_nwords_ = 0;
  bool patch_loaded_ = false;
  std::vector<Word> run_words_;  // One move's words (not state).
  std::vector<std::pair<u32, Word>> run_pairs_;  // One scatter move's (not state).
};

}  // namespace drmp::rfu
