#include "rfu/streaming.hpp"

#include <algorithm>
#include <cassert>

namespace drmp::rfu {

using hw::kPageDataOffset;
using hw::kPageLenOffset;

void StreamingRfu::q_read_page(u32 page_addr) {
  ops_.push_back({IoOp::Kind::ReadLen, page_addr, 0, 0});
  ops_.push_back({IoOp::Kind::ReadData, page_addr, 0, 0});
}

void StreamingRfu::q_read_words(u32 addr, u32 nwords) {
  ops_.push_back({IoOp::Kind::ReadWords, addr, nwords, 0});
}

void StreamingRfu::q_write_page(u32 page_addr) {
  ops_.push_back({IoOp::Kind::WriteLen, page_addr, 0, 0});
  ops_.push_back({IoOp::Kind::WriteData, page_addr, 0, 0});
}

void StreamingRfu::q_patch_bytes(u32 page_addr, u32 byte_off) {
  ops_.push_back({IoOp::Kind::Patch, page_addr, byte_off, 0});
}

void StreamingRfu::q_write_len(u32 page_addr, u32 len_bytes) {
  ops_.push_back({IoOp::Kind::WriteLen, page_addr, len_bytes + 1, 0});
}

void StreamingRfu::q_stall(Cycle n) {
  if (n > 0) ops_.push_back({IoOp::Kind::Stall, 0, static_cast<u32>(n), 0});
}

void StreamingRfu::q_stream_in(u32 addr, u32 nwords) {
  ops_.push_back({IoOp::Kind::StreamIn, addr, nwords, 0});
}

void StreamingRfu::q_stream_out(u32 addr, u32 nwords) {
  ops_.push_back({IoOp::Kind::StreamOut, addr, nwords, 0});
}

void StreamingRfu::q_scatter(u32 base, u32 nwords) {
  ops_.push_back({IoOp::Kind::Scatter, base, nwords, 0});
}

Cycle StreamingRfu::running_quiescent_for() const {
  if (ops_.empty()) return 0;
  const IoOp& op = ops_.front();
  if (op.kind == IoOp::Kind::Stall) return op.a - 1;  // The tick reaching 0 pops it.
  // A run is declared after each ticked word (a load forgets it, and the
  // next word declares it again); it ends as its op's words run out.
  if (!env_.bus->in_run(this)) return 0;
  const u32 left = words_left(op);
  return left > 1 ? left - 1 : 0;  // The final word's tick pops the op.
}

void StreamingRfu::on_running_skip(Cycle n) {
  IoOp& op = ops_.front();
  if (op.kind == IoOp::Kind::Stall) {
    op.a -= static_cast<u32>(n);
  } else {
    move_words(op, static_cast<u32>(n), /*slept=*/true);
  }
}

bool StreamingRfu::io_step() {
  if (ops_.empty()) return true;
  if (step_op(ops_.front())) {
    ops_.pop_front();
  }
  return ops_.empty();
}

u32 StreamingRfu::words_left(const IoOp& op) const {
  switch (op.kind) {
    case IoOp::Kind::ReadData:
      return static_cast<u32>(words_for_bytes(pending_len_)) - op.progress;
    case IoOp::Kind::ReadWords:
    case IoOp::Kind::StreamIn:
    case IoOp::Kind::StreamOut:
    case IoOp::Kind::Scatter:
      return op.a - op.progress;
    case IoOp::Kind::WriteData:
      return static_cast<u32>(staged_words_.size()) - op.progress;
    case IoOp::Kind::Patch:
      // The read phase, then the write-back of as many words.
      return (patch_loaded_ ? patch_nwords_ : 2 * patch_nwords_) - op.progress;
    default:
      return 0;
  }
}

bool StreamingRfu::step_op(IoOp& op) {
  if (op.kind == IoOp::Kind::Stall) {
    return --op.a == 0;
  }
  // All remaining kinds need one packet-bus access this cycle.
  if (!bus_granted() || !bus_free()) return false;

  switch (op.kind) {
    case IoOp::Kind::ReadLen:
      pending_len_ = bus_read(op.addr + kPageLenOffset);
      in_bytes_.clear();
      return true;
    case IoOp::Kind::WriteLen: {
      // a==0 means "length of out_bytes_"; otherwise the explicit value + 1.
      const u32 len = op.a == 0 ? static_cast<u32>(out_bytes_.size()) : op.a - 1;
      bus_write(op.addr + kPageLenOffset, len);
      staged_words_ = pack_words(out_bytes_);
      return true;
    }
    case IoOp::Kind::ReadWords:
      if (op.progress == 0) in_words_.clear();
      break;
    case IoOp::Kind::WriteData:
      if (op.progress == 0 && staged_words_.empty()) {
        staged_words_ = pack_words(out_bytes_);
      }
      break;
    case IoOp::Kind::Patch:
      if (!patch_loaded_) {
        // Read-modify-write of the word range covering
        // [byte_off, byte_off + out_bytes_.size()).
        patch_word0_ = op.a / 4;
        patch_nwords_ = (op.a + static_cast<u32>(out_bytes_.size()) + 3) / 4 - patch_word0_;
      }
      break;
    default:
      break;
  }

  // A word run: one word per cycle until the op has none left.
  if (words_left(op) > 0) move_words(op, 1, /*slept=*/false);
  const u32 left = words_left(op);
  if (left == 0) {
    if (op.kind == IoOp::Kind::WriteData) staged_words_.clear();
    if (op.kind == IoOp::Kind::Patch) {
      patch_words_.clear();
      patch_loaded_ = false;
    }
    return true;
  }
  if (left > 1) env_.bus->declare_run(this, left - 1);
  return false;
}

void StreamingRfu::move_words(IoOp& op, u32 n, bool slept) {
  assert(slept || n == 1);
  auto read = [&](u32 addr, u32 count) -> std::span<const Word> {
    run_words_.resize(count);
    if (slept) {
      env_.bus->read_run(addr, run_words_);
    } else {
      run_words_[0] = bus_read(addr);
    }
    return run_words_;
  };
  auto write = [&](u32 addr, std::span<const Word> words) {
    if (slept) {
      env_.bus->write_run(addr, words);
    } else {
      bus_write(addr, words[0]);
    }
  };

  if (op.kind == IoOp::Kind::Patch && !patch_loaded_) {
    const u32 k = std::min(n, patch_nwords_ - op.progress);
    const auto words = read(op.addr + kPageDataOffset + patch_word0_ + op.progress, k);
    patch_words_.insert(patch_words_.end(), words.begin(), words.end());
    op.progress += k;
    n -= k;
    if (op.progress == patch_nwords_) {
      // Apply the patch locally, then start writing back.
      for (std::size_t i = 0; i < out_bytes_.size(); ++i) {
        const u32 bo = op.a + static_cast<u32>(i) - patch_word0_ * 4;
        Word& w = patch_words_[bo / 4];
        w &= ~(0xFFu << (8 * (bo % 4)));
        w |= static_cast<Word>(out_bytes_[i]) << (8 * (bo % 4));
      }
      patch_loaded_ = true;
      op.progress = 0;
    }
    if (n == 0) return;
  }

  switch (op.kind) {
    case IoOp::Kind::ReadData:
      for (const Word w : read(op.addr + kPageDataOffset + op.progress, n)) {
        for (int i = 0; i < 4 && in_bytes_.size() < pending_len_; ++i) {
          in_bytes_.push_back(static_cast<u8>(w >> (8 * i)));
        }
      }
      break;
    case IoOp::Kind::ReadWords: {
      const auto words = read(op.addr + op.progress, n);
      in_words_.insert(in_words_.end(), words.begin(), words.end());
      break;
    }
    case IoOp::Kind::StreamIn:
      stream_in(read(op.addr + op.progress, n));
      break;
    case IoOp::Kind::WriteData:
      write(op.addr + kPageDataOffset + op.progress,
            std::span<const Word>(staged_words_).subspan(op.progress, n));
      break;
    case IoOp::Kind::Patch:
      write(op.addr + kPageDataOffset + patch_word0_ + op.progress,
            std::span<const Word>(patch_words_).subspan(op.progress, n));
      break;
    case IoOp::Kind::StreamOut:
      run_words_.resize(n);
      stream_out(run_words_);
      write(op.addr + op.progress, run_words_);
      break;
    case IoOp::Kind::Scatter:
      run_pairs_.resize(n);
      scatter_out(run_pairs_);
      if (slept) {
        env_.bus->write_scatter(op.addr, run_pairs_);
      } else {
        bus_write(op.addr + run_pairs_[0].first, run_pairs_[0].second);
      }
      break;
    default:
      assert(false && "not a word-run op");
      return;
  }
  op.progress += n;
}

}  // namespace drmp::rfu
