#include "rfu/streaming.hpp"

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

Cycle StreamingRfu::running_quiescent_for() const {
  if (ops_.empty() || ops_.front().kind != IoOp::Kind::Stall) return 0;
  return ops_.front().a - 1;  // The tick that reaches 0 pops the stall.
}

void StreamingRfu::on_running_skip(Cycle n) {
  ops_.front().a -= static_cast<u32>(n);
}

bool StreamingRfu::io_step() {
  if (ops_.empty()) return true;
  if (step_op(ops_.front())) {
    ops_.pop_front();
  }
  return ops_.empty();
}

bool StreamingRfu::step_op(IoOp& op) {
  if (op.kind == IoOp::Kind::Stall) {
    return --op.a == 0;
  }
  // All remaining kinds need one packet-bus access this cycle.
  if (!bus_granted() || !bus_free()) return false;

  switch (op.kind) {
    case IoOp::Kind::ReadLen: {
      pending_len_ = bus_read(op.addr + kPageLenOffset);
      in_bytes_.clear();
      return true;
    }
    case IoOp::Kind::ReadData: {
      const u32 nwords = static_cast<u32>(words_for_bytes(pending_len_));
      if (op.progress < nwords) {
        const Word w = bus_read(op.addr + kPageDataOffset + op.progress);
        for (int i = 0; i < 4; ++i) {
          if (in_bytes_.size() < pending_len_) {
            in_bytes_.push_back(static_cast<u8>(w >> (8 * i)));
          }
        }
        ++op.progress;
      }
      return op.progress >= nwords;
    }
    case IoOp::Kind::ReadWords: {
      if (op.progress == 0) in_words_.clear();
      if (op.progress < op.a) {
        in_words_.push_back(bus_read(op.addr + op.progress));
        ++op.progress;
      }
      return op.progress >= op.a;
    }
    case IoOp::Kind::WriteLen: {
      // a==0 means "length of out_bytes_"; otherwise the explicit value + 1.
      const u32 len = op.a == 0 ? static_cast<u32>(out_bytes_.size()) : op.a - 1;
      bus_write(op.addr + kPageLenOffset, len);
      staged_words_ = pack_words(out_bytes_);
      return true;
    }
    case IoOp::Kind::WriteData: {
      if (op.progress == 0 && staged_words_.empty()) {
        staged_words_ = pack_words(out_bytes_);
      }
      if (op.progress < staged_words_.size()) {
        bus_write(op.addr + kPageDataOffset + op.progress, staged_words_[op.progress]);
        ++op.progress;
      }
      if (op.progress >= staged_words_.size()) {
        staged_words_.clear();
        return true;
      }
      return false;
    }
    case IoOp::Kind::Patch: {
      // Read-modify-write of the word range covering
      // [byte_off, byte_off + out_bytes_.size()).
      const u32 byte_off = op.a;
      const u32 w0 = byte_off / 4;
      const u32 w1 = (byte_off + static_cast<u32>(out_bytes_.size()) + 3) / 4;
      if (!patch_loaded_) {
        patch_word0_ = w0;
        patch_nwords_ = w1 - w0;
        if (op.progress < patch_nwords_) {
          patch_words_.push_back(bus_read(op.addr + kPageDataOffset + w0 + op.progress));
          ++op.progress;
          if (op.progress == patch_nwords_) {
            // Apply the patch locally, then start writing back.
            for (std::size_t i = 0; i < out_bytes_.size(); ++i) {
              const u32 bo = byte_off + static_cast<u32>(i) - w0 * 4;
              Word& w = patch_words_[bo / 4];
              w &= ~(0xFFu << (8 * (bo % 4)));
              w |= static_cast<Word>(out_bytes_[i]) << (8 * (bo % 4));
            }
            patch_loaded_ = true;
            op.progress = 0;
          }
        }
        return false;
      }
      if (op.progress < patch_nwords_) {
        bus_write(op.addr + kPageDataOffset + patch_word0_ + op.progress,
                  patch_words_[op.progress]);
        ++op.progress;
      }
      if (op.progress >= patch_nwords_) {
        patch_words_.clear();
        patch_loaded_ = false;
        return true;
      }
      return false;
    }
    case IoOp::Kind::Stall:
      break;  // Handled above.
  }
  return true;
}

}  // namespace drmp::rfu
