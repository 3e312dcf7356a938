#include "rfu/rx_rfu.hpp"

#include "sim/checkpoint.hpp"

#include <algorithm>
#include <cassert>

#include "hw/memory_map.hpp"

namespace drmp::rfu {

void RxRfu::on_execute(Op op) {
  assert(op == Op::RxDrainWifi || op == Op::RxDrainUwb || op == Op::RxDrainWimax);
  (void)op;
  stage_ = 0;
  dst_ = args_.at(0);
  mode_idx_ = args_.at(1);
  check_fcs_ = (args_.at(2) & 1) != 0;
  status_addr_ = args_.at(3);
  assert(mode_idx_ < kNumModes);
  assert(buffers_[mode_idx_] != nullptr && "RxRfu not wired to buffers");
}

void RxRfu::stream_out(std::span<Word> words) {
  const phy::RxBuffer& buf = *buffers_[mode_idx_];
  for (std::size_t i = 0; i < words.size(); ++i) words[i] = buf.peek_word(widx_ + i);
  if (check_fcs_ && fcs_ != nullptr) {
    const u32 lo = widx_ * 4;
    const u32 hi = std::min(len_, lo + 4 * static_cast<u32>(words.size()));
    fcs_->on_secondary_trigger(id(), std::span<const u8>(buf.frame()).subspan(lo, hi - lo));
  }
  widx_ += static_cast<u32>(words.size());
}

bool RxRfu::work_step() {
  phy::RxBuffer& buf = *buffers_[mode_idx_];
  switch (stage_) {
    case 0: {  // Latch the frame size, write the destination length word.
      assert(buf.frame_ready() && "RxDrain delegated with no frame pending");
      if (!bus_granted() || !bus_free()) return false;
      len_ = static_cast<u32>(buf.frame_bytes());
      nwords_ = static_cast<u32>(words_for_bytes(len_));
      widx_ = 0;
      bus_write(dst_ + hw::kPageLenOffset, len_);
      if (check_fcs_ && fcs_ != nullptr) fcs_->slave_reset(id());
      stage_ = 1;
      return false;
    }
    case 1: {  // Stream words buffer -> memory; the slave snoops them.
      if (widx_ < nwords_) {
        if (io_idle()) q_stream_out(dst_ + hw::kPageDataOffset + widx_, nwords_ - widx_);
        io_step();
        return false;
      }
      // Retire the frame in place: only the rx-end timestamp survives, and
      // drop_front keeps the entry's byte storage in the ring for the next
      // delivery (zero-allocation drain).
      last_rx_end_ = buf.frame_rx_end();
      buf.drop_front();
      ++frames_;
      stage_ = 2;
      return false;
    }
    default: {  // Write the FCS status word.
      if (!bus_granted() || !bus_free()) return false;
      const bool ok = !check_fcs_ || (fcs_ != nullptr && fcs_->slave_crc(id()) == kCrc32Residue);
      bus_write(status_addr_, ok ? 1 : 0);
      return true;
    }
  }
}


void RxRfu::save_extra(sim::snap::Writer& w) { persist(w); }
void RxRfu::load_extra(sim::snap::Reader& r) { persist(r); }

}  // namespace drmp::rfu
