#include "rfu/crc_rfus.hpp"

#include "sim/checkpoint.hpp"

#include <cassert>

#include "hw/memory_map.hpp"

namespace drmp::rfu {

// ---------------------------------------------------------------- HdrCheck

void HdrCheckRfu::on_execute(Op op) {
  stage_ = 0;
  page_addr_ = args_.at(0);
  switch (op) {
    case Op::HcsAppend16:
      assert(c_state_ == cfg::kHcsCrc16);
      wimax_ = false;
      verify_ = false;
      hdr_len_ = args_.at(1);
      break;
    case Op::HcsVerify16:
      assert(c_state_ == cfg::kHcsCrc16);
      wimax_ = false;
      verify_ = true;
      hdr_len_ = args_.at(1);
      status_addr_ = args_.at(2);
      break;
    case Op::HcsPatch8:
      assert(c_state_ == cfg::kHcsCrc8);
      wimax_ = true;
      verify_ = false;
      hdr_len_ = 5;  // CRC-8 covers GMH bytes 0..4.
      break;
    case Op::HcsVerify8:
      assert(c_state_ == cfg::kHcsCrc8);
      wimax_ = true;
      verify_ = true;
      hdr_len_ = 5;
      status_addr_ = args_.at(1);
      break;
    default:
      assert(false && "HdrCheckRfu: unknown op");
  }
  // Read the header words (including the HCS slot for verify).
  const u32 span = hdr_len_ + (wimax_ ? 1 : 2);
  q_read_words(page_addr_ + hw::kPageDataOffset, static_cast<u32>(words_for_bytes(span)));
}

bool HdrCheckRfu::work_step() {
  if (stage_ == 0) {
    if (!io_step()) return false;
    const u32 span = hdr_len_ + (wimax_ ? 1 : 2);
    const Bytes hdr_and_hcs = unpack_bytes(in_words_, span);
    const std::span<const u8> hdr(hdr_and_hcs.data(), hdr_len_);
    if (!verify_) {
      out_bytes_.clear();
      if (wimax_) {
        out_bytes_.push_back(crypto::Crc8::compute(hdr));
      } else {
        const u16 hcs = crypto::Crc16Ccitt::compute(hdr);
        out_bytes_.push_back(static_cast<u8>(hcs & 0xFF));
        out_bytes_.push_back(static_cast<u8>(hcs >> 8));
      }
      q_patch_bytes(page_addr_, hdr_len_);
      stage_ = 1;
      return false;
    }
    // Verify: compare the stored HCS with the recomputed one.
    bool ok = false;
    if (wimax_) {
      ok = hdr_and_hcs[5] == crypto::Crc8::compute(hdr);
    } else {
      const u16 stored = static_cast<u16>(hdr_and_hcs[hdr_len_] |
                                          (hdr_and_hcs[hdr_len_ + 1] << 8));
      ok = stored == crypto::Crc16Ccitt::compute(hdr);
    }
    last_status_ = ok;
    stage_ = 2;
    return false;
  }
  if (stage_ == 1) {
    return io_step();  // Patch write-back.
  }
  // stage_ == 2: write the verify status word.
  if (!bus_granted() || !bus_free()) return false;
  bus_write(status_addr_, last_status_ ? 1 : 0);
  return true;
}

// --------------------------------------------------------------------- FCS

void FcsRfu::slave_reset(u8 master_id) { snoop_[master_id] = crypto::Crc32{}; }

void FcsRfu::on_secondary_trigger(u8 master_id, std::span<const u8> bytes) {
  snoop_[master_id].update(bytes);
}

u32 FcsRfu::slave_crc(u8 master_id) const {
  auto it = snoop_.find(master_id);
  return it == snoop_.end() ? 0 : it->second.value();
}

void FcsRfu::slave_request_append(u8 master_id, u32 page_addr, u32 len_bytes) {
  assert(!slave_pending_);
  wake_self();  // Slave work pending: the Idle-phase quiescence bound is void.
  slave_pending_ = true;
  slave_master_ = master_id;
  slave_page_ = page_addr;
  slave_len_ = len_bytes;
  slave_stage_ = 0;
  out_bytes_.clear();
  const u32 crc = slave_crc(master_id);
  out_bytes_.push_back(static_cast<u8>(crc & 0xFF));
  out_bytes_.push_back(static_cast<u8>((crc >> 8) & 0xFF));
  out_bytes_.push_back(static_cast<u8>((crc >> 16) & 0xFF));
  out_bytes_.push_back(static_cast<u8>((crc >> 24) & 0xFF));
  q_patch_bytes(slave_page_, slave_len_);
  q_write_len(slave_page_, slave_len_ + 4);
}

void FcsRfu::slave_step() {
  if (!slave_pending_) return;
  // The slave acts only while the master has handed it the bus (override).
  if (!bus_granted()) return;
  if (slave_stage_ == 0) {
    if (io_step()) slave_stage_ = 1;
    return;
  }
  // Hand the bus back by writing our own id to the override address.
  if (!bus_free()) return;
  bus_write(hw::kOverrideAddr, id());
  slave_pending_ = false;
}

void FcsRfu::on_execute(Op op) {
  stage_ = 0;
  page_addr_ = args_.at(0);
  verify_ = (op == Op::FcsVerify);
  if (verify_) status_addr_ = args_.at(1);
  q_read_page(page_addr_);
}

bool FcsRfu::work_step() {
  if (stage_ == 0) {
    if (!io_step()) return false;
    if (!verify_) {
      const u32 crc = crypto::Crc32::compute(in_bytes_);
      out_bytes_ = in_bytes_;
      put_le32(out_bytes_, crc);
      q_write_page(page_addr_);
      stage_ = 1;
      return false;
    }
    bool ok = false;
    if (in_bytes_.size() >= 4) {
      const std::span<const u8> head(in_bytes_.data(), in_bytes_.size() - 4);
      const u32 stored = get_le32(in_bytes_, in_bytes_.size() - 4);
      ok = stored == crypto::Crc32::compute(head);
    }
    last_status_ = ok;
    stage_ = 2;
    return false;
  }
  if (stage_ == 1) return io_step();
  if (!bus_granted() || !bus_free()) return false;
  bus_write(status_addr_, last_status_ ? 1 : 0);
  return true;
}


void HdrCheckRfu::save_extra(sim::snap::Writer& w) { persist(w); }
void HdrCheckRfu::load_extra(sim::snap::Reader& r) { persist(r); }

void FcsRfu::save_extra(sim::snap::Writer& w) { persist(w); }
void FcsRfu::load_extra(sim::snap::Reader& r) { persist(r); }

}  // namespace drmp::rfu
