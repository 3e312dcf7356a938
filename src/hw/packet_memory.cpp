#include "hw/packet_memory.hpp"

#include <stdexcept>

namespace drmp::hw {

void PacketMemory::write_page_bytes(Mode m, Page p, std::span<const u8> bytes) {
  if (bytes.size() > kPagePayloadBytes) {
    throw std::length_error("packet page overflow");
  }
  settle_streamer();
  const u32 base = page_base(m, p);
  words_.at(base + kPageLenOffset) = static_cast<Word>(bytes.size());
  const auto packed = pack_words(bytes);
  for (std::size_t i = 0; i < packed.size(); ++i) {
    words_.at(base + kPageDataOffset + i) = packed[i];
  }
}

Bytes PacketMemory::read_page_bytes(Mode m, Page p) const {
  settle_streamer();
  const u32 base = page_base(m, p);
  const u32 len = words_.at(base + kPageLenOffset);
  std::vector<Word> w(words_for_bytes(len));
  for (std::size_t i = 0; i < w.size(); ++i) {
    w[i] = words_.at(base + kPageDataOffset + i);
  }
  return unpack_bytes(w, len);
}

}  // namespace drmp::hw
