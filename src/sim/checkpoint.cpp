#include "sim/checkpoint.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "crypto/crc.hpp"

namespace drmp::sim::snap {

namespace {

constexpr std::size_t kHeaderBytes = 8 + 4 + 8;  // magic + version + length.
constexpr std::size_t kTrailerBytes = 4;         // CRC-32.

std::string hex_u32(u32 v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", v);
  return buf;
}

}  // namespace

// ---- Writer ----

void Writer::put(const void* p, std::size_t n) {
  if (n == 0) return;  // An empty source may be a null data().
  const auto* b = static_cast<const u8*>(p);
  buf_.insert(buf_.end(), b, b + n);
}

void Writer::put_le(u64 v, std::size_t nbytes) {
  for (std::size_t i = 0; i < nbytes; ++i) {
    buf_.push_back(static_cast<u8>(v >> (8 * i)));
  }
}

void Writer::begin_record(std::string_view name) {
  put_le(name.size(), 4);
  put(name.data(), name.size());
  open_.push_back(buf_.size());
  put_le(0, 8);  // Body length, patched by end_record.
}

void Writer::end_record() {
  if (open_.empty()) throw std::logic_error("Writer::end_record without begin");
  const std::size_t at = open_.back();
  open_.pop_back();
  const u64 body = buf_.size() - (at + 8);
  for (std::size_t i = 0; i < 8; ++i) {
    buf_[at + i] = static_cast<u8>(body >> (8 * i));
  }
}

Bytes Writer::envelope() const {
  if (!open_.empty()) throw std::logic_error("Writer::envelope with open records");
  // Sized up front and filled in place: magic, version, length, payload, CRC.
  Bytes out(kHeaderBytes + buf_.size() + kTrailerBytes);
  const auto put_le = [&out](std::size_t at, u64 v, std::size_t bytes) {
    for (std::size_t i = 0; i < bytes; ++i) out[at + i] = static_cast<u8>(v >> (8 * i));
  };
  std::copy(kMagic, kMagic + 8, out.begin());
  put_le(8, kSnapshotVersion, 4);
  put_le(12, buf_.size(), 8);
  std::copy(buf_.begin(), buf_.end(), out.begin() + kHeaderBytes);
  put_le(kHeaderBytes + buf_.size(), crypto::Crc32::compute(buf_), 4);
  return out;
}

void Writer::write_file(const std::string& path) const {
  const Bytes env = envelope();
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f) throw SnapshotError("checkpoint: cannot open " + tmp + " for writing");
    f.write(reinterpret_cast<const char*>(env.data()),
            static_cast<std::streamsize>(env.size()));
    f.flush();
    if (!f) throw SnapshotError("checkpoint: short write to " + tmp);
  }
  // Atomic publish: a crash before this rename leaves the previous complete
  // snapshot untouched; a crash after it leaves the new one. Never a torn
  // file under the final name.
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw SnapshotError("checkpoint: cannot rename " + tmp + " over " + path);
  }
}

// ---- Reader ----

Reader::Reader(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw SnapshotError("checkpoint: cannot open " + path);
  Bytes file((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
  validate_envelope(file);
}

Reader::Reader(Bytes envelope) { validate_envelope(envelope); }

void Reader::validate_envelope(const Bytes& file) {
  if (file.size() < kHeaderBytes + kTrailerBytes ||
      std::memcmp(file.data(), kMagic, 8) != 0) {
    throw BadMagicError("snapshot rejected: bad magic (not a DRMPSNAP file)");
  }
  u32 ver = 0;
  for (std::size_t i = 0; i < 4; ++i) ver |= static_cast<u32>(file[8 + i]) << (8 * i);
  if (ver != kSnapshotVersion) {
    throw BadVersionError("snapshot rejected: format version " + std::to_string(ver) +
                          ", this build reads only version " +
                          std::to_string(kSnapshotVersion) + " (refuse, never guess)");
  }
  u64 len = 0;
  for (std::size_t i = 0; i < 8; ++i) len |= static_cast<u64>(file[12 + i]) << (8 * i);
  if (len > file.size() - kHeaderBytes - kTrailerBytes) {
    throw RecordOverrunError(
        "snapshot rejected: record 'envelope' declares " + std::to_string(len) +
        " payload bytes but only " +
        std::to_string(file.size() - kHeaderBytes - kTrailerBytes) + " are present");
  }
  payload_.assign(file.begin() + static_cast<std::ptrdiff_t>(kHeaderBytes),
                  file.begin() + static_cast<std::ptrdiff_t>(kHeaderBytes + len));
  u32 want = 0;
  const std::size_t at = kHeaderBytes + len;
  for (std::size_t i = 0; i < 4; ++i) want |= static_cast<u32>(file[at + i]) << (8 * i);
  const u32 got = crypto::Crc32::compute(payload_);
  if (got != want) {
    throw CrcMismatchError("snapshot rejected: payload CRC " + hex_u32(got) +
                           " != recorded " + hex_u32(want));
  }
}

std::size_t Reader::bound() const noexcept {
  return stack_.empty() ? payload_.size() : stack_.back().end;
}

std::string Reader::where() const {
  return stack_.empty() ? std::string("envelope") : stack_.back().name;
}

void Reader::check_remaining(std::size_t n) {
  if (pos_ + n > bound()) {
    throw RecordOverrunError("snapshot rejected: record '" + where() +
                             "' overruns its length prefix");
  }
}

void Reader::get(void* p, std::size_t n) {
  check_remaining(n);
  if (n == 0) return;  // memcpy from an empty payload's null data() is UB.
  std::memcpy(p, payload_.data() + pos_, n);
  pos_ += n;
}

u64 Reader::get_le(std::size_t nbytes) {
  check_remaining(nbytes);
  u64 v = 0;
  for (std::size_t i = 0; i < nbytes; ++i) {
    v |= static_cast<u64>(payload_[pos_ + i]) << (8 * i);
  }
  pos_ += nbytes;
  return v;
}

std::size_t Reader::checked_count(u64 n, std::size_t elem_min_bytes) {
  if (n * elem_min_bytes > bound() - pos_) {
    throw RecordOverrunError("snapshot rejected: record '" + where() +
                             "' declares a count overrunning its length prefix");
  }
  return static_cast<std::size_t>(n);
}

void Reader::expect(std::string_view name) {
  const u64 name_len = get_le(4);
  std::string found;
  found.resize(checked_count(name_len, 1));
  get(found.data(), found.size());
  const u64 body = get_le(8);
  if (found != name) {
    throw UnknownRecordError("snapshot rejected: found record '" + found +
                             "' where '" + std::string(name) + "' was expected");
  }
  if (body > bound() - pos_) {
    throw RecordOverrunError("snapshot rejected: record '" + found +
                             "' overruns its length prefix");
  }
  stack_.push_back(Rec{std::move(found), pos_ + static_cast<std::size_t>(body)});
}

void Reader::leave() {
  if (stack_.empty()) throw std::logic_error("Reader::leave without expect");
  const Rec rec = stack_.back();
  stack_.pop_back();
  if (pos_ != rec.end) {
    // Under-consumption is as fatal as overrun: a partial restore means the
    // reader's idea of the record layout differs from the writer's.
    throw RecordOverrunError("snapshot rejected: record '" + rec.name +
                             "' has " + std::to_string(rec.end - pos_) +
                             " unconsumed bytes");
  }
}

bool Reader::at_end() const noexcept { return pos_ == bound(); }

}  // namespace drmp::sim::snap
