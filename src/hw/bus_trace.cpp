#include "hw/bus_trace.hpp"

#include <algorithm>

namespace drmp::hw {

void BusTraceRecorder::on_request(Mode m, Cycle now) {
  auto& o = open_[index(m)];
  if (o.active) return;  // Re-assertion within an open tenure.
  o.active = true;
  o.any_access = false;
  o.tx = BusTransaction{};
  o.tx.mode = m;
  o.tx.request = now;
  o.tx.first_access = now;
  o.tx.last_access = now;
}

void BusTraceRecorder::close(std::size_t i, Cycle now) {
  auto& o = open_[i];
  if (!o.active) return;
  if (!o.any_access) {
    // A tenure that moved no words still occupied the arbiter for its span;
    // give it a one-cycle footprint at the release point.
    o.tx.first_access = now;
    o.tx.last_access = now;
  }
  done_.push_back(o.tx);
  o.active = false;
}

void BusTraceRecorder::on_release(Mode m, Cycle now) { close(index(m), now); }

void BusTraceRecorder::on_access(Mode origin, Cycle now, bool rfu_region) {
  auto& o = open_[index(origin)];
  if (!o.active) {
    // Access outside a recorded request window (e.g. recorder attached
    // mid-run): open an implicit tenure so the demand is not lost.
    on_request(origin, now);
  }
  auto& t = open_[index(origin)];
  if (!t.any_access) {
    t.tx.first_access = now;
    t.any_access = true;
  }
  t.tx.last_access = now;
  ++t.tx.words;
  if (rfu_region) {
    t.tx.touched_rfu = true;
  } else {
    t.tx.touched_mem = true;
  }
}

void BusTraceRecorder::on_run(Mode origin, std::size_t n) {
  // A run continues a tenure whose declaring access was recorded.
  auto& t = open_[index(origin)];
  if (!t.active) return;
  t.tx.last_access += n;
  t.tx.words += static_cast<u32>(n);
  t.tx.touched_mem = true;
}

void BusTraceRecorder::finish(Cycle now) {
  for (std::size_t i = 0; i < kNumModes; ++i) close(i, now);
  std::sort(done_.begin(), done_.end(),
            [](const BusTransaction& a, const BusTransaction& b) {
              return a.request < b.request;
            });
}

}  // namespace drmp::hw
