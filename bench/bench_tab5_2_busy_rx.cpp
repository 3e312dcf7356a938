// Table 5.2 — Busy time of the various entities in the DRMP during
// reception (3-mode concurrent run).
#include "bench_common.hpp"

int main() {
  using namespace drmp;
  using namespace drmp::bench;

  Testbench tb;
  const Probe& probe = Probe::attach(tb);
  std::cout << "=== Table 5.2: Busy Time of Various Entities in DRMP During "
               "Reception ===\n\n";

  const Bytes ma = make_payload(1000, 1), mb = make_payload(1000, 2),
              mc = make_payload(1000, 3);
  const Cycle t0 = tb.scheduler().now() + 10;
  tb.peer(Mode::A).inject_frame(tb.make_peer_frames(Mode::A, ma, 1)[0], t0);
  tb.peer(Mode::B).inject_frame(tb.make_peer_frames(Mode::B, mb, 1)[0], t0);
  tb.peer(Mode::C).inject_frame(tb.make_peer_frames(Mode::C, mc, 1)[0], t0);
  tb.run_until(
      [&] {
        return !tb.delivered(Mode::A).empty() && !tb.delivered(Mode::B).empty() &&
               !tb.delivered(Mode::C).empty();
      },
      400'000'000);
  const Cycle t1 = tb.scheduler().now();
  print_busy_table(probe, t0, t1, "3-mode reception (1000 B per mode)");

  std::cout << "\nautonomous path counters: event-handler frames="
            << tb.device().event_handler().rx_frames_handled(Mode::A) +
                   tb.device().event_handler().rx_frames_handled(Mode::B) +
                   tb.device().event_handler().rx_frames_handled(Mode::C)
            << ", ACKs generated without CPU=" << tb.device().ack_rfu().acks_generated()
            << ", CPU busy fraction="
            << est::Table::num(100.0 * tb.device().cpu().busy_fraction(), 3) << "%\n";
  return 0;
}
