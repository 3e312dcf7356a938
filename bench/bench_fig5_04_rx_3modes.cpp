// Fig. 5.4 — Packet Reception, 3 concurrent protocol modes.
// Frames arrive simultaneously on all three media; the Event Handler and the
// IRC serialize the drains over the shared bus; every MSDU is delivered and
// the WiFi/UWB frames are ACKed on time.
#include "bench_common.hpp"

int main() {
  using namespace drmp;
  using namespace drmp::bench;

  Testbench tb;
  const Probe& probe = Probe::attach(tb);

  std::cout << "=== Fig 5.4: Packet Reception - 3 Concurrent Modes ===\n\n";
  const Bytes ma = make_payload(800, 1), mb = make_payload(800, 2), mc = make_payload(800, 3);
  const auto fa = tb.make_peer_frames(Mode::A, ma, 1);
  const auto fb = tb.make_peer_frames(Mode::B, mb, 1);
  const auto fc = tb.make_peer_frames(Mode::C, mc, 1);
  const Cycle t0 = tb.scheduler().now() + 10;
  tb.peer(Mode::A).inject_frame(fa[0], t0);
  tb.peer(Mode::B).inject_frame(fb[0], t0);
  tb.peer(Mode::C).inject_frame(fc[0], t0);

  const bool all = tb.run_until(
      [&] {
        return !tb.delivered(Mode::A).empty() && !tb.delivered(Mode::B).empty() &&
               !tb.delivered(Mode::C).empty();
      },
      400'000'000);
  const Cycle t1 = tb.scheduler().now();
  tb.run_cycles(4000);

  std::cout << "all three MSDUs delivered: " << (all ? "yes" : "NO") << "\n";
  std::cout << "  WiFi  intact=" << (tb.delivered(Mode::A)[0] == ma) << "\n";
  std::cout << "  WiMAX intact=" << (tb.delivered(Mode::B)[0] == mb) << "\n";
  std::cout << "  UWB   intact=" << (tb.delivered(Mode::C)[0] == mc) << "\n";
  std::cout << "autonomous ACKs generated (no CPU involvement): "
            << tb.device().ack_rfu().acks_generated() << " (WiFi + UWB)\n\n";
  print_waveform(probe, t0, t1 + 4000);
  std::cout << "\n";
  print_busy_table(probe, t0, t1, "Entity busy time, 3-mode reception");
  return 0;
}
