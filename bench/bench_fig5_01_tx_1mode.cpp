// Fig. 5.1 — Packet Transmission, 1 protocol mode.
// One WiFi MSDU (1500 B, fragmented at 1024 B) transmitted while modes B/C
// are idle; prints the entity-activity waveform the Simulink scope showed,
// plus the per-phase event timeline.
#include "bench_common.hpp"

int main() {
  using namespace drmp;
  using namespace drmp::bench;

  Testbench tb;
  const Probe& probe = Probe::attach(tb);

  std::cout << "=== Fig 5.1: Packet Transmission - 1 Mode (WiFi, 1500 B MSDU, "
               "frag thr 1024 B, 200 MHz) ===\n\n";
  const Cycle t0 = tb.scheduler().now();
  const auto out = tb.send_and_wait(Mode::A, make_payload(1500));
  const Cycle t1 = tb.scheduler().now();
  tb.run_cycles(2000);

  std::cout << "outcome: completed=" << out.completed << " success=" << out.success
            << "  MSDU->ACKed latency = " << est::Table::num(out.latency_us, 1)
            << " us (2 fragments, DCF access + air time dominated)\n\n";
  print_waveform(probe, t0, t1 + 2000);
  std::cout << "\n";
  print_busy_table(probe, t0, t1, "Entity busy time during the transmission");

  std::cout << "\npeer: data frames received = "
            << tb.peer(Mode::A).received_data_frames().size()
            << ", ACKs sent = " << tb.peer(Mode::A).acks_sent() << "\n";
  return 0;
}
