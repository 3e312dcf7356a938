// Fig. 5.2 — Packet Reception, 1 protocol mode.
// A peer-originated WiFi MPDU arrives; the Event Handler drains/checks/
// parses it autonomously, the AckRfu answers within SIFS, and the CPU-side
// control extracts, reassembles and decrypts the MSDU.
#include "bench_common.hpp"

int main() {
  using namespace drmp;
  using namespace drmp::bench;

  Testbench tb;
  const Probe& probe = Probe::attach(tb);

  std::cout << "=== Fig 5.2: Packet Reception - 1 Mode (WiFi, 1200 B MSDU) ===\n\n";
  const Bytes msdu = make_payload(1200);
  const Cycle t0 = tb.scheduler().now();
  const auto delivered = tb.inject_and_wait(Mode::A, msdu, /*seq=*/3);
  const Cycle t1 = tb.scheduler().now();
  tb.run_cycles(4000);  // Let the ACK air.

  std::cout << "delivered: " << (delivered.has_value() ? "yes" : "NO") << " ("
            << (delivered ? delivered->size() : 0) << " bytes, intact="
            << (delivered && *delivered == msdu) << ")\n";
  const Cycle rx_end = tb.device().rx_rfu().last_rx_end();
  const Cycle ack_start = tb.device().phy_tx(Mode::A)->last_tx_start();
  std::cout << "ACK turnaround: rx_end -> ack_start = "
            << est::Table::num(tb.device().timebase().cycles_to_us(ack_start - rx_end), 2)
            << " us (SIFS = 10 us; constraint "
            << (ack_start >= rx_end + 2000 && ack_start <= rx_end + 2010 ? "MET exactly"
                                                                          : "violated!")
            << ")\n\n";
  print_waveform(probe, t0, t1 + 4000);
  std::cout << "\n";
  print_busy_table(probe, t0, t1, "Entity busy time during the reception");
  return 0;
}
