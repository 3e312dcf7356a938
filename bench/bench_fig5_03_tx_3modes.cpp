// Fig. 5.3 — Packet Transmission, 3 concurrent protocol modes.
// WiFi, WiMAX and UWB each transmit an MSDU concurrently on the single
// co-processor; the IRC interleaves them, reconfiguring the shared RFUs
// packet-by-packet.
#include "bench_common.hpp"

int main() {
  using namespace drmp;
  using namespace drmp::bench;

  Testbench tb;
  const Probe& probe = Probe::attach(tb);

  std::cout << "=== Fig 5.3: Packet Transmission - 3 Concurrent Modes "
               "(WiFi + WiMAX + UWB, 1000 B each) ===\n\n";
  const Cycle t0 = tb.scheduler().now();
  run_three_mode_tx(tb, 1, 1000);
  const Cycle t1 = tb.scheduler().now();

  for (std::size_t i = 0; i < kNumModes; ++i) {
    const Mode m = mode_from_index(i);
    std::cout << "mode " << to_string(m) << " ("
              << mac::to_string(tb.config().modes[i].ident.proto)
              << "): completions=" << tb.tx_completions(m)
              << " successes=" << tb.tx_successes(m);
    if (!tb.tx_latencies_us(m).empty()) {
      std::cout << " latency=" << est::Table::num(tb.tx_latencies_us(m).back(), 1) << " us";
    }
    std::cout << "\n";
  }
  std::cout << "crypto RFU reconfigurations (packet-by-packet switching): "
            << tb.device().crypto_rfu().reconfig_count() << "\n\n";
  print_waveform(probe, t0, t1);
  std::cout << "\n";
  print_busy_table(probe, t0, t1, "Entity busy time, 3-mode transmission");
  return 0;
}
