// Table 5.1 — Busy time of the various entities in the DRMP during
// transmission (3-mode concurrent run).
#include "bench_common.hpp"

int main() {
  using namespace drmp;
  using namespace drmp::bench;

  Testbench tb;
  Probe::attach(tb);
  std::cout << "=== Table 5.1: Busy Time of Various Entities in DRMP During "
               "Transmission ===\n\n";
  const Cycle t0 = tb.scheduler().now();
  run_three_mode_tx(tb, 1, 1000);
  const Cycle t1 = tb.scheduler().now();
  print_busy_table(tb, t0, t1, "3-mode transmission (1000 B per mode)");

  // IRC controllers (busy = non-IDLE), from the device's statistics view.
  const sim::StatsRegistry stats = tb.device().stats();
  const auto& busy = stats.all_busy();
  const auto& tbase = tb.device().timebase();
  est::Table t({"IRC controller", "Busy (us)", "Busy (%)"});
  for (const auto& name : {"irc.thm.A", "irc.thm.B", "irc.thm.C", "irc.thr.A",
                           "irc.thr.B", "irc.thr.C", "irc.rc", "cpu"}) {
    const sim::BusyCounter& c = *busy.at(name);
    t.add_row({name, est::Table::num(tbase.cycles_to_us(c.busy_cycles()), 1),
               est::Table::num(100.0 * c.busy_fraction(), 3)});
  }
  std::cout << "\n";
  t.print(std::cout);
  std::cout << "\nReading: every entity is busy for a small fraction of the "
               "run — the \"proportionally large time that these resources "
               "are idle\" that promises modest power consumption (abstract).\n";
  return 0;
}
