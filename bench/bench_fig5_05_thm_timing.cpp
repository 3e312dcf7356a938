// Fig. 5.5 — TH_M timing diagram: the per-mode MAC task-handler state traces
// during a 3-mode concurrent transmission, showing delegation, bus waits and
// sleep/wake contention on shared RFUs.
#include "bench_common.hpp"

#include "irc/task_handler.hpp"

int main() {
  using namespace drmp;
  using namespace drmp::bench;

  Testbench tb;
  const Probe& probe = Probe::attach(tb);

  std::cout << "=== Fig 5.5: Task-Handler-for-MAC (TH_M) timing diagram, "
               "3-mode transmission ===\n\n";
  const Cycle t0 = tb.scheduler().now();
  run_three_mode_tx(tb, 1, 800);
  const Cycle t1 = tb.scheduler().now();

  std::cout << "state legend: ";
  for (int s = 0; s <= static_cast<int>(irc::ThMState::UseRfut2); ++s) {
    std::cout << s << "=" << to_string(static_cast<irc::ThMState>(s)) << " ";
  }
  std::cout << "\n\n";
  std::cout << obs::ascii_waveform(probe.recorder(), {"thm.A", "thm.B", "thm.C"}, t0, t1, 110);

  // Per-mode TH_M activity summary.
  est::Table t({"TH_M", "Active cycles", "Active (us)", "Requests completed"});
  for (std::size_t i = 0; i < kNumModes; ++i) {
    const Mode m = mode_from_index(i);
    const Cycle act = obs::active_cycles(probe.recorder(),
                                         "thm." + std::string(to_string(m)), t0, t1);
    t.add_row({to_string(m), std::to_string(act),
               est::Table::num(tb.device().timebase().cycles_to_us(act)),
               std::to_string(tb.device().irc().handler(m).requests_completed())});
  }
  std::cout << "\n";
  t.print(std::cout);
  return 0;
}
