// Fig. 5.6 — TH_R timing diagram: the reconfiguration task-handlers running
// ahead of their TH_Ms, invoking the single Reconfiguration Controller.
#include "bench_common.hpp"

#include "irc/task_handler.hpp"

int main() {
  using namespace drmp;
  using namespace drmp::bench;

  Testbench tb;
  const Probe& probe = Probe::attach(tb);

  std::cout << "=== Fig 5.6: Task-Handler-for-Reconfiguration (TH_R) timing "
               "diagram, 3-mode transmission ===\n\n";
  const Cycle t0 = tb.scheduler().now();
  run_three_mode_tx(tb, 1, 800);
  const Cycle t1 = tb.scheduler().now();

  std::cout << "state legend: ";
  for (int s = 0; s <= static_cast<int>(irc::ThRState::UseRfut2); ++s) {
    std::cout << s << "=" << to_string(static_cast<irc::ThRState>(s)) << " ";
  }
  std::cout << "\n\n";
  std::cout << obs::ascii_waveform(probe.recorder(), {"thr.A", "thr.B", "thr.C"}, t0, t1, 110);

  std::cout << "\nRC reconfigurations performed: "
            << tb.device().irc().rc().reconfigs_performed() << "\n";
  est::Table t({"RFU", "Reconfig count", "Reconfig cycles", "Mechanism"});
  for (const rfu::Rfu* r : tb.device().rfus()) {
    if (r->reconfig_count() == 0) continue;
    t.add_row({r->name(), std::to_string(r->reconfig_count()),
               std::to_string(r->reconfig_cycles()),
               r->mechanism() == rfu::ReconfigMech::ContextSwitch ? "context-switch"
                                                                  : "memory-access"});
  }
  t.print(std::cout);
  return 0;
}
