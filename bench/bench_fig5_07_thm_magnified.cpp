// Fig. 5.7 — TH_M timing diagram magnified: a zoom into the first service
// request showing the statechart walk (WAIT4_OCT -> WAIT4_RFUT -> ... ->
// USE_PBUS -> WAIT4_RFUDONE -> USE_RFUT2) cycle by cycle.
#include "bench_common.hpp"

#include "irc/task_handler.hpp"

int main() {
  using namespace drmp;
  using namespace drmp::bench;

  Testbench tb;
  const Probe& probe = Probe::attach(tb);

  std::cout << "=== Fig 5.7: TH_M timing diagram (magnified, mode A, first "
               "request) ===\n\n";
  // Kick off one WiFi transmission and capture the first ~1200 cycles of
  // TH_M.A activity.
  tb.send_async(Mode::A, make_payload(600));
  // Run until TH_M.A leaves IDLE.
  tb.run_until(
      [&] {
        return tb.device().irc().handler(Mode::A).thm_state() != irc::ThMState::Idle;
      },
      8'000'000);
  const Cycle t0 = tb.scheduler().now() > 4 ? tb.scheduler().now() - 4 : 0;
  tb.run_cycles(1200);
  const Cycle t1 = tb.scheduler().now();
  tb.wait_tx_count(Mode::A, 1, 400'000'000);

  std::cout << "state legend: ";
  for (int s = 0; s <= static_cast<int>(irc::ThMState::UseRfut2); ++s) {
    std::cout << s << "=" << to_string(static_cast<irc::ThMState>(s)) << " ";
  }
  std::cout << "\n\n";
  std::cout << obs::ascii_waveform(probe.recorder(),
                                   {"thm.A", "thr.A", "bus", "rfu.seq", "rfu.crypto"},
                                   t0, t1, 110);

  // State-by-state transition log for the window.
  std::cout << "\ntransition log (cycle: state):\n";
  int printed = 0;
  for (const obs::Event& e : obs::track_events(probe.recorder(), "thm.A")) {
    if (e.cycle < t0 || e.cycle >= t1) continue;
    std::cout << "  " << e.cycle << ": "
              << to_string(static_cast<irc::ThMState>(e.a)) << "\n";
    if (++printed > 40) {
      std::cout << "  ...\n";
      break;
    }
  }
  return 0;
}
