// Interconnect explorer: capture the packet-bus demand of a live
// multi-standard run, then replay it through the alternative topologies the
// thesis names as future work (wider bus, multi-bus network, segmented bus,
// §3.6.3/§7.1.1) and through an N-mode scaling sweep — the architectural
// what-if a platform derivative designer would run before taping out.
//
//   $ ./interconnect_explorer [n_modes_max]
#include <cstdio>
#include <cstdlib>

#include "drmp/testbench.hpp"
#include "hw/interconnect_models.hpp"

int main(int argc, char** argv) {
  using namespace drmp;
  const u32 n_max = argc > 1 ? static_cast<u32>(std::atoi(argv[1])) : 6;

  // 1. Capture: three concurrent protocol streams on the real single bus.
  Testbench tb;
  obs::FlightRecorder rec;
  tb.device().bus().attach_recorder(&rec);
  for (u32 p = 0; p < 3; ++p) {
    for (Mode m : {Mode::A, Mode::B, Mode::C}) {
      Bytes msdu(1000);
      for (std::size_t i = 0; i < msdu.size(); ++i) msdu[i] = static_cast<u8>(i + p);
      tb.send_async(m, msdu);
    }
  }
  for (Mode m : {Mode::A, Mode::B, Mode::C}) tb.wait_tx_count(m, 3, 4'000'000'000ull);
  const auto tenures = hw::bus_transactions(rec, tb.device().bus().total_cycles());
  const auto flows = hw::to_flow_trace(tenures);
  std::printf("captured %zu bus tenures from a 3-mode run (%.1f us)\n\n",
              tenures.size(),
              tb.device().timebase().cycles_to_us(tb.device().bus().total_cycles()));

  // 2. Replay through each topology.
  std::vector<hw::InterconnectSpec> specs(4);
  specs[0] = {};
  specs[1].kind = hw::InterconnectSpec::Kind::WideBus;
  specs[1].width_words = 2;
  specs[2].kind = hw::InterconnectSpec::Kind::MultiBus;
  specs[2].num_buses = 3;
  specs[3].kind = hw::InterconnectSpec::Kind::SegmentedBus;

  std::printf("%-24s %14s %14s %10s\n", "topology", "total wait(us)", "peak util(%)",
              "wire cost");
  for (const auto& s : specs) {
    const auto r = hw::replay_interconnect(flows, s);
    std::printf("%-24s %14.2f %14.2f %10.2f\n", s.label().c_str(),
                tb.device().timebase().cycles_to_us(r.total_wait()),
                100.0 * r.peak_utilization, s.wire_cost());
  }

  // 3. Scaling: how many 64x-compressed flows fit on one bus? (§3.1 footnote)
  std::vector<hw::FlowTx> pattern;
  for (const auto& f : flows) {
    if (f.flow != 0) continue;
    hw::FlowTx c = f;
    c.request /= 64;
    pattern.push_back(c);
  }
  std::printf("\nscaling the mode count on a single 32-bit bus:\n");
  std::printf("%8s %14s %16s\n", "N modes", "bus util(%)", "worst wait(us)");
  for (u32 n = 1; n <= n_max; ++n) {
    const auto synth = hw::synthesize_n_flows(pattern, n, 293);
    const auto r = hw::replay_interconnect(synth, {});
    std::printf("%8u %14.1f %16.2f\n", n, 100.0 * r.peak_utilization,
                tb.device().timebase().cycles_to_us(r.worst_flow_wait()));
  }
  std::printf("\n'The potential bottleneck is the interconnect' (thesis 3.1) — "
              "this is where it bites, and what each remedy buys.\n");
  return 0;
}
