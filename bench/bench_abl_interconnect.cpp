// Ablation (§3.6.3, §5.5, §7.1.1) — interconnect alternatives.
//
// Part 1 records the packet-bus demand of the standard three-mode transmit
// workload and replays it through the topologies the thesis names as future
// work: a wider bus, a multi-bus network and a segmented bus. Part 2 runs the
// §3.1-footnote scaling experiment ("nothing in the architecture's basic
// design that limits it to three protocol modes ... the potential bottleneck
// is the interconnect"): synthetic N-flow workloads derived from the measured
// per-mode demand, swept until the single bus saturates.
#include "bench_common.hpp"
#include "hw/interconnect_models.hpp"

int main() {
  using namespace drmp;
  using namespace drmp::bench;
  using est::Table;

  std::cout << "=== Ablation: packet-bus interconnect alternatives "
               "(thesis 3.6.3 / 7.1.1) ===\n\n";

  // ---- Capture the live three-mode demand. ----
  Testbench tb;
  obs::FlightRecorder rec;
  tb.device().bus().attach_recorder(&rec);
  run_three_mode_tx(tb, 4, 1200);
  const auto tenures = hw::bus_transactions(rec, tb.device().bus().total_cycles());
  const auto flows = hw::to_flow_trace(tenures);
  const auto& tbase = tb.device().timebase();

  std::cout << "Captured " << tenures.size() << " bus tenures over "
            << Table::num(tbase.cycles_to_us(tb.device().bus().total_cycles()), 1)
            << " us of three-mode traffic (measured single-bus utilization "
            << Table::num(100.0 * static_cast<double>(tb.device().bus().busy_cycles()) /
                              static_cast<double>(tb.device().bus().total_cycles()),
                          2)
            << "%).\n\n";

  // ---- Part 1: replay through each topology. ----
  std::vector<hw::InterconnectSpec> specs;
  specs.push_back({});  // Single 32-bit bus (the prototype).
  {
    hw::InterconnectSpec s;
    s.kind = hw::InterconnectSpec::Kind::WideBus;
    s.width_words = 2;
    specs.push_back(s);
    s.width_words = 4;
    specs.push_back(s);
  }
  {
    hw::InterconnectSpec s;
    s.kind = hw::InterconnectSpec::Kind::MultiBus;
    s.num_buses = 2;
    specs.push_back(s);
    s.num_buses = 3;
    specs.push_back(s);
  }
  {
    hw::InterconnectSpec s;
    s.kind = hw::InterconnectSpec::Kind::SegmentedBus;
    specs.push_back(s);
  }

  Table t({"Interconnect", "total wait (us)", "worst-mode wait (us)",
           "peak resource util (%)", "relative wire cost"});
  for (const auto& spec : specs) {
    const auto res = hw::replay_interconnect(flows, spec);
    t.add_row({spec.label(), Table::num(tbase.cycles_to_us(res.total_wait()), 2),
               Table::num(tbase.cycles_to_us(res.worst_flow_wait()), 2),
               Table::num(100.0 * res.peak_utilization, 2),
               Table::num(spec.wire_cost(), 2)});
  }
  t.print(std::cout);
  std::cout
      << "\nReading: at the prototype's operating point the single bus is so "
         "lightly loaded that every alternative buys little — exactly why "
         "3.6.3 keeps the single bus ('feasible and adequate'). The options "
         "matter only as the mode count or line rates grow (below).\n\n";

  // ---- Part 2: scaling the number of concurrent modes (3.1 footnote). ----
  std::cout << "--- Scaling study: N concurrent modes on one bus (3.1 "
               "footnote) ---\n";
  // Compress mode A's demand pattern so each synthetic flow models a busier,
  // faster protocol (the 'faster protocols' of 3.6.3); phase-shift flows so
  // they interleave rather than collide artificially.
  std::vector<hw::FlowTx> pattern;
  for (const auto& f : flows) {
    if (f.flow != 0) continue;
    hw::FlowTx c = f;
    c.request /= 64;  // 64x line-rate compression.
    pattern.push_back(c);
  }
  Table t2({"concurrent modes N", "bus util (%)", "total wait (us)",
            "worst-flow wait (us)", "makespan stretch"});
  double base_makespan = 0.0;
  for (u32 n = 1; n <= 8; ++n) {
    const auto synth = hw::synthesize_n_flows(pattern, n, 293);
    const auto res = hw::replay_interconnect(synth, {});
    if (n == 1) base_makespan = static_cast<double>(res.makespan);
    t2.add_row({std::to_string(n), Table::num(100.0 * res.peak_utilization, 1),
                Table::num(tbase.cycles_to_us(res.total_wait()), 2),
                Table::num(tbase.cycles_to_us(res.worst_flow_wait()), 2),
                Table::num(static_cast<double>(res.makespan) / base_makespan, 2)});
  }
  t2.print(std::cout);

  // Where the alternatives rescue the saturated bus.
  std::cout << "\n--- Same 8-mode workload on the alternative topologies ---\n";
  const auto synth8 = hw::synthesize_n_flows(pattern, 8, 293);
  Table t3({"Interconnect", "total wait (us)", "worst-flow wait (us)",
            "peak resource util (%)"});
  for (const auto& spec : specs) {
    const auto res = hw::replay_interconnect(synth8, spec);
    t3.add_row({spec.label(), Table::num(tbase.cycles_to_us(res.total_wait()), 2),
                Table::num(tbase.cycles_to_us(res.worst_flow_wait()), 2),
                Table::num(100.0 * res.peak_utilization, 2)});
  }
  t3.print(std::cout);
  std::cout << "\nReading: contention grows superlinearly once the single bus "
               "passes ~50% utilization; widening the bus shortens transfers "
               "but not RFU-held stalls, while the multi-bus removes "
               "cross-mode contention at the highest wire cost — the trade "
               "3.6.3 sketches, quantified on measured demand. The segmented "
               "bus buys nothing at tenure granularity because nearly every "
               "tenure mixes RFU triggers with memory words — realizing its "
               "benefit needs the per-phase 'additional control operations' "
               "the thesis warns about.\n";
  return 0;
}
