#include "hw/interconnect_models.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <deque>
#include <optional>

namespace drmp::hw {

std::vector<BusTransaction> bus_transactions(const obs::FlightRecorder& rec,
                                             Cycle end) {
  rec.require_signal_history();
  std::vector<BusTransaction> done;
  const std::optional<u16> track = rec.find_track("packet_bus");
  if (!track) return done;
  std::array<std::optional<BusTransaction>, kNumModes> open;
  const auto close = [&](std::optional<BusTransaction>& t, Cycle now) {
    if (!t) return;
    // A tenure that moved no words still occupied the arbiter for its span;
    // give it a one-cycle footprint at the release point.
    if (t->words == 0) t->first_access = t->last_access = now;
    done.push_back(*t);
    t.reset();
  };
  for (const obs::Event& ev : rec.signal_events(*track)) {
    std::optional<BusTransaction>& t = open[static_cast<std::size_t>(ev.a)];
    if (ev.kind == obs::EventKind::kBusRelease) {
      close(t, ev.cycle);
    } else if (ev.kind == obs::EventKind::kBusRun ||
               ev.kind == obs::EventKind::kBusBurst) {
      // A run continues a tenure whose declaring access was recorded, one
      // word per cycle after it; a burst's words are RFU trigger writes.
      if (!t) continue;
      t->last_access += static_cast<Cycle>(ev.b);
      t->words += static_cast<u32>(ev.b);
      (ev.kind == obs::EventKind::kBusBurst ? t->touched_rfu : t->touched_mem) = true;
    } else {
      // A request opens a tenure unless one is open (a re-assertion); so
      // does an access outside one (e.g. a recorder attached mid-run), so
      // the demand is not lost.
      if (!t) {
        t = BusTransaction{mode_from_index(static_cast<std::size_t>(ev.a)),
                           ev.cycle, ev.cycle, ev.cycle};
      }
      if (ev.kind != obs::EventKind::kBusAccess) continue;
      if (t->words == 0) t->first_access = ev.cycle;
      t->last_access = ev.cycle;
      ++t->words;
      (ev.b != 0 ? t->touched_rfu : t->touched_mem) = true;
    }
  }
  for (std::optional<BusTransaction>& t : open) close(t, end);
  std::sort(done.begin(), done.end(),
            [](const BusTransaction& a, const BusTransaction& b) {
              return a.request < b.request;
            });
  return done;
}

std::vector<FlowTx> to_flow_trace(std::span<const BusTransaction> trace) {
  std::vector<FlowTx> out;
  out.reserve(trace.size());
  for (const BusTransaction& t : trace) {
    FlowTx f;
    f.flow = static_cast<u32>(index(t.mode));
    f.request = t.request;
    f.words = std::max<u32>(1, t.words);
    f.stall = t.stall_cycles();
    f.segments = 0;
    if (t.touched_mem) f.segments |= FlowTx::kSegMem;
    if (t.touched_rfu) f.segments |= FlowTx::kSegRfu;
    if (f.segments == 0) f.segments = FlowTx::kSegMem;
    out.push_back(f);
  }
  std::sort(out.begin(), out.end(),
            [](const FlowTx& a, const FlowTx& b) { return a.request < b.request; });
  return out;
}

std::vector<FlowTx> synthesize_n_flows(std::span<const FlowTx> trace, u32 n_flows,
                                       Cycle phase) {
  std::vector<FlowTx> out;
  for (u32 f = 0; f < n_flows; ++f) {
    for (const FlowTx& t : trace) {
      if (t.flow != 0) continue;
      FlowTx c = t;
      c.flow = f;
      c.request = t.request + static_cast<Cycle>(f) * phase;
      out.push_back(c);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const FlowTx& a, const FlowTx& b) { return a.request < b.request; });
  return out;
}

std::string InterconnectSpec::label() const {
  switch (kind) {
    case Kind::SingleBus:
      return "single bus (32-bit)";
    case Kind::WideBus:
      return "wide bus (" + std::to_string(32 * width_words) + "-bit)";
    case Kind::MultiBus:
      return "multi-bus x" + std::to_string(num_buses);
    case Kind::SegmentedBus:
      return "segmented bus (mem|rfu)";
  }
  return "?";
}

double InterconnectSpec::wire_cost() const {
  // Rough relative wiring/area proxy, single 32-bit bus = 1.0: a W-word bus
  // is ~W x the data wires; N buses are ~N x wires plus N-way multiplexing at
  // the memory port; a segmented bus reuses the same wire length split in two
  // with a bridge ("lower resources but with some additional control",
  // §3.6.3).
  switch (kind) {
    case Kind::SingleBus:
      return 1.0;
    case Kind::WideBus:
      return static_cast<double>(width_words);
    case Kind::MultiBus:
      return 1.15 * static_cast<double>(num_buses);
    case Kind::SegmentedBus:
      return 1.2;
  }
  return 1.0;
}

Cycle ReplayResult::total_wait() const {
  Cycle sum = 0;
  for (const auto& f : flows) sum += f.wait;
  return sum;
}

Cycle ReplayResult::worst_flow_wait() const {
  Cycle worst = 0;
  for (const auto& f : flows) worst = std::max(worst, f.wait);
  return worst;
}

namespace {

/// Resource indices a transaction occupies under `spec`.
void resources_for(const InterconnectSpec& spec, const FlowTx& tx,
                   std::vector<u32>& out) {
  out.clear();
  switch (spec.kind) {
    case InterconnectSpec::Kind::SingleBus:
    case InterconnectSpec::Kind::WideBus:
      out.push_back(0);
      break;
    case InterconnectSpec::Kind::MultiBus:
      out.push_back(tx.flow % std::max<u32>(1, spec.num_buses));
      break;
    case InterconnectSpec::Kind::SegmentedBus:
      if ((tx.segments & FlowTx::kSegMem) != 0) out.push_back(0);
      if ((tx.segments & FlowTx::kSegRfu) != 0) out.push_back(1);
      if (out.empty()) out.push_back(0);
      break;
  }
}

Cycle service_cycles(const InterconnectSpec& spec, const FlowTx& tx) {
  const u32 width =
      spec.kind == InterconnectSpec::Kind::WideBus ? std::max<u32>(1, spec.width_words) : 1;
  const Cycle transfer = (tx.words + width - 1) / width;
  return std::max<Cycle>(1, transfer + tx.stall);
}

}  // namespace

ReplayResult replay_interconnect(std::span<const FlowTx> trace,
                                 const InterconnectSpec& spec) {
  u32 n_flows = 0;
  for (const FlowTx& t : trace) n_flows = std::max(n_flows, t.flow + 1);

  const u32 n_resources = spec.kind == InterconnectSpec::Kind::MultiBus
                              ? std::max<u32>(1, spec.num_buses)
                          : spec.kind == InterconnectSpec::Kind::SegmentedBus ? 2u
                                                                              : 1u;

  // Per-flow FIFO of its transactions (a mode's task handler issues one bus
  // tenure at a time, so per-flow transactions are sequential).
  std::vector<std::deque<FlowTx>> queues(n_flows);
  for (const FlowTx& t : trace) queues[t.flow].push_back(t);
  for (auto& q : queues) {
    std::sort(q.begin(), q.end(),
              [](const FlowTx& a, const FlowTx& b) { return a.request < b.request; });
  }

  ReplayResult res;
  res.flows.assign(n_flows, FlowReplayStats{});
  std::vector<Cycle> free_at(n_resources, 0);
  std::vector<Cycle> busy(n_resources, 0);
  std::vector<Cycle> ready(n_flows, 0);
  for (u32 f = 0; f < n_flows; ++f) {
    ready[f] = queues[f].empty() ? 0 : queues[f].front().request;
  }

  std::vector<u32> needed;
  std::size_t remaining = trace.size();
  while (remaining > 0) {
    // Non-preemptive fixed-priority arbitration: among flows with a pending
    // transaction, the one that can start earliest wins; ties go to the
    // lower flow id (flow 0 = mode A = highest priority, §3.6.4).
    u32 best = n_flows;
    Cycle best_start = 0;
    for (u32 f = 0; f < n_flows; ++f) {
      if (queues[f].empty()) continue;
      resources_for(spec, queues[f].front(), needed);
      Cycle start = ready[f];
      for (u32 r : needed) start = std::max(start, free_at[r]);
      if (best == n_flows || start < best_start) {
        best = f;
        best_start = start;
      }
    }
    assert(best != n_flows);

    const FlowTx tx = queues[best].front();
    queues[best].pop_front();
    --remaining;

    const Cycle dur = service_cycles(spec, tx);
    const Cycle end = best_start + dur;
    resources_for(spec, tx, needed);
    for (u32 r : needed) {
      free_at[r] = end;
      busy[r] += dur;
    }
    auto& st = res.flows[best];
    st.wait += best_start - ready[best];
    st.hold += dur;
    ++st.transactions;
    res.makespan = std::max(res.makespan, end);

    // The flow's next transaction may not start before its original demand
    // time nor before this one completes (one tenure per task handler).
    if (!queues[best].empty()) {
      ready[best] = std::max(queues[best].front().request, end);
    }
  }

  if (res.makespan > 0) {
    Cycle peak = 0;
    for (u32 r = 0; r < n_resources; ++r) peak = std::max(peak, busy[r]);
    res.peak_utilization = static_cast<double>(peak) / static_cast<double>(res.makespan);
  }
  return res;
}

}  // namespace drmp::hw
