#include "scenario/scenario_engine.hpp"

#include <algorithm>
#include <chrono>
#include <set>
#include <stdexcept>
#include <thread>

#include "net/cell.hpp"
#include "net/channel_coupler.hpp"
#include "obs/trace_export.hpp"
#include "sim/checkpoint.hpp"
#include "sim/multi_scheduler.hpp"

namespace drmp::scenario {

void ScenarioEngine::resolve_couplings() {
  groups_.assign(spec_.couplings.size(), Group{});
  for (std::size_t i = 0; i < spec_.cells.size(); ++i) {
    const CellSpec& cell = spec_.cells[i];
    if (cell.coupling_group < 0) continue;
    const auto g = static_cast<std::size_t>(cell.coupling_group);
    if (g >= groups_.size()) {
      throw std::invalid_argument(
          "ScenarioEngine: CellSpec::coupling_group outside "
          "ScenarioSpec::couplings");
    }
    if (cell.topology != Topology::kSharedMedium) {
      throw std::invalid_argument(
          "ScenarioEngine: only shared-medium cells can join a coupling group "
          "(a point-to-point medium cannot carry foreign carrier)");
    }
    groups_[g].members.push_back(i);
  }
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    Group& group = groups_[g];
    const CouplingSpec& cs = spec_.couplings[g];
    if (group.members.size() < 2) {
      throw std::invalid_argument(
          "ScenarioEngine: a coupling group needs at least two member cells");
    }
    if (!cs.reach.trivial() && cs.reach.n != group.members.size()) {
      throw std::invalid_argument(
          "ScenarioEngine: the inter-cell reach matrix must cover exactly the "
          "group's member cells");
    }
    for (const CouplingSpec::ReachRevision& rr : cs.reach_script) {
      if (!rr.reach.trivial() && rr.reach.n != group.members.size()) {
        throw std::invalid_argument(
            "ScenarioEngine: every scripted reach revision must cover exactly "
            "the group's member cells");
      }
    }
    const double freq =
        spec_.cells[group.members[0]].stations[0].cfg.arch_freq_hz;
    for (const std::size_t i : group.members) {
      if (spec_.cells[i].stations[0].cfg.arch_freq_hz != freq) {
        throw std::invalid_argument(
            "ScenarioEngine: every cell of a coupling group must share one "
            "arch_freq_hz (one lookahead horizon, one lockstep clock)");
      }
    }
    group.connected = cs.connected(group.members.size());
    if (!group.connected) {
      if (!cs.reach_script.empty()) {
        throw std::invalid_argument(
            "ScenarioEngine: a reach script needs an initially-connected "
            "coupling group (isolated groups never build a coupler)");
      }
      continue;  // Full spatial reuse: stays isolated.
    }
    for (const std::size_t i : group.members) {
      if (spec_.cells[i].contention.capture_preamble_us > 0.0) {
        throw std::invalid_argument(
            "ScenarioEngine: the capture effect is incompatible with "
            "co-channel coupling (order-dependent verdicts)");
      }
    }
    if (!(cs.latency_us > 0.0)) {
      throw std::invalid_argument(
          "ScenarioEngine: a connected coupling needs a positive inter-cell "
          "latency");
    }
    const sim::TimeBase tb(freq);
    group.horizon = std::max<Cycle>(1, tb.us_to_cycles(cs.latency_us));
  }
}

void ScenarioEngine::build_couplers() {
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    const Group& group = groups_[g];
    if (!group.connected) continue;
    net::ChannelCoupler::Params p;
    p.latency = group.horizon;
    p.reach = spec_.couplings[g].reach;
    p.immediate = spec_.coupled_reference;
    auto coupler = std::make_unique<net::ChannelCoupler>(std::move(p));
    for (std::size_t m = 0; m < group.members.size(); ++m) {
      net::Cell& cell = *cells_[group.members[m]];
      for (std::size_t band = 0; band < kNumModes; ++band) {
        phy::Medium* medium = cell.medium(mode_from_index(band));
        if (medium == nullptr) continue;
        // Shared-medium topology is validated, so every medium here is the
        // contended backend.
        coupler->attach(m, band, static_cast<net::ContendedMedium&>(*medium));
      }
    }
    couplers_.push_back(std::move(coupler));
  }
}

ScenarioEngine::ScenarioEngine(ScenarioSpec spec) : spec_(std::move(spec)) {
  spec_.validate();
  resolve_couplings();

  // Reference coupling: every connected group becomes one clock domain.
  group_scheds_.resize(groups_.size());
  std::vector<sim::Scheduler*> cell_sched(spec_.cells.size(), nullptr);
  if (spec_.coupled_reference) {
    for (std::size_t g = 0; g < groups_.size(); ++g) {
      if (!groups_[g].connected) continue;
      group_scheds_[g] = std::make_unique<sim::Scheduler>(
          spec_.cells[groups_[g].members[0]].stations[0].cfg.arch_freq_hz);
      for (const std::size_t i : groups_[g].members) {
        cell_sched[i] = group_scheds_[g].get();
      }
    }
  }

  cells_.reserve(spec_.cells.size());
  int next_station_id = 1;
  for (std::size_t i = 0; i < spec_.cells.size(); ++i) {
    cells_.push_back(std::make_unique<net::Cell>(spec_.cells[i], spec_.channel,
                                                 spec_.seed, i, next_station_id,
                                                 cell_sched[i], spec_.trace));
    cells_.back()->scheduler().set_idle_skip(spec_.idle_skip);
    next_station_id += static_cast<int>(spec_.cells[i].stations.size());
  }

  build_couplers();

  // Scripted reach revisions, quantized *up* to lockstep round edges and
  // sorted: with the reach piecewise-constant per round, the lax path
  // (drain at the edge) and the immediate reference path (forward at
  // generation time) judge every event under the same matrix.
  const Cycle stride = effective_stride();
  std::size_t coupler_idx = 0;
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    if (!groups_[g].connected) continue;
    const sim::TimeBase tb(
        spec_.cells[groups_[g].members[0]].stations[0].cfg.arch_freq_hz);
    for (const CouplingSpec::ReachRevision& rr : spec_.couplings[g].reach_script) {
      const Cycle raw = tb.us_to_cycles(rr.at_us);
      const Cycle edge = (raw + stride - 1) / stride * stride;
      reach_events_.push_back(ReachEvent{edge, coupler_idx, rr.reach});
    }
    ++coupler_idx;
  }
  std::stable_sort(reach_events_.begin(), reach_events_.end(),
                   [](const ReachEvent& a, const ReachEvent& b) {
                     return a.edge < b.edge;
                   });
}

ScenarioEngine::~ScenarioEngine() = default;

Cycle ScenarioEngine::effective_stride() const noexcept {
  Cycle stride = spec_.lockstep_stride;
  for (const Group& g : groups_) {
    if (g.connected) stride = std::min(stride, g.horizon);
  }
  return stride;
}

u64 ScenarioEngine::fingerprint() const {
  sim::Digest d;
  d.mix(spec_.seed).mix(effective_stride()).mix(spec_.coupled_reference ? 1 : 0);
  d.mix(static_cast<u64>(spec_.cells.size()));
  for (const CellSpec& c : spec_.cells) {
    d.mix(static_cast<u64>(c.topology));
    d.mix(static_cast<u64>(c.stations.size()));
    d.mix(static_cast<u64>(c.coupling_group) + 1);
  }
  d.mix(static_cast<u64>(spec_.couplings.size()));
  return d.value();
}

void ScenarioEngine::write_snapshot(Cycle lockstep_now) const {
  sim::snap::Writer w;
  w.begin_record("engine");
  u64 fp = fingerprint();
  w.io(fp);
  u64 base = lockstep_now;
  w.io(base);
  u64 ncouplers = couplers_.size();
  w.io(ncouplers);
  for (const auto& coupler : couplers_) coupler->persist(w);
  w.end_record();
  // One record per unique scheduler, in cell order: reference-coupled groups
  // share one clock domain and must save (and restore) it exactly once.
  std::set<const sim::Scheduler*> seen;
  std::size_t k = 0;
  for (const auto& cell : cells_) {
    if (!seen.insert(&cell->scheduler()).second) continue;
    w.begin_record("sched" + std::to_string(k++));
    cell->scheduler().save_state(w);
    w.end_record();
  }
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    w.begin_record("cell" + std::to_string(i));
    cells_[i]->save_state(w);
    w.end_record();
  }
  w.write_file(checkpoint_path_);
}

void ScenarioEngine::checkpoint_every(Cycle every, std::string path) {
  if (every == 0 || path.empty()) {
    throw std::invalid_argument(
        "ScenarioEngine::checkpoint_every needs a positive period and a path");
  }
  if (spec_.trace.enabled) {
    throw std::logic_error(
        "ScenarioEngine: checkpointing is incompatible with tracing "
        "(flight-recorder rings are not serialized)");
  }
  checkpoint_every_ = every;
  checkpoint_path_ = std::move(path);
}

void ScenarioEngine::resume(const std::string& path) {
  if (ran_) {
    throw std::logic_error("ScenarioEngine::resume must precede run()");
  }
  if (spec_.trace.enabled) {
    throw std::logic_error(
        "ScenarioEngine: resuming is incompatible with tracing "
        "(flight-recorder rings are not serialized)");
  }
  sim::snap::Reader r(path);
  r.expect("engine");
  u64 fp = 0;
  r.io(fp);
  if (fp != fingerprint()) {
    throw sim::snap::SnapshotError(
        "snapshot fingerprint does not match this scenario (seed, stride, "
        "cells, stations and couplings must be identical; only the execution "
        "strategy — worker_threads, idle_skip — may differ)");
  }
  u64 base = 0;
  r.io(base);
  u64 ncouplers = 0;
  r.io(ncouplers);
  if (ncouplers != couplers_.size()) {
    throw sim::snap::SnapshotError(
        "snapshot coupler count does not match this scenario");
  }
  for (auto& coupler : couplers_) coupler->persist(r);
  r.leave();
  std::set<const sim::Scheduler*> seen;
  std::size_t k = 0;
  for (auto& cell : cells_) {
    if (!seen.insert(&cell->scheduler()).second) continue;
    r.expect("sched" + std::to_string(k++));
    cell->scheduler().load_state(r);
    r.leave();
  }
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    r.expect("cell" + std::to_string(i));
    cells_[i]->load_state(r);
    r.leave();
  }
  if (!r.at_end()) {
    throw sim::snap::RecordOverrunError(
        "snapshot payload carries trailing bytes past the last cell record");
  }
  resume_base_ = static_cast<Cycle>(base);
}

FleetStats ScenarioEngine::run() {
  // One-shot: a second run would see every traffic generator already
  // exhausted and return plausible-looking zero-cycle stats. Fail loudly in
  // every build type.
  if (ran_) {
    throw std::logic_error("ScenarioEngine::run is one-shot; build a fresh engine");
  }
  ran_ = true;

  const auto t0 = std::chrono::steady_clock::now();
  sim::MultiScheduler multi;
  // Group membership decides each cell's early-exit predicate: coupled
  // cells stay on the air for their neighbours until the whole group
  // drains, so every member retires at one common round edge and the
  // digested cycle counts match between the lax and reference couplings.
  std::vector<int> group_of(cells_.size(), -1);
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    if (!groups_[g].connected) continue;
    for (const std::size_t i : groups_[g].members) {
      group_of[i] = static_cast<int>(g);
    }
  }
  std::set<const sim::Scheduler*> added;  // Reference groups share lanes.
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    if (!added.insert(&cells_[i]->scheduler()).second) continue;
    if (group_of[i] >= 0) {
      const Group* g = &groups_[static_cast<std::size_t>(group_of[i])];
      multi.add(cells_[i]->scheduler(), [this, g] {
        for (const std::size_t m : g->members) {
          if (!cells_[m]->drained()) return false;
        }
        return true;
      });
    } else {
      net::Cell* c = cells_[i].get();
      multi.add(c->scheduler(), [c] { return c->drained(); });
    }
  }
  // Fast-forward reach revisions a resumed run already lived through (the
  // reach itself is not persisted — re-application re-derives it and the
  // coupler epoch deterministically).
  hook_edge_ = resume_base_;
  while (reach_applied_ < reach_events_.size() &&
         reach_events_[reach_applied_].edge <= resume_base_) {
    const ReachEvent& ev = reach_events_[reach_applied_++];
    couplers_[ev.coupler]->set_reach(ev.reach);
  }
  // The round hook drains lax outboxes (a no-op under immediate reference
  // injection) and then applies reach revisions due at this edge — after
  // the drain, so the drained round's events were judged under the reach
  // live when the round began, exactly like the immediate path's
  // generation-time reads. Reference mode installs it only when a reach
  // script actually needs edge processing.
  if (!couplers_.empty() &&
      (!spec_.coupled_reference || !reach_events_.empty())) {
    const Cycle stride = effective_stride();
    multi.set_round_hook([this, stride] {
      for (const auto& coupler : couplers_) coupler->exchange();
      hook_edge_ += stride;
      while (reach_applied_ < reach_events_.size() &&
             reach_events_[reach_applied_].edge <= hook_edge_) {
        const ReachEvent& ev = reach_events_[reach_applied_++];
        couplers_[ev.coupler]->set_reach(ev.reach);
      }
    });
  }
  if (checkpoint_every_ != 0) {
    // The hook runs with every lane flushed onto the round edge — exactly
    // the quiescent state the snapshot format is defined over. Cycles are
    // run-relative; a resumed run keeps stamping fleet-absolute edges.
    multi.set_edge_hook(checkpoint_every_, [this](Cycle run_cycles) {
      write_snapshot(resume_base_ + run_cycles);
    });
  }
  const unsigned workers = spec_.worker_threads != 0
                               ? spec_.worker_threads
                               : std::max(1u, std::thread::hardware_concurrency());
  // A resumed engine spends only the budget the interrupted run left: its
  // lanes already sit at resume_base_, and round edges realign with the
  // uninterrupted run's because snapshots land on stride multiples.
  const Cycle budget =
      spec_.max_cycles > resume_base_ ? spec_.max_cycles - resume_base_ : 0;
  const auto res = multi.run(budget, effective_stride(), workers);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return collect(resume_base_ + res.cycles, res.all_finished, wall, multi.profile());
}

FleetStats ScenarioEngine::collect(Cycle lockstep_cycles, bool all_drained,
                                   double wall_seconds,
                                   const sim::ExecProfile& lockstep) const {
  FleetStats fs;
  fs.scenario_name = spec_.name;
  fs.lockstep_cycles = lockstep_cycles;
  fs.all_drained = all_drained;
  fs.wall_seconds = wall_seconds;
  fs.devices.reserve(spec_.station_count());
  std::set<const sim::Scheduler*> counted;  // Shared clock domains count once.
  for (const auto& cell : cells_) {
    cell->collect(fs);
    if (!counted.insert(&cell->scheduler()).second) continue;
    fs.add_profile(cell->scheduler().profile());
  }
  fs.add_profile(lockstep);
  return fs;
}

bool ScenarioEngine::tracing() const noexcept { return spec_.trace.enabled; }

std::string ScenarioEngine::chrome_trace() const {
  std::vector<const obs::FlightRecorder*> recs;
  for (const auto& cell : cells_) recs.push_back(cell->recorder());
  return obs::chrome_trace(recs);
}

std::string ScenarioEngine::text_timeline() const {
  std::vector<const obs::FlightRecorder*> recs;
  for (const auto& cell : cells_) recs.push_back(cell->recorder());
  return obs::text_timeline(recs);
}

net::Cell& ScenarioEngine::cell(std::size_t i) { return *cells_.at(i); }

DrmpDevice& ScenarioEngine::device(std::size_t i) {
  for (const auto& cell : cells_) {
    if (i < cell->station_count()) return cell->device(i);
    i -= cell->station_count();
  }
  throw std::out_of_range("ScenarioEngine::device: index past the last station");
}

}  // namespace drmp::scenario
