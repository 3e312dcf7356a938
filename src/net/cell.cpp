#include "net/cell.hpp"

#include <map>
#include <stdexcept>

#include "est/gates.hpp"
#include "est/power.hpp"
#include "mac/wifi_ctrl.hpp"
#include "sim/checkpoint.hpp"

namespace drmp::net {

namespace {
// Point-to-point peer ids live far above fleet station ids (which start at 1).
constexpr int kPeerStationBase = 1000;
// Shared-cell access points live above every peer.
constexpr int kApSourceBase = 1 << 20;

// Locally-administered WiFi address blocks: stations get (cell, station)
// lab addresses, the cell AP a fixed host byte no station uses.
u64 shared_wifi_station_addr(std::size_t cell, std::size_t station) {
  return 0x0200'00'00'00'00ull | (static_cast<u64>(cell + 1) << 16) |
         (static_cast<u64>(station + 1) << 8) | 0x01ull;
}
u64 shared_wifi_ap_addr(std::size_t cell) {
  return 0x0200'00'00'00'00ull | (static_cast<u64>(cell + 1) << 16) | 0xAAFEull;
}
constexpr u8 kApUwbDevId = 0xFE;
}  // namespace

Cell::Cell(const scenario::CellSpec& spec,
           const std::array<scenario::ChannelSpec, kNumModes>& fleet_channel,
           u64 scenario_seed, std::size_t cell_index, int first_station_id,
           sim::Scheduler* external_sched, const scenario::TraceSpec& trace)
    : spec_(spec), cell_index_(cell_index), first_station_id_(first_station_id) {
  if (spec_.stations.empty()) {
    throw std::invalid_argument("net::Cell: a cell needs at least one station");
  }
  if (!shared() && spec_.stations.size() != 1) {
    throw std::invalid_argument(
        "net::Cell: point-to-point cells hold exactly one station");
  }
  if (shared() && !spec_.access_point && spec_.stations.size() != 2) {
    throw std::invalid_argument(
        "net::Cell: a shared cell without an access point mirrors exactly two "
        "stations onto each other");
  }
  for (const scenario::DeviceSpec& d : spec_.stations) {
    // The cell clock and every medium TimeBase come from station 0; a member
    // on a different architecture frequency would get silently skewed
    // protocol timing instead of its own clock domain.
    if (d.cfg.arch_freq_hz != spec_.stations[0].cfg.arch_freq_hz) {
      throw std::invalid_argument(
          "net::Cell: every station in a cell must share one arch_freq_hz");
    }
  }

  if (spec_.mobility.enabled) {
    // Mobility replaces the static matrix: the driver derives audibility and
    // owns every later revision, so the two configuration paths exclude each
    // other (ScenarioSpec::validate enforces the same for engine-built
    // fleets; standalone cells get the check here).
    if (!shared() || !spec_.access_point) {
      throw std::invalid_argument(
          "net::Cell: mobility requires a shared-medium cell with an access "
          "point");
    }
    if (!spec_.contention.audibility.trivial()) {
      throw std::invalid_argument(
          "net::Cell: mobility and an explicit audibility matrix are "
          "mutually exclusive");
    }
    if (spec_.contention.capture_preamble_us > 0.0) {
      throw std::invalid_argument(
          "net::Cell: mobility requires capture off (audibility revisions "
          "re-mask in-flight frames; capture state cannot be re-derived)");
    }
    spec_.mobility.validate(spec_.stations.size());
  }

  if (external_sched != nullptr) {
    sched_ = external_sched;
  } else {
    owned_sched_ =
        std::make_unique<sim::Scheduler>(spec_.stations[0].cfg.arch_freq_hz);
    sched_ = owned_sched_.get();
  }
  if (trace.enabled) {
    recorder_ = std::make_unique<obs::FlightRecorder>(trace.capacity);
    if (owned_sched_) {
      sched_rec_ = std::make_unique<obs::SchedRecorder>(*recorder_);
      sched_->set_observer(sched_rec_.get());
    }
  }
  if (spec_.mobility.enabled) {
    driver_ = std::make_unique<TopologyDriver>(
        spec_.mobility, sim::TimeBase(spec_.stations[0].cfg.arch_freq_hz));
  }
  build_media(fleet_channel, scenario_seed);
  if (driver_) {
    // Registered after the media, so within kStageMedium a published matrix
    // revision lands after every band's current-cycle tick — the first
    // deliveries evaluated under the new epoch are next cycle's, on both
    // execution paths.
    sched_->add(*driver_, "topology", sim::Scheduler::kStageMedium);
  }
  for (std::size_t s = 0; s < spec_.stations.size(); ++s) {
    build_station(s, scenario_seed);
  }
  if (driver_) {
    driver_->on_handoff = [this](std::size_t s, u32 target_cell) {
      if (stations_[s]->link) stations_[s]->link->handoff(target_cell);
    };
  }

  // Shared-cell access point: one scripted far end per mode, ACKing data and
  // answering RTS with CTS for every station on the medium.
  if (shared() && spec_.access_point) {
    const DrmpConfig& cfg0 = stations_[0]->device->config();
    for (std::size_t m = 0; m < kNumModes; ++m) {
      if (!media_[m]) continue;
      ap_[m] = std::make_unique<phy::ScriptedPeer>(
          *media_[m], stations_[0]->device->timebase(),
          kApSourceBase + static_cast<int>(cell_index_));
      ap_[m]->set_wifi_addr(mac::MacAddr::from_u64(shared_wifi_ap_addr(cell_index_)));
      ap_[m]->set_uwb_ids(cfg0.modes[m].ident.pnid, kApUwbDevId);
      // Stations running SIFS-spaced fragment bursts need the AP's ACKs to
      // chain the NAV through the burst (802.11 §9.1.4); historic cells
      // keep Duration-0 ACKs and their pinned digests.
      for (const scenario::DeviceSpec& d : spec_.stations) {
        if (d.cfg.modes[m].enabled && d.cfg.modes[m].ident.frag_burst_enabled) {
          ap_[m]->set_ack_duration_chaining(true);
          break;
        }
      }
      sched_->add(*ap_[m], "ap." + std::string(to_string(mode_from_index(m))));
    }
  }
}

Cell::~Cell() = default;

void Cell::build_media(const std::array<scenario::ChannelSpec, kNumModes>& fleet_channel,
                       u64 scenario_seed) {
  const sim::TimeBase tb(spec_.stations[0].cfg.arch_freq_hz);
  const std::array<scenario::ChannelSpec, kNumModes>& chan =
      spec_.channel ? *spec_.channel : fleet_channel;

  for (std::size_t m = 0; m < kNumModes; ++m) {
    // One medium per mode any member station enables.
    bool enabled = false;
    mac::Protocol proto = mac::Protocol::WiFi;
    for (const scenario::DeviceSpec& d : spec_.stations) {
      if (d.cfg.modes[m].enabled) {
        enabled = true;
        proto = d.cfg.modes[m].ident.proto;
        break;
      }
    }
    if (!enabled) continue;

    if (shared()) {
      if (!spec_.contention.audibility.trivial() &&
          spec_.contention.audibility.n != spec_.stations.size()) {
        throw std::invalid_argument(
            "net::Cell: the audibility matrix must cover exactly the cell's "
            "stations (the access point is omnidirectional)");
      }
      ContendedMedium::Params p = spec_.contention;
      // Mobility cells take the driver's cycle-0 derived matrix; revisions
      // arrive through apply_audibility() at topology-event edges.
      if (driver_) p.audibility = driver_->matrix();
      auto cm = std::make_unique<ContendedMedium>(proto, tb, p);
      if (driver_) driver_->attach(*cm);
      // Matrix rows are the cell's local station indices; station ids (the
      // begin_tx source id space) are fleet-global and contiguous here.
      for (std::size_t s = 0; s < spec_.stations.size(); ++s) {
        cm->map_station(first_station_id_ + static_cast<int>(s), s);
      }
      if (recorder_) {
        cm->set_recorder(recorder_.get(),
                         recorder_->track("medium." +
                                          std::string(to_string(mode_from_index(m)))));
      }
      media_[m] = std::move(cm);
    } else {
      media_[m] = std::make_unique<phy::Medium>(proto, tb);
    }
    sched_->add(*media_[m], "medium." + std::string(to_string(mode_from_index(m))),
                sim::Scheduler::kStageMedium);

    // Lossy-channel model. Point-to-point cells seed the corruption PRNG per
    // (seed, station, mode) — a station's stream is fleet-invariant; shared
    // cells seed per (seed, cell, mode), since the medium is the cell's.
    const u64 salt = shared() ? 0x100000ull + cell_index_ + 1
                              : static_cast<u64>(first_station_id_);
    channel_rng_[m] = scenario_seed ^ (0xC4A11D5Cull * salt) ^ (m << 16);
    const u32 loss_permille = chan[m].loss_permille;
    if (loss_permille > 0) {
      u64* rng = &channel_rng_[m];
      media_[m]->tamper = [loss_permille, rng](Bytes& frame) {
        if (frame.size() < scenario::ChannelSpec::kMinFrameBytes) return false;
        if (splitmix64(*rng) % 1000 >= loss_permille) return false;
        const u64 r = splitmix64(*rng);
        frame[r % frame.size()] ^= static_cast<u8>(1u << ((r >> 32) % 8));
        return true;
      };
    }
  }
}

DrmpConfig Cell::shared_identity(const DrmpConfig& cfg, std::size_t local_index) const {
  DrmpConfig c = cfg;
  const bool mirrored = !spec_.access_point;
  const std::size_t peer_index = mirrored ? 1 - local_index : 0;
  const u64 gid = static_cast<u64>(first_station_id_) + local_index;
  // Decorrelate the backoff PRNGs even when every station was built from the
  // same config. Deliberately NOT the 0x9E37 multiplier for_station() uses —
  // re-applying that one would cancel it and hand every station the same
  // seed (a permanent collision storm between perfectly symmetric stations).
  c.backoff_seed =
      static_cast<u16>((cfg.backoff_seed ^ (0x6C8Du * gid) ^ 0x2A55u) | 1u);
  for (std::size_t m = 0; m < kNumModes; ++m) {
    if (!c.modes[m].enabled) continue;
    auto& ident = c.modes[m].ident;
    std::size_t mode_members = 0;
    for (const scenario::DeviceSpec& d : spec_.stations) {
      if (d.cfg.modes[m].enabled) ++mode_members;
    }
    ident.contenders = mode_members > 0 ? static_cast<u32>(mode_members - 1) : 0;
    switch (ident.proto) {
      case mac::Protocol::WiFi:
        ident.self_addr = shared_wifi_station_addr(cell_index_, local_index);
        ident.peer_addr = mirrored
                              ? shared_wifi_station_addr(cell_index_, peer_index)
                              : shared_wifi_ap_addr(cell_index_);
        break;
      case mac::Protocol::Uwb:
        ident.pnid = static_cast<u16>(0xC000u + cell_index_);
        ident.dev_id = static_cast<u8>(local_index + 1);
        ident.peer_dev_id =
            mirrored ? static_cast<u8>(peer_index + 1) : kApUwbDevId;
        break;
      case mac::Protocol::WiMax:
        ident.basic_cid = static_cast<u16>(0x2000u + (cell_index_ << 6) + local_index);
        break;
    }
    if (ident.tdma_period_us > 0.0) {
      // Disjoint slot allocations inside the cell: 16 slots per period.
      const double step = ident.tdma_period_us / 16.0;
      ident.tdma_offset_us = static_cast<double>(local_index % 16) * step;
    }
  }
  return c;
}

void Cell::build_station(std::size_t local_index, u64 scenario_seed) {
  const scenario::DeviceSpec& dspec = spec_.stations[local_index];
  const int station_id = first_station_id_ + static_cast<int>(local_index);
  const DrmpConfig cfg =
      shared() ? shared_identity(dspec.cfg, local_index) : dspec.cfg;

  auto st = std::make_unique<Station>();
  st->station_id = station_id;
  st->device = std::make_unique<DrmpDevice>(*sched_, cfg, station_id);
  for (std::size_t m = 0; m < kNumModes; ++m) {
    if (!cfg.modes[m].enabled) continue;
    st->device->attach_medium(mode_from_index(m), media_[m].get());
  }
  if (recorder_) {
    st->track = recorder_->track("station" + std::to_string(station_id));
    st->device->set_flight_recorder(recorder_.get(), st->track);
  }

  // Point-to-point far ends, mirroring the device's per-mode peer identities.
  if (!shared()) {
    for (std::size_t m = 0; m < kNumModes; ++m) {
      if (!cfg.modes[m].enabled) continue;
      st->peers[m] = std::make_unique<phy::ScriptedPeer>(
          *media_[m], st->device->timebase(),
          kPeerStationBase + station_id * static_cast<int>(kNumModes) +
              static_cast<int>(m));
      st->peers[m]->set_wifi_addr(mac::MacAddr::from_u64(cfg.modes[m].ident.peer_addr));
      st->peers[m]->set_uwb_ids(cfg.modes[m].ident.pnid, cfg.modes[m].ident.peer_dev_id);
      sched_->add(*st->peers[m], "peer." + std::string(to_string(mode_from_index(m))));
    }
  }

  // Link manager (mobility cells with association flows): probes/assocs go
  // through the ordinary Mode A host_send path; its FIFO completion router
  // needs to see every Mode A traffic submission too, so it is built before
  // the generators whose send lambdas record into it.
  if (driver_ && spec_.mobility.associate) {
    mac::LinkMgr::Params lp;
    lp.station_id = station_id;
    lp.start_us = spec_.mobility.assoc_start_us +
                  spec_.mobility.assoc_spacing_us *
                      static_cast<double>(local_index);
    lp.probe_bytes = spec_.mobility.probe_bytes;
    lp.assoc_bytes = spec_.mobility.assoc_bytes;
    lp.adapt_rate = spec_.mobility.adapt_rate;
    lp.rate_down_after = spec_.mobility.rate_down_after;
    lp.rate_up_after = spec_.mobility.rate_up_after;
    lp.rate_steps = spec_.mobility.rate_steps;
    st->link =
        std::make_unique<mac::LinkMgr>(lp, st->device->timebase(), *sched_);
    if (recorder_) st->link->set_recorder(recorder_.get(), st->track);
    DrmpDevice* dev = st->device.get();
    st->link->send = [dev](Bytes b) { dev->host_send(Mode::A, std::move(b)); };
    sched_->add(*st->link, "link");
  }

  // Traffic generators, one per enabled mode with an enabled traffic spec,
  // seeded per (scenario seed, global station id, mode).
  for (std::size_t m = 0; m < kNumModes; ++m) {
    if (!cfg.modes[m].enabled || !dspec.traffic[m].enabled) continue;
    const u64 seed = scenario_seed ^
                     (0x7D3F00D5ull * static_cast<u64>(station_id)) ^ (m << 24);
    st->gens[m] = std::make_unique<mac::TrafficGen>(dspec.traffic[m],
                                                    st->device->timebase(), seed);
    DrmpDevice* dev = st->device.get();
    const Mode mode = mode_from_index(m);
    obs::FlightRecorder* rec = recorder_.get();
    const u16 track = st->track;
    const sim::Scheduler* sc = sched_;
    mac::LinkMgr* link = mode == Mode::A ? st->link.get() : nullptr;
    st->gens[m]->send = [dev, mode, rec, track, sc, link](Bytes b) {
      if (link) link->note_traffic_submit();
      DRMP_OBS(rec, sc->now(), obs::EventKind::kOffered, track,
               static_cast<i64>(b.size()), static_cast<i64>(index(mode)));
      dev->host_send(mode, std::move(b));
    };
    sched_->add(*st->gens[m], "traffic." + std::string(to_string(mode)));
  }

  // Associating stations start gated: no traffic until the probe/assoc
  // exchange completes (and again none mid-reassociation after a handoff).
  if (st->link && st->gens[index(Mode::A)]) {
    mac::TrafficGen* gen = st->gens[index(Mode::A)].get();
    st->link->gate = [gen](bool open) { gen->set_gated(!open); };
    gen->set_gated(true);
  }

  Station* s = st.get();
  obs::FlightRecorder* rec = recorder_.get();
  const sim::Scheduler* sc = sched_;
  st->device->on_tx_complete = [s, rec, sc](Mode m, bool ok, u32 retry_count) {
    const std::size_t i = index(m);
    ++s->completed[i];
    if (ok) ++s->tx_ok[i];
    s->retries[i] += retry_count;
    DRMP_OBS(rec, sc->now(), obs::EventKind::kComplete, s->track,
             ok ? 1 : 0, static_cast<i64>(retry_count));
    // Mode A completions are FIFO with submissions; the link manager pops
    // its submission-kind deque to tell management frames (which it owns)
    // from traffic (forwarded to the generator as before).
    const bool mgmt = (m == Mode::A && s->link)
                          ? s->link->notify_complete(ok, retry_count)
                          : false;
    if (!mgmt && s->gens[i]) s->gens[i]->notify_tx_complete();
  };

  stations_.push_back(std::move(st));
}

DrmpDevice& Cell::device(std::size_t i) { return *stations_.at(i)->device; }

template <class Ar>
void Cell::persist_cell(Ar& ar) {
  // The channel record: corruption PRNGs (the tamper lambdas capture pointers
  // into channel_rng_, so restoring the words restores the streams), the
  // media themselves, and the scripted access points.
  sim::snap::open_record(ar, "channel");
  ar.io(channel_rng_);
  for (std::size_t m = 0; m < kNumModes; ++m) {
    if (!media_[m]) continue;
    if constexpr (Ar::kLoading) {
      media_[m]->load_state(ar);
    } else {
      media_[m]->save_state(ar);
    }
  }
  for (std::size_t m = 0; m < kNumModes; ++m) {
    if (ap_[m]) ar.io(*ap_[m]);
  }
  sim::snap::close_record(ar);

  // Mobility record — written only when the cell has a driver, so static
  // cells keep their historic snapshot layout (the committed golden snapshot
  // stays loadable without a version bump).
  if (driver_) {
    sim::snap::open_record(ar, "mobility");
    driver_->persist(ar);
    sim::snap::close_record(ar);
    if constexpr (Ar::kLoading) {
      // Re-install the restored matrix + epoch into every attached medium
      // (their construction-time matrix is the cycle-0 derivation).
      driver_->after_load();
    }
  }

  for (auto& st : stations_) {
    sim::snap::open_record(ar, "station" + std::to_string(st->station_id));
    ar.io(st->completed);
    ar.io(st->tx_ok);
    ar.io(st->retries);
    for (std::size_t m = 0; m < kNumModes; ++m) {
      if (st->peers[m]) ar.io(*st->peers[m]);
    }
    for (std::size_t m = 0; m < kNumModes; ++m) {
      if (st->gens[m]) ar.io(*st->gens[m]);
    }
    if constexpr (Ar::kLoading) {
      st->device->load_state(ar);
    } else {
      st->device->save_state(ar);
    }
    if (st->link) {
      st->link->persist(ar);
      if constexpr (Ar::kLoading) {
        // The generator gate is derived state the link re-applies: it is not
        // in the generator's (pre-existing) record layout.
        if (st->gens[index(Mode::A)]) {
          st->gens[index(Mode::A)]->set_gated(!st->link->gate_open());
        }
      }
    }
    sim::snap::close_record(ar);
  }
}

void Cell::save_state(sim::snap::Writer& w) { persist_cell(w); }
void Cell::load_state(sim::snap::Reader& r) { persist_cell(r); }

bool Cell::drained() const {
  for (const auto& st : stations_) {
    // A lane is not drained while a (re)association exchange is in flight —
    // the management completion is still owed.
    if (st->link && !st->link->settled()) return false;
    for (const auto& gen : st->gens) {
      if (gen && !gen->drained()) return false;
    }
  }
  return true;
}

scenario::DevicePower Cell::estimate_station_power(const Station& st) const {
  scenario::DevicePower pw;
  const double total =
      sched_->now() > 0 ? static_cast<double>(sched_->now()) : 1.0;
  std::map<std::string, double> activity;
  for (const rfu::Rfu* r : st.device->rfus()) {
    const auto it = est::drmp_rfu_blocks().find(r->name());
    if (it != est::drmp_rfu_blocks().end()) {
      activity[it->second.name] = static_cast<double>(r->busy_cycles()) / total;
    }
  }
  pw.cpu_activity = st.device->cpu().busy_fraction();
  pw.bus_activity = static_cast<double>(st.device->bus().busy_cycles()) / total;
  activity["cpu_core"] = pw.cpu_activity;
  activity["packet_bus+arbiter"] = pw.bus_activity;

  const est::Design design = est::drmp_design();
  const est::Process process;
  const double f = st.device->config().arch_freq_hz;
  constexpr double kDefaultActivity = 0.02;

  pw.raw_mw =
      est::estimate_power(design, process, f, activity, kDefaultActivity, {}).total_mw();
  est::PowerTechniques gated;
  gated.clock_gating = true;
  gated.power_shutoff = true;
  pw.gated_mw =
      est::estimate_power(design, process, f, activity, kDefaultActivity, gated)
          .total_mw();
  est::PowerTechniques dvfs = gated;
  dvfs.dvfs = true;
  dvfs.dvfs_freq_scale = 0.5;
  pw.dvfs_mw =
      est::estimate_power(design, process, f, activity, kDefaultActivity, dvfs)
          .total_mw();

  // Rate adaptation folds into the report as a re-estimate with the measured
  // activities scaled by the duty-weighted rate fraction — a lower effective
  // rate means proportionally less switching in the datapath blocks.
  pw.adapted_mw = pw.gated_mw;
  if (st.link) {
    pw.rate_scale = st.link->rate_scale(sched_->now());
    if (pw.rate_scale != 1.0) {
      for (auto& kv : activity) kv.second *= pw.rate_scale;
      pw.adapted_mw =
          est::estimate_power(design, process, f, activity, kDefaultActivity,
                              gated)
              .total_mw();
    }
  }
  return pw;
}

void Cell::collect(scenario::FleetStats& fleet) const {
  for (const auto& st : stations_) {
    scenario::DeviceStats ds;
    ds.station_id = st->station_id;
    ds.cycles_run = sched_->now();
    for (std::size_t m = 0; m < kNumModes; ++m) {
      if (st->gens[m]) {
        ds.offered[m] = st->gens[m]->offered();
        ds.offered_bytes[m] = st->gens[m]->offered_bytes();
      }
      ds.completed[m] = st->completed[m];
      ds.tx_ok[m] = st->tx_ok[m];
      ds.retries[m] = st->retries[m];
      if (st->peers[m]) {
        ds.peer_rx[m] = static_cast<u32>(st->peers[m]->received_data_frames().size());
        ds.peer_acks[m] = st->peers[m]->acks_sent();
      }
      if (!shared() && media_[m]) ds.tampered[m] = media_[m]->tampered_frames();
      if (shared() && media_[m]) {
        const auto* cm = static_cast<const ContendedMedium*>(media_[m].get());
        const ContendedMedium::SourceStats ss = cm->source(st->station_id);
        ds.collisions[m] = ss.collisions;
        ds.airtime[m] = ss.airtime;
      }
    }
    ds.defers = st->device->backoff_rfu().defers();
    ds.nav_defers = st->device->backoff_rfu().nav_defers();
    ds.eifs_waits = st->device->backoff_rfu().eifs_waits();
    for (std::size_t m = 0; m < kNumModes; ++m) {
      if (!st->device->config().modes[m].enabled) continue;
      const Mode mode = mode_from_index(m);
      ds.nav_arms += st->device->nav(mode).arms();
      ds.nav_resets += st->device->nav(mode).resets();
      // A reservation still pending when the cell clock stopped: bounded by
      // the largest announceable Duration — the "no stranded NAV" pin.
      const Cycle expiry = st->device->nav(mode).expiry();
      if (expiry > sched_->now()) {
        ds.nav_hangover = std::max(ds.nav_hangover, expiry - sched_->now());
      }
      if (const phy::PhyTx* ptx = st->device->phy_tx(mode)) {
        ds.expired_acks += ptx->frames_expired(phy::TxKind::kAck);
        ds.expired_ctss += ptx->frames_expired(phy::TxKind::kCts);
        ds.expired_sifs_data += ptx->frames_expired(phy::TxKind::kSifsData);
        ds.frames_expired += ptx->frames_expired();
      }
    }
    if (st->device->config().modes[0].enabled) {
      if (auto* wifi =
              dynamic_cast<ctrl::WifiCtrl*>(&st->device->protocol_ctrl(Mode::A))) {
        ds.rts_sent = wifi->rts_sent;
        ds.cts_received = wifi->cts_received;
      }
    }
    if (st->link) {
      ds.reassociations = st->link->reassociations();
      ds.handoffs = st->link->handoffs();
      ds.rate_shifts = st->link->rate_shifts();
      ds.link_loss_drops = st->link->link_loss_drops();
      ds.rate_index = st->link->rate_index();
      ds.handoff_latency = st->link->handoff_latency_total();
    }
    ds.power = estimate_station_power(*st);
    fleet.add_station(cell_index_, std::move(ds));
  }

  if (!shared()) return;
  scenario::CellStats cs;
  cs.cell_index = static_cast<u32>(cell_index_);
  cs.stations = static_cast<u32>(stations_.size());
  for (std::size_t m = 0; m < kNumModes; ++m) {
    if (!media_[m]) continue;
    const auto* cm = static_cast<const ContendedMedium*>(media_[m].get());
    cs.collided_frames[m] = cm->collided_frames();
    cs.dropped_frames[m] = cm->dropped_frames();
    cs.capture_wins[m] = cm->capture_wins();
    cs.tampered[m] = cm->tampered_frames();
    cs.busy_cycles[m] = cm->busy_cycles();
    cs.collided_airtime[m] = cm->collided_airtime();
    cs.topology_epochs[m] = cm->topology_epoch();
    if (ap_[m]) {
      cs.ap_rx[m] = static_cast<u32>(ap_[m]->received_data_frames().size());
      cs.ap_acks[m] = ap_[m]->acks_sent();
      cs.ap_ctss += ap_[m]->ctss_sent();
    }
  }
  fleet.add_cell(std::move(cs));
}

}  // namespace drmp::net
