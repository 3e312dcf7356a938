#include "drmp/device.hpp"

#include <cassert>
#include <cmath>

#include "mac/uwb_ctrl.hpp"
#include "mac/wifi_ctrl.hpp"
#include "mac/wimax_ctrl.hpp"
#include "sim/checkpoint.hpp"

namespace drmp {

namespace cfgns = rfu::cfg;

DrmpConfig DrmpConfig::standard_three_mode() {
  DrmpConfig c;
  // Mode A: WiFi.
  {
    auto& m = c.modes[0];
    m.enabled = true;
    m.ident.proto = mac::Protocol::WiFi;
    m.ident.self_addr = 0x0000'11'22'33'44'55ull & 0xFFFFFFFFFFFFull;
    m.ident.peer_addr = 0x0A0B0C0D0E0Full;
    m.ident.frag_threshold = 1024;
    m.key = {0x57, 0x69, 0x46, 0x69, 0x4B, 0x65, 0x79, 0x21,
             0x57, 0x69, 0x46, 0x69, 0x4B, 0x65, 0x79, 0x21};
  }
  // Mode B: WiMAX.
  {
    auto& m = c.modes[1];
    m.enabled = true;
    m.ident.proto = mac::Protocol::WiMax;
    m.ident.basic_cid = 0x1234;
    m.ident.tdma_offset_us = 500.0;
    m.ident.tdma_period_us = 5000.0;  // 5 ms TDD frame.
    m.ident.frag_threshold = 1024;
    m.key = {0x57, 0x69, 0x4D, 0x61, 0x78, 0x21, 0x21, 0x21};  // DES: 8 bytes.
  }
  // Mode C: UWB.
  {
    auto& m = c.modes[2];
    m.enabled = true;
    m.ident.proto = mac::Protocol::Uwb;
    m.ident.pnid = 0xBEEF;
    m.ident.dev_id = 1;
    m.ident.peer_dev_id = 2;
    m.ident.tdma_offset_us = 1000.0;
    m.ident.tdma_period_us = 8000.0;  // 8 ms superframe, CTA at +1 ms.
    m.ident.frag_threshold = 1024;
    m.key = {0x55, 0x77, 0x62, 0x4B, 0x65, 0x79, 0x21, 0x21,
             0x55, 0x77, 0x62, 0x4B, 0x65, 0x79, 0x21, 0x21};
  }
  return c;
}

DrmpConfig DrmpConfig::for_station(int station_id) const {
  assert(station_id >= 1 && "fleet station ids start at 1");
  DrmpConfig c = *this;
  const u64 sid = static_cast<u64>(station_id);
  c.backoff_seed = static_cast<u16>((backoff_seed ^ (0x9E37u * sid)) | 1u);
  for (std::size_t i = 0; i < kNumModes; ++i) {
    auto& ident = c.modes[i].ident;
    if (!c.modes[i].enabled) continue;
    switch (ident.proto) {
      case mac::Protocol::WiFi:
        // Locally-administered unicast addresses, one lab per station.
        ident.self_addr = 0x0200'00'00'00'00ull | (sid << 8) | 0x01;
        ident.peer_addr = 0x0200'00'00'00'00ull | (sid << 8) | 0x02;
        break;
      case mac::Protocol::Uwb:
        ident.pnid = static_cast<u16>(0xB000u + sid);
        ident.dev_id = 1;
        ident.peer_dev_id = 2;
        break;
      case mac::Protocol::WiMax:
        ident.basic_cid = static_cast<u16>(0x1000u + sid);
        break;
    }
    if (ident.tdma_period_us > 0.0) {
      // Stagger slot allocations across stations inside the period: 16
      // slots of period/16, so fleets of up to 16 stations that do share a
      // medium keep disjoint allocations (slots wrap beyond that).
      const double step = ident.tdma_period_us / 16.0;
      const double slot = static_cast<double>((sid - 1) % 16);
      ident.tdma_offset_us = std::fmod(ident.tdma_offset_us + slot * step,
                                       ident.tdma_period_us);
    }
  }
  return c;
}

DrmpDevice::DrmpDevice(sim::Scheduler& sched, DrmpConfig cfg, int station_id)
    : cfg_(std::move(cfg)), station_id_(station_id), tb_(cfg_.arch_freq_hz),
      sched_(&sched) {
  bus_ = std::make_unique<hw::PacketBus>(mem_);

  irc::Irc::Env irc_env;
  irc_env.bus = bus_.get();
  irc_env.mem = &mem_;
  irc_env.trace = cfg_.trace_enabled ? &trace_ : nullptr;
  irc_ = std::make_unique<irc::Irc>(irc_env);
  irc_->rfu_table().set_queue_policy(cfg_.rfu_queue_priority
                                         ? irc::RfuTable::QueuePolicy::Priority
                                         : irc::RfuTable::QueuePolicy::Fcfs);

  cpu::CpuModel::Config cpu_cfg;
  cpu_cfg.cpu_freq_hz = cfg_.cpu_freq_hz;
  cpu_cfg.arch_freq_hz = cfg_.arch_freq_hz;
  cpu_cfg.preemptive = cfg_.cpu_preemptive;
  cpu_ = std::make_unique<cpu::CpuModel>(cpu_cfg);

  api_ = std::make_unique<api::cDRMP>(&mem_);

  load_reconfig_blobs();
  build_rfus(sched);

  // Event handler.
  EventHandler::Env eh_env;
  eh_env.irc = irc_.get();
  eh_env.mem = &mem_;
  for (std::size_t i = 0; i < kNumModes; ++i) {
    eh_env.rx_bufs[i] = &rx_bufs_[i];
    eh_env.idents[i] = cfg_.modes[i].ident;
    eh_env.enabled[i] = cfg_.modes[i].enabled;
    eh_env.nav[i] = &navs_[i];
  }
  eh_env.tb = &tb_;
  event_handler_ = std::make_unique<EventHandler>(eh_env);
  event_handler_->raise_irq = [this](Mode m, irc::IrqEvent ev, Word param) {
    irc_->irq_raise(m, ev, param);  // Memory-mapped source registers.
    cpu_->raise_hw_interrupt(m, static_cast<u32>(ev), param);
  };

  // Quiescence wiring: frame deliveries wake the Event Handler, and a bus
  // grant to a mode's IRC wakes the IRC (a task handler waiting for the bus
  // sleeps until then).
  bus_->set_grant_waker(irc_.get());
  for (std::size_t i = 0; i < kNumModes; ++i) {
    const Mode m = mode_from_index(i);
    rx_bufs_[i].on_deliver = [this, i, m] {
      event_handler_->wake_self();
      // Delivery-time snoop: overheard reservations must arm (and CF-End
      // truncations land, and response anchors latch) at frame end, not
      // when the drain request finally runs.
      event_handler_->rx_snoop(m, rx_bufs_[i].last_delivered().bytes);
    };
  }

  // Completion routing: CPU requests -> ReqDone interrupt; Event Handler
  // requests -> back to the Event Handler.
  irc_->on_complete = [this](Mode m, const irc::ServiceRequest& req) {
    if (req.from_cpu) {
      irc_->irq_raise(m, irc::IrqEvent::ReqDone, req.tag);
      cpu_->raise_hw_interrupt(m, static_cast<u32>(irc::IrqEvent::ReqDone), req.tag);
    } else {
      event_handler_->on_request_complete(m, req.tag);
    }
  };

  // Protocol controllers.
  for (std::size_t i = 0; i < kNumModes; ++i) {
    if (!cfg_.modes[i].enabled) continue;
    const Mode m = mode_from_index(i);
    ctrl::CtrlEnv env;
    env.mode = m;
    env.ident = cfg_.modes[i].ident;
    env.api = api_.get();
    env.mem = &mem_;
    env.cpu = cpu_.get();
    env.tb = &tb_;
    switch (env.ident.proto) {
      case mac::Protocol::WiFi:
        ctrls_[i] = std::make_unique<ctrl::WifiCtrl>(env);
        break;
      case mac::Protocol::WiMax:
        ctrls_[i] = std::make_unique<ctrl::WimaxCtrl>(env);
        break;
      case mac::Protocol::Uwb:
        ctrls_[i] = std::make_unique<ctrl::UwbCtrl>(env);
        break;
    }
    ctrl::ProtocolCtrl* c = ctrls_[i].get();
    c->on_deliver = [this, m](const Bytes& msdu) {
      if (on_deliver) on_deliver(m, msdu);
    };
    c->on_tx_complete = [this, m](bool ok, u32 retries) {
      if (on_tx_complete) on_tx_complete(m, ok, retries);
    };
    c->rx_release = [this, m] { event_handler_->release(m); };
    cpu_->set_handler(m, [c](const cpu::IsrContext& ctx) { return c->on_isr(ctx); });
  }

  // Scheduler registration (deterministic tick order: arbitration first,
  // then controllers, RFUs, CPU and the event handler).
  sched.add(*bus_, "bus");
  sched.add(*irc_, "irc");
  for (rfu::Rfu* r : all_rfus_) sched.add(*r, "rfu." + r->name());
  sched.add(*cpu_, "cpu");
  sched.add(*event_handler_, "event_handler");
}

void DrmpDevice::load_reconfig_blobs() {
  // Crypto keys per cipher state: each enabled mode installs the blob for the
  // cipher its protocol uses.
  for (const auto& mc : cfg_.modes) {
    if (!mc.enabled) continue;
    switch (mc.ident.proto) {
      case mac::Protocol::WiFi:
        rmem_.load_blob(rfu::kCryptoRfu, cfgns::kCryptoRc4,
                        rfu::CryptoRfu::make_config_blob(cfgns::kCryptoRc4, mc.key));
        break;
      case mac::Protocol::Uwb:
        rmem_.load_blob(rfu::kCryptoRfu, cfgns::kCryptoAes,
                        rfu::CryptoRfu::make_config_blob(cfgns::kCryptoAes, mc.key));
        break;
      case mac::Protocol::WiMax:
        rmem_.load_blob(rfu::kCryptoRfu, cfgns::kCryptoDes,
                        rfu::CryptoRfu::make_config_blob(cfgns::kCryptoDes, mc.key));
        break;
    }
  }
  // Header format descriptors.
  for (u8 s : {cfgns::kProtoWifi, cfgns::kProtoUwb, cfgns::kProtoWimax}) {
    rmem_.load_blob(rfu::kHeaderRfu, s, rfu::HeaderRfu::make_config_blob(s));
  }
  // ARQ window parameters.
  rmem_.load_blob(rfu::kArqRfu, cfgns::kDefaultState, rfu::ArqRfu::make_config_blob());
  // Classifier rules: flow meta 1 -> the WiMAX mode's basic CID.
  std::vector<rfu::ClassifierRfu::Rule> rules;
  for (const auto& mc : cfg_.modes) {
    if (mc.enabled && mc.ident.proto == mac::Protocol::WiMax) {
      rules.push_back({1, mc.ident.basic_cid});
    }
  }
  rmem_.load_blob(rfu::kClassifierRfu, cfgns::kDefaultState,
                  rfu::ClassifierRfu::make_config_blob(rules));
}

void DrmpDevice::build_rfus(sim::Scheduler& /*sched*/) {
  rfu::Rfu::Env env;
  env.bus = bus_.get();
  env.rmem = &rmem_;
  env.timebase = &tb_;

  crypto_ = std::make_unique<rfu::CryptoRfu>(env);
  hdr_check_ = std::make_unique<rfu::HdrCheckRfu>(env);
  fcs_ = std::make_unique<rfu::FcsRfu>(env);
  frag_ = std::make_unique<rfu::FragRfu>(env);
  defrag_ = std::make_unique<rfu::DefragRfu>(env);
  header_ = std::make_unique<rfu::HeaderRfu>(env);
  tx_ = std::make_unique<rfu::TxRfu>(env);
  rx_ = std::make_unique<rfu::RxRfu>(env);
  ack_ = std::make_unique<rfu::AckRfu>(env);
  backoff_ = std::make_unique<rfu::BackoffRfu>(env);
  pack_ = std::make_unique<rfu::PackRfu>(env);
  arq_ = std::make_unique<rfu::ArqRfu>(env);
  classifier_ = std::make_unique<rfu::ClassifierRfu>(env);
  seq_ = std::make_unique<rfu::SeqRfu>(env);

  // Hard-wired connections (secondary triggers, buffers, media).
  std::array<phy::TxBuffer*, kNumModes> txb{};
  std::array<phy::RxBuffer*, kNumModes> rxb{};
  for (std::size_t i = 0; i < kNumModes; ++i) {
    txb[i] = &tx_bufs_[i];
    rxb[i] = &rx_bufs_[i];
  }
  tx_->wire(fcs_.get(), txb, &tb_, rx_.get());
  rx_->wire(fcs_.get(), rxb);
  ack_->wire(rx_.get(), txb, &tb_);
  backoff_->seed(cfg_.backoff_seed);

  // Sequence moduli per mode: WiFi 4096 (12-bit), UWB 512 (9-bit),
  // WiMAX 64 (6-bit FSN).
  for (std::size_t i = 0; i < kNumModes; ++i) {
    if (!cfg_.modes[i].enabled) continue;
    switch (cfg_.modes[i].ident.proto) {
      case mac::Protocol::WiFi: seq_->set_modulus(i, 4096); break;
      case mac::Protocol::Uwb: seq_->set_modulus(i, 512); break;
      case mac::Protocol::WiMax: seq_->set_modulus(i, 64); break;
    }
  }

  all_rfus_ = {crypto_.get(), hdr_check_.get(), fcs_.get(),       frag_.get(),
               defrag_.get(), header_.get(),    tx_.get(),        rx_.get(),
               ack_.get(),    backoff_.get(),   pack_.get(),      arq_.get(),
               classifier_.get(), seq_.get()};
  for (rfu::Rfu* r : all_rfus_) irc_->register_rfu(r);
}

void DrmpDevice::attach_medium(Mode m, phy::Medium* medium) {
  const std::size_t i = index(m);
  media_[i] = medium;
  phy_txs_[i] = std::make_unique<phy::PhyTx>(tx_bufs_[i], *medium, station_id_);
  phy_rxs_[i] = std::make_unique<phy::PhyRx>(rx_bufs_[i], station_id_);
  medium->attach(*phy_rxs_[i], station_id_);
  tx_bufs_[i].bind_arena(&medium->frame_arena());  // Recycle retired frames.
  event_handler_->attach_medium(m, medium);  // NAV reservations need its clock.
  sched_->add(*phy_txs_[i], "phy_tx." + std::string(to_string(m)));
  phy::PhyTx* ptx = phy_txs_[i].get();
  tx_bufs_[i].on_push = [ptx] { ptx->wake_self(); };  // Quiescence wake.
  std::array<const mac::NavTimer*, kNumModes> navs{};
  std::array<bool, kNumModes> eifs{};
  for (std::size_t mi = 0; mi < kNumModes; ++mi) {
    navs[mi] = &navs_[mi];
    navs_[mi].subscribe(*backoff_);  // NAV arms (and resets) invalidate sleeps.
    eifs[mi] = cfg_.modes[mi].enabled && cfg_.modes[mi].ident.eifs_enabled;
  }
  backoff_->wire(media_, &tb_, navs, station_id_, eifs);
}

void DrmpDevice::set_flight_recorder(obs::FlightRecorder* rec, u16 track) {
  backoff_->set_recorder(rec, track);
  for (std::size_t i = 0; i < kNumModes; ++i) {
    navs_[i].set_recorder(rec, track);
    if (phy_txs_[i] != nullptr) phy_txs_[i]->set_recorder(rec, track);
  }
}

sim::StatsRegistry DrmpDevice::stats() {
  sim::StatsRegistry s;
  s.add("cpu", cpu_->busy_counter());
  s.add("event_handler", event_handler_->busy_counter());
  irc::ReconfController& rc = irc_->rc();
  s.add("irc.rc", rc.busy_counter());
  s.add("irc.rc", rc.occupancy());
  for (Mode m : {Mode::A, Mode::B, Mode::C}) {
    irc::TaskHandler& h = irc_->handler(m);
    for (irc::ThKind k : {irc::ThKind::ThR, irc::ThKind::ThM}) {
      const std::string name =
          std::string(k == irc::ThKind::ThR ? "irc.thr." : "irc.thm.") + to_string(m);
      s.add(name, h.busy_counter(k));
      s.add(name, h.occupancy(k));
    }
  }
  s.add("packet_bus", bus_->busy_counter());
  for (rfu::Rfu* r : all_rfus_) s.add("rfu." + r->name(), r->busy_counter());
  return s;
}

void DrmpDevice::host_send(Mode m, Bytes msdu) {
  assert(ctrls_[index(m)] != nullptr && "host_send on a disabled mode");
  ctrls_[index(m)]->host_enqueue(std::move(msdu));
}


template <class Ar>
void DrmpDevice::persist_device(Ar& ar) {
  using sim::snap::close_record;
  using sim::snap::open_record;
  open_record(ar, "mem");
  ar.io(mem_);
  close_record(ar);
  open_record(ar, "stats");
  sim::StatsRegistry view = stats();
  ar.io(view);
  close_record(ar);
  open_record(ar, "bus");
  ar.io(*bus_);
  close_record(ar);
  open_record(ar, "irc");
  ar.io(*irc_);
  close_record(ar);
  open_record(ar, "cpu");
  ar.io(*cpu_);
  close_record(ar);
  open_record(ar, "api");
  ar.io(*api_);
  close_record(ar);
  open_record(ar, "event_handler");
  ar.io(*event_handler_);
  close_record(ar);
  open_record(ar, "phy");
  ar.io(tx_bufs_);
  ar.io(rx_bufs_);
  for (std::size_t i = 0; i < kNumModes; ++i) {
    if (phy_txs_[i] != nullptr) ar.io(*phy_txs_[i]);
    if (phy_rxs_[i] != nullptr) ar.io(*phy_rxs_[i]);
  }
  ar.io(navs_);
  close_record(ar);
  open_record(ar, "rfus");
  for (rfu::Rfu* r : all_rfus_) {
    if constexpr (Ar::kLoading) {
      r->load_state(ar);
    } else {
      r->save_state(ar);
    }
  }
  close_record(ar);
  open_record(ar, "ctrl");
  for (auto& c : ctrls_) {
    if (c == nullptr) continue;
    if constexpr (Ar::kLoading) {
      c->load_state(ar);
    } else {
      c->save_state(ar);
    }
  }
  close_record(ar);
}

void DrmpDevice::save_state(sim::snap::Writer& w) { persist_device(w); }

void DrmpDevice::load_state(sim::snap::Reader& r) { persist_device(r); }

}  // namespace drmp
