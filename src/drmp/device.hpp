// DrmpDevice — the full DRMP SoC assembly (thesis Fig. 3.2 / Fig. 3.3):
// packet & reconfiguration memories, the single packet bus with its arbiter,
// the IRC with its seven controllers, the heterogeneous RFU pool, the per-
// mode translational buffers and PHY pipes, the Event Handler, the
// interrupt-driven CPU with the three protocol controllers, and the cDRMP
// programming API.
#pragma once

#include <array>
#include <memory>

#include "cpu/cpu_model.hpp"
#include "drmp/api.hpp"
#include "drmp/event_handler.hpp"
#include "hw/bus.hpp"
#include "hw/packet_memory.hpp"
#include "hw/reconfig_memory.hpp"
#include "irc/irc.hpp"
#include "mac/ctrl_common.hpp"
#include "mac/nav.hpp"
#include "phy/buffers.hpp"
#include "phy/phy_model.hpp"
#include "rfu/ack_rfu.hpp"
#include "rfu/arq_rfu.hpp"
#include "rfu/backoff_rfu.hpp"
#include "rfu/classifier_rfu.hpp"
#include "rfu/crc_rfus.hpp"
#include "rfu/crypto_rfu.hpp"
#include "rfu/defrag_rfu.hpp"
#include "rfu/frag_rfu.hpp"
#include "rfu/header_rfu.hpp"
#include "rfu/pack_rfu.hpp"
#include "rfu/rx_rfu.hpp"
#include "rfu/seq_rfu.hpp"
#include "rfu/tx_rfu.hpp"
#include "sim/scheduler.hpp"
#include "sim/stats.hpp"

namespace drmp {

struct ModeConfig {
  bool enabled = false;
  ctrl::ModeIdentity ident;
  Bytes key;  ///< Cipher key for this mode's protocol.
};

struct DrmpConfig {
  double arch_freq_hz = 200e6;  ///< Prototype frequency (thesis §5.4).
  double cpu_freq_hz = 40e6;
  /// §4.1.1 priority option: let a higher-priority mode's interrupt pre-empt
  /// a running lower-priority handler. Off in the thesis prototype.
  bool cpu_preemptive = false;
  /// Table 3.4 PrQreq option: freed RFUs wake the most urgent queued mode
  /// instead of the oldest. Off (FCFS) in the thesis prototype.
  bool rfu_queue_priority = false;
  u16 backoff_seed = 0xACE1;
  std::array<ModeConfig, kNumModes> modes{};

  /// The thesis prototype assignment: mode A = WiFi, B = WiMAX, C = UWB,
  /// with era-typical parameters.
  static DrmpConfig standard_three_mode();

  /// Derives the per-station variant of this config for fleet simulations:
  /// unique medium identities (WiFi MAC addresses, UWB piconet/device ids,
  /// WiMAX CIDs), a decorrelated backoff PRNG seed, and staggered TDMA
  /// allocations, all as pure functions of `station_id` so a fleet of any
  /// size is reproducible. `station_id` must be >= 1.
  DrmpConfig for_station(int station_id) const;
};

class DrmpDevice {
 public:
  /// `station_id` identifies this device on shared media.
  DrmpDevice(sim::Scheduler& sched, DrmpConfig cfg, int station_id);

  /// Connects a mode to its radio channel. Must be called for every enabled
  /// mode before traffic flows.
  void attach_medium(Mode m, phy::Medium* medium);

  // ---- Host-facing API ----
  void host_send(Mode m, Bytes msdu);
  std::function<void(Mode, const Bytes&)> on_deliver;
  std::function<void(Mode, bool success, u32 retries)> on_tx_complete;

  // ---- Introspection ----
  hw::PacketMemory& memory() { return mem_; }
  hw::ReconfigMemory& reconfig_memory() { return rmem_; }
  hw::PacketBus& bus() { return *bus_; }
  irc::Irc& irc() { return *irc_; }
  cpu::CpuModel& cpu() { return *cpu_; }
  EventHandler& event_handler() { return *event_handler_; }
  api::cDRMP& api() { return *api_; }
  ctrl::ProtocolCtrl& protocol_ctrl(Mode m) { return *ctrls_[index(m)]; }
  /// Every busy counter and occupancy of the device by name ("cpu",
  /// "event_handler", "irc.rc", "irc.thr.A", "irc.thm.A", ..., "packet_bus",
  /// "rfu.<name>"), built on each call. The view points into the
  /// components: keep it in a variable, and no longer than the device.
  sim::StatsRegistry stats();
  const sim::TimeBase& timebase() const { return tb_; }
  const DrmpConfig& config() const { return cfg_; }
  int station_id() const { return station_id_; }

  phy::TxBuffer& tx_buffer(Mode m) { return tx_bufs_[index(m)]; }
  phy::RxBuffer& rx_buffer(Mode m) { return rx_bufs_[index(m)]; }
  phy::PhyTx* phy_tx(Mode m) { return phy_txs_[index(m)].get(); }
  /// Per-mode NAV (virtual carrier sense) timer; armed by the Event Handler
  /// when the mode's ident.nav_enabled, consulted by the BackoffRfu.
  const mac::NavTimer& nav(Mode m) const { return navs_[index(m)]; }

  // RFU access for tests/benches.
  rfu::CryptoRfu& crypto_rfu() { return *crypto_; }
  rfu::HdrCheckRfu& hdr_check_rfu() { return *hdr_check_; }
  rfu::FcsRfu& fcs_rfu() { return *fcs_; }
  rfu::FragRfu& frag_rfu() { return *frag_; }
  rfu::DefragRfu& defrag_rfu() { return *defrag_; }
  rfu::HeaderRfu& header_rfu() { return *header_; }
  rfu::TxRfu& tx_rfu() { return *tx_; }
  rfu::RxRfu& rx_rfu() { return *rx_; }
  rfu::AckRfu& ack_rfu() { return *ack_; }
  rfu::BackoffRfu& backoff_rfu() { return *backoff_; }
  rfu::PackRfu& pack_rfu() { return *pack_; }
  rfu::ArqRfu& arq_rfu() { return *arq_; }
  rfu::ClassifierRfu& classifier_rfu() { return *classifier_; }
  rfu::SeqRfu& seq_rfu() { return *seq_; }

  /// All RFUs, for generic iteration (busy statistics, Table 5.1/5.2 rows).
  const std::vector<rfu::Rfu*>& rfus() const { return all_rfus_; }

  /// Routes this device's protocol-edge events (NAV arm/reset, backoff
  /// defers/EIFS, frame expiries) onto one flight-recorder track. Call after
  /// every enabled mode's attach_medium; null detaches.
  void set_flight_recorder(obs::FlightRecorder* rec, u16 track);
  /// Logs every task handler's statecharts onto `rec`'s signal tracks
  /// "thr.<mode>" and "thm.<mode>" (Figs. 5.5-5.7), each opening with its
  /// chart's state at the attach cycle; null detaches. Fleet cells attach
  /// none.
  void attach_signals(obs::FlightRecorder* rec);

  // ---- Checkpoint support (sim/checkpoint.hpp) ----
  /// Serializes every mutable component of the SoC as nested named records
  /// (memory, stats, bus, IRC complex, CPU, API, event handler, PHY side,
  /// RFU pool, protocol controls). Legal only at a quiescent round edge;
  /// the shared medium is checkpointed by the owning Cell, not here.
  void save_state(sim::snap::Writer& w);
  void load_state(sim::snap::Reader& r);

 private:
  void build_rfus(sim::Scheduler& sched);
  void load_reconfig_blobs();
  template <class Ar>
  void persist_device(Ar& ar);

  DrmpConfig cfg_;
  int station_id_;
  sim::TimeBase tb_;

  hw::PacketMemory mem_;
  hw::ReconfigMemory rmem_;
  std::unique_ptr<hw::PacketBus> bus_;
  std::unique_ptr<irc::Irc> irc_;
  std::unique_ptr<cpu::CpuModel> cpu_;
  std::unique_ptr<api::cDRMP> api_;
  std::unique_ptr<EventHandler> event_handler_;

  std::array<phy::TxBuffer, kNumModes> tx_bufs_;
  std::array<phy::RxBuffer, kNumModes> rx_bufs_;
  std::array<std::unique_ptr<phy::PhyTx>, kNumModes> phy_txs_;
  std::array<std::unique_ptr<phy::PhyRx>, kNumModes> phy_rxs_;
  std::array<phy::Medium*, kNumModes> media_{};
  std::array<mac::NavTimer, kNumModes> navs_;
  sim::Scheduler* sched_ = nullptr;

  std::unique_ptr<rfu::CryptoRfu> crypto_;
  std::unique_ptr<rfu::HdrCheckRfu> hdr_check_;
  std::unique_ptr<rfu::FcsRfu> fcs_;
  std::unique_ptr<rfu::FragRfu> frag_;
  std::unique_ptr<rfu::DefragRfu> defrag_;
  std::unique_ptr<rfu::HeaderRfu> header_;
  std::unique_ptr<rfu::TxRfu> tx_;
  std::unique_ptr<rfu::RxRfu> rx_;
  std::unique_ptr<rfu::AckRfu> ack_;
  std::unique_ptr<rfu::BackoffRfu> backoff_;
  std::unique_ptr<rfu::PackRfu> pack_;
  std::unique_ptr<rfu::ArqRfu> arq_;
  std::unique_ptr<rfu::ClassifierRfu> classifier_;
  std::unique_ptr<rfu::SeqRfu> seq_;
  std::vector<rfu::Rfu*> all_rfus_;

  std::array<std::unique_ptr<ctrl::ProtocolCtrl>, kNumModes> ctrls_{};
};

}  // namespace drmp
