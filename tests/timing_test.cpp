// 802.11 timing-conformance tests (EIFS, SIFS-spaced fragment bursts,
// CF-End NAV truncation, the arm-time SIFS anchor): the receive-quality
// reference on the media, the BackoffRfu's EIFS defer state, duration
// chaining across fragment bursts, digest equality of the new paths across
// worker pools and idle-skip, and the flags-off pins that freeze the
// historic (PR-3/PR-4) timelines bit-identically.
#include <gtest/gtest.h>

#include "drmp/testbench.hpp"
#include "mac/wifi_frames.hpp"
#include "net/contended_medium.hpp"
#include "scenario/scenario_engine.hpp"

namespace drmp {
namespace {

Bytes payload(std::size_t n, u8 seed = 1) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<u8>(i * 11 + seed);
  return b;
}

// ---------------------------------------------------------------------------
// EIFS: the receive-quality reference on the medium.
// ---------------------------------------------------------------------------

struct Sink : phy::MediumClient {
  std::vector<Bytes> frames;
  void on_frame(const Bytes& f, Cycle, int) override { frames.push_back(f); }
};

TEST(EifsReference, CollisionMarksListenersUntilCleanReception) {
  sim::TimeBase tb(200e6);
  sim::Scheduler sched(200e6);
  net::ContendedMedium m(mac::Protocol::WiFi, tb);
  m.track_rx_quality();  // What BackoffRfu::wire does for EIFS modes.
  Sink sink;
  m.attach(sink, 7);  // Listener id 7: the station whose CCA we model.
  sched.add(m, "medium", sim::Scheduler::kStageMedium);

  EXPECT_FALSE(m.eifs_pending(7));
  m.begin_tx(payload(300, 1), 1);
  sched.run_cycles(100);  // Inside the collision window.
  const Cycle end2 = m.begin_tx(payload(300, 2), 2);
  sched.run_cycles(end2 + m.cca_latency_cycles() + 2 - sched.now());
  // Both frames were dropped as noise — but listener 7 heard undecodable
  // energy: EIFS applies until something clean arrives.
  EXPECT_TRUE(m.eifs_pending(7));
  EXPECT_FALSE(m.eifs_pending(1)) << "a transmitter receives nothing of its own";

  const Cycle end3 = m.begin_tx(payload(120, 3), 1);
  sched.run_cycles(end3 + m.cca_latency_cycles() + 2 - sched.now());
  EXPECT_FALSE(m.eifs_pending(7)) << "a clean reception cancels EIFS";
}

TEST(EifsReference, GarbledDeliveryAndTamperAlsoMark) {
  sim::TimeBase tb(200e6);
  sim::Scheduler sched(200e6);
  net::ContendedMedium::Params p;
  p.deliver_garbled = true;
  net::ContendedMedium m(mac::Protocol::WiFi, tb, p);
  m.track_rx_quality();
  Sink sink;
  m.attach(sink, 7);
  sched.add(m, "medium", sim::Scheduler::kStageMedium);

  m.begin_tx(payload(200, 1), 1);
  sched.run_cycles(50);
  const Cycle end2 = m.begin_tx(payload(200, 2), 2);
  sched.run_cycles(end2 + m.cca_latency_cycles() + 2 - sched.now());
  EXPECT_EQ(sink.frames.size(), 2u) << "garbled mode still delivers";
  EXPECT_TRUE(m.eifs_pending(7));

  // A clean-on-air frame the channel injector corrupts is equally damaged.
  m.tamper = [](Bytes& f) {
    f[0] ^= 0xFF;
    return true;
  };
  const Cycle end3 = m.begin_tx(payload(150, 3), 1);
  sched.run_cycles(end3 + m.cca_latency_cycles() + 2 - sched.now());
  EXPECT_TRUE(m.eifs_pending(7)) << "tampered reception keeps EIFS pending";
}

// A contended cell with garbled delivery and EIFS honoured end-to-end: the
// access RFUs actually stretch their pre-contention waits, every MSDU still
// completes, and the timeline is invariant across worker pools and
// idle-skip (the quiescence-bound half of the EIFS contract).
scenario::ScenarioSpec eifs_cell(unsigned workers, bool idle_skip) {
  scenario::ScenarioSpec spec =
      scenario::ScenarioSpec::contended_wifi_cell(4, /*seed=*/11,
                                                  /*msdus_per_station=*/3);
  spec.cells[0].contention.deliver_garbled = true;
  for (auto& d : spec.cells[0].stations) {
    d.cfg.modes[0].ident.eifs_enabled = true;
  }
  spec.worker_threads = workers;
  spec.idle_skip = idle_skip;
  return spec;
}

TEST(EifsCell, DamagedReceptionsStretchDefersAndStillDrain) {
  const scenario::FleetStats fs =
      scenario::ScenarioEngine(eifs_cell(1, true)).run();
  ASSERT_TRUE(fs.all_drained);
  EXPECT_GT(fs.total_collisions(), 0u) << "the cell must actually contend";
  EXPECT_GT(fs.total_eifs_waits(), 0u)
      << "garbled deliveries must stretch some pre-contention waits to EIFS";
  for (const scenario::DeviceStats& ds : fs.devices) {
    EXPECT_EQ(ds.completed[0], ds.offered[0]) << "station " << ds.station_id;
  }
}

TEST(EifsCell, DigestsInvariantAcrossWorkersAndIdleSkip) {
  const u64 serial =
      scenario::ScenarioEngine(eifs_cell(1, true)).run().full_digest();
  const u64 pool =
      scenario::ScenarioEngine(eifs_cell(0, true)).run().full_digest();
  const u64 ticked =
      scenario::ScenarioEngine(eifs_cell(1, false)).run().full_digest();
  EXPECT_EQ(serial, pool);
  EXPECT_EQ(serial, ticked);
}

// ---------------------------------------------------------------------------
// CF-End: NAV truncation with a wake edge.
// ---------------------------------------------------------------------------

DrmpConfig nav_config() {
  DrmpConfig cfg = DrmpConfig::standard_three_mode();
  cfg.modes[0].ident.nav_enabled = true;
  return cfg;
}

TEST(CfEndNav, CfEndResetsAnArmedReservation) {
  Testbench tb(nav_config());
  const auto& id = tb.config().modes[0].ident;
  // An overheard RTS addressed elsewhere arms a long reservation.
  const Bytes rts = mac::wifi::build_rts(mac::MacAddr::from_u64(0xDEADBEEF),
                                         mac::MacAddr::from_u64(id.peer_addr),
                                         /*duration_us=*/5000);
  tb.peer(Mode::A).inject_frame(rts, tb.scheduler().now() + 100);
  ASSERT_TRUE(tb.run_until([&] { return tb.device().nav(Mode::A).arms() > 0; },
                           10'000'000ull));
  const auto& nav = tb.device().nav(Mode::A);
  EXPECT_TRUE(nav.active(tb.medium(Mode::A).now()));
  const Cycle armed_expiry = nav.expiry();
  EXPECT_GT(armed_expiry, tb.medium(Mode::A).now());

  // The point coordinator broadcasts CF-End: the reservation is void now.
  const Bytes cf_end = mac::wifi::build_cf_end(
      mac::MacAddr::from_u64(0xFFFFFFFFFFFFull),
      mac::MacAddr::from_u64(id.peer_addr), /*with_ack=*/false);
  tb.peer(Mode::A).inject_frame(cf_end, tb.scheduler().now() + 50);
  ASSERT_TRUE(
      tb.run_until([&] { return tb.device().nav(Mode::A).resets() > 0; },
                   10'000'000ull));
  EXPECT_EQ(nav.resets(), 1u);
  EXPECT_LE(nav.expiry(), tb.medium(Mode::A).now())
      << "the reservation must be truncated at the reset, not run out";
  EXPECT_FALSE(nav.active(tb.medium(Mode::A).now()));
  EXPECT_LT(nav.expiry(), armed_expiry);
}

TEST(CfEndNav, GarbledCfEndDoesNotReset) {
  Testbench tb(nav_config());
  const auto& id = tb.config().modes[0].ident;
  const Bytes rts = mac::wifi::build_rts(mac::MacAddr::from_u64(0xDEADBEEF),
                                         mac::MacAddr::from_u64(id.peer_addr), 5000);
  tb.peer(Mode::A).inject_frame(rts, tb.scheduler().now() + 100);
  ASSERT_TRUE(tb.run_until([&] { return tb.device().nav(Mode::A).arms() > 0; },
                           10'000'000ull));
  Bytes cf_end = mac::wifi::build_cf_end(mac::MacAddr::from_u64(0xFFFFFFFFFFFFull),
                                         mac::MacAddr::from_u64(id.peer_addr), false);
  cf_end[5] ^= 0x10;  // FCS now fails: the truncation must not be honoured.
  tb.peer(Mode::A).inject_frame(cf_end, tb.scheduler().now() + 50);
  tb.run_cycles(2'000'000);
  EXPECT_EQ(tb.device().nav(Mode::A).resets(), 0u);
}

// A deferrer sleeping against the reservation expiry must re-evaluate on the
// CF-End wake edge: quiescence-skipping and every-tick execution must
// play the identical timeline through arm -> truncate ->
// re-contend.
TEST(CfEndNav, BatchedMatchesEveryTickThroughNavTruncation) {
  auto run = [](bool skip) {
    Testbench tb(nav_config());
    tb.scheduler().set_idle_skip(skip);
    const auto& id = tb.config().modes[0].ident;
    // Arm a reservation far longer than the workload needs, queue an MSDU
    // (it defers on the NAV), then truncate with CF-End and let it finish.
    const Bytes rts = mac::wifi::build_rts(mac::MacAddr::from_u64(0xDEADBEEF),
                                           mac::MacAddr::from_u64(id.peer_addr),
                                           /*duration_us=*/30000);
    tb.peer(Mode::A).inject_frame(rts, 2000);
    tb.run_cycles(40'000);  // RTS on the air, NAV armed at its end.
    tb.send_async(Mode::A, payload(320, 3));
    tb.run_cycles(400'000);  // The access RFU defers against the reservation.
    const Bytes cf_end =
        mac::wifi::build_cf_end(mac::MacAddr::from_u64(0xFFFFFFFFFFFFull),
                                mac::MacAddr::from_u64(id.peer_addr), false);
    tb.peer(Mode::A).inject_frame(cf_end, tb.scheduler().now() + 100);
    tb.run_cycles(3'000'000);
    sim::Digest d;
    d.mix(tb.device().nav(Mode::A).arms())
        .mix(tb.device().nav(Mode::A).resets())
        .mix(tb.device().nav(Mode::A).expiry())
        .mix(tb.device().backoff_rfu().nav_defers())
        .mix(tb.device().backoff_rfu().defers())
        .mix(tb.tx_successes(Mode::A))
        .mix(tb.device().phy_tx(Mode::A)->frames_sent())
        .mix(tb.device().phy_tx(Mode::A)->last_tx_start())
        .mix(tb.scheduler().now());
    return d.value();
  };
  EXPECT_EQ(run(false), run(true));
}

// ---------------------------------------------------------------------------
// SIFS-spaced fragment bursts.
// ---------------------------------------------------------------------------

DrmpConfig burst_config(bool burst, u32 frag_threshold = 256) {
  DrmpConfig cfg = DrmpConfig::standard_three_mode();
  cfg.modes[0].ident.frag_threshold = frag_threshold;
  cfg.modes[0].ident.frag_burst_enabled = burst;
  return cfg;
}

// Records every frame end on the medium so the test can reconstruct the
// burst's inter-frame spacing.
struct AirLog : phy::MediumClient {
  struct Entry {
    std::size_t bytes;
    Cycle end;
  };
  std::vector<Entry> entries;
  void on_frame(const Bytes& f, Cycle end, int) override {
    entries.push_back({f.size(), end});
  }
};

TEST(FragBurst, FollowOnFragmentsFlySifsSpaced) {
  Testbench tb(burst_config(true));
  AirLog log;
  tb.medium(Mode::A).attach(log);
  const auto out = tb.send_and_wait(Mode::A, payload(900), 2'000'000'000ull);
  ASSERT_TRUE(out.completed);
  EXPECT_TRUE(out.success);
  ASSERT_EQ(tb.peer(Mode::A).received_data_frames().size(), 4u);  // ceil(900/256).

  // Air sequence: D0 A0 D1 A1 D2 A2 D3 A3. Each follow-on fragment must
  // start within the perishable-response window of its releasing ACK —
  // SIFS-anchored, never a fresh DIFS+backoff contention round.
  const auto& t = tb.medium(Mode::A).timing();
  const Cycle difs = tb.device().timebase().us_to_cycles(t.difs_us);
  const Cycle sifs = tb.device().timebase().us_to_cycles(t.sifs_us);
  ASSERT_EQ(log.entries.size(), 8u);
  for (std::size_t i = 2; i < 8; i += 2) {  // D1, D2, D3.
    const Cycle ack_end = log.entries[i - 1].end;
    const Cycle frag_start =
        log.entries[i].end - tb.medium(Mode::A).frame_air_cycles(log.entries[i].bytes);
    EXPECT_GE(frag_start, ack_end + sifs) << "fragment " << i / 2;
    EXPECT_LT(frag_start, ack_end + difs)
        << "fragment " << i / 2
        << " re-contended (DIFS elapsed) instead of riding its SIFS anchor";
  }
}

TEST(FragBurst, FlagOffKeepsPerFragmentContention) {
  Testbench tb(burst_config(false));
  AirLog log;
  tb.medium(Mode::A).attach(log);
  const auto out = tb.send_and_wait(Mode::A, payload(900), 2'000'000'000ull);
  ASSERT_TRUE(out.completed);
  EXPECT_TRUE(out.success);
  ASSERT_EQ(log.entries.size(), 8u);
  // Follow-on fragments wait at least DIFS after the ACK (plus backoff):
  // the historic re-contention, pinned so the default stays the default.
  const auto& t = tb.medium(Mode::A).timing();
  const Cycle difs = tb.device().timebase().us_to_cycles(t.difs_us);
  for (std::size_t i = 2; i < 8; i += 2) {
    const Cycle ack_end = log.entries[i - 1].end;
    const Cycle frag_start =
        log.entries[i].end - tb.medium(Mode::A).frame_air_cycles(log.entries[i].bytes);
    EXPECT_GE(frag_start, ack_end + difs) << "fragment " << i / 2;
  }
}

TEST(FragBurst, DurationFieldsChainTheNav) {
  Testbench tb(burst_config(true));
  AirLog log;
  tb.medium(Mode::A).attach(log);
  std::vector<u16> data_durations;
  struct DurLog : phy::MediumClient {
    std::vector<u16>* out;
    void on_frame(const Bytes& f, Cycle, int) override {
      if (const auto mpdu = mac::wifi::parse_data_mpdu(f)) {
        out->push_back(mpdu->hdr.duration_us);
      }
    }
  } durlog;
  durlog.out = &data_durations;
  tb.medium(Mode::A).attach(durlog);
  const auto out = tb.send_and_wait(Mode::A, payload(900), 2'000'000'000ull);
  ASSERT_TRUE(out.completed);
  ASSERT_EQ(data_durations.size(), 4u);
  const auto t = mac::timing_for(mac::Protocol::WiFi);
  const double ack_air_us = mac::wifi::ack_air_us(t);
  // Mid-burst fragments reserve through the next fragment's ACK; the final
  // fragment only through its own ACK.
  for (std::size_t i = 0; i + 1 < data_durations.size(); ++i) {
    EXPECT_GT(data_durations[i], 3.0 * t.sifs_us + 2.0 * ack_air_us)
        << "fragment " << i << " must chain past the next fragment";
  }
  EXPECT_LE(data_durations.back(), static_cast<u16>(t.sifs_us + ack_air_us + 1.0));
  EXPECT_NE(data_durations.front(), 150u) << "not the legacy rough figure";
}

// The contended fragment-burst workload: digest equality across worker
// pools and idle-skip (the new SIFS-anchored path rides the PR-3/PR-4
// quiescence machinery), plus the headline ordering — SIFS-spaced bursts
// collide less than per-fragment re-contention on the same cell.
scenario::FleetStats run_fragmented(bool burst, unsigned workers, bool idle_skip) {
  scenario::ScenarioSpec spec = scenario::ScenarioSpec::contended_wifi_fragmented(
      4, burst, /*seed=*/5, /*msdus_per_station=*/3);
  spec.worker_threads = workers;
  spec.idle_skip = idle_skip;
  return scenario::ScenarioEngine(std::move(spec)).run();
}

TEST(FragBurstCell, BurstReducesMidBurstCollisions) {
  const scenario::FleetStats per_fragment = run_fragmented(false, 1, true);
  const scenario::FleetStats burst = run_fragmented(true, 1, true);
  ASSERT_TRUE(per_fragment.all_drained);
  ASSERT_TRUE(burst.all_drained);
  EXPECT_GT(per_fragment.total_collisions(), 0u)
      << "per-fragment re-contention must actually collide here";
  EXPECT_LT(burst.total_collisions(), per_fragment.total_collisions())
      << "holding the medium across the burst must cut mid-burst collisions";
  for (const scenario::DeviceStats& ds : burst.devices) {
    EXPECT_EQ(ds.completed[0], ds.offered[0]) << "station " << ds.station_id;
  }
}

TEST(FragBurstCell, DigestsInvariantAcrossWorkersAndIdleSkip) {
  const u64 serial = run_fragmented(true, 1, true).full_digest();
  const u64 pool = run_fragmented(true, 0, true).full_digest();
  const u64 ticked = run_fragmented(true, 1, false).full_digest();
  EXPECT_EQ(serial, pool);
  EXPECT_EQ(serial, ticked);
}

// ---------------------------------------------------------------------------
// Flags off: the historic timelines are pinned bit-identically.
// ---------------------------------------------------------------------------

// Golden digests captured from the PR-4 tree (the seed of this change).
// Every timing-conformance feature is flag-gated off by default, so the
// canonical PR-4 workloads must reproduce these digests bit-for-bit. If a
// refactor legitimately changes them, re-derive the constants — but that is
// a digest-visible change and the commit must say so.
TEST(FlagsOff, CanonicalContendedCellDigestIsBitIdentical) {
  const scenario::FleetStats fs =
      scenario::ScenarioEngine(scenario::ScenarioSpec::contended_wifi_cell(4, 1, 3))
          .run();
  EXPECT_EQ(fs.full_digest(), 0x215632c897c55d3dull);
}

TEST(FlagsOff, MixedThreeStandardFleetDigestIsBitIdentical) {
  const scenario::FleetStats fs =
      scenario::ScenarioEngine(scenario::ScenarioSpec::mixed_three_standard(8, 1, 2))
          .run();
  EXPECT_EQ(fs.full_digest(), 0x7a40977437a44782ull);
}

}  // namespace
}  // namespace drmp
