// WiFi PCF tests (§2.3.2.1 commonalities #5 "Polling Access", #8
// "Superframes" and #11 "Piggybacking of ACKs"): the scripted peer acts as
// point coordinator running a contention-free period; the DRMP station
// answers CF-Polls with data or Null frames through the PcfRespond access
// path, and uplink data is acknowledged only by piggybacked CF-Acks.
#include <gtest/gtest.h>

#include "drmp/testbench.hpp"
#include "mac/wifi_ctrl.hpp"
#include "mac/wifi_frames.hpp"
#include "sim/stats.hpp"

namespace drmp {
namespace {

Bytes payload(std::size_t n, u8 seed = 1) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<u8>(i * 5 + seed);
  return b;
}

DrmpConfig pcf_config(u32 frag_threshold = 1024) {
  DrmpConfig cfg = DrmpConfig::standard_three_mode();
  cfg.modes[0].ident.pcf_poll_mode = true;
  cfg.modes[0].ident.frag_threshold = frag_threshold;
  return cfg;
}

ctrl::WifiCtrl& wifi(Testbench& tb) {
  return static_cast<ctrl::WifiCtrl&>(tb.device().protocol_ctrl(Mode::A));
}

mac::MacAddr station_addr(const Testbench& tb) {
  return mac::MacAddr::from_u64(tb.config().modes[0].ident.self_addr);
}

TEST(PcfTest, PolledStationSendsDataAckedByPiggyback) {
  Testbench tb(pcf_config());
  tb.send_async(Mode::A, payload(400));
  // Give the station time to prepare (seq+encrypt), then run a 3-poll CFP.
  tb.run_cycles(200'000);
  tb.peer(Mode::A).begin_cfp(tb.scheduler().now() + 1000, 3, 800.0, station_addr(tb));
  ASSERT_TRUE(tb.wait_tx_count(Mode::A, 1, 2'000'000'000ull));
  // Let the remainder of the CFP (polls 2-3, Null answers, CF-End) play out.
  ASSERT_TRUE(tb.run_until([&] { return !tb.peer(Mode::A).cfp_active(); },
                           2'000'000'000ull));
  tb.run_cycles(300'000);
  EXPECT_EQ(tb.tx_successes(Mode::A), 1u);
  EXPECT_EQ(tb.peer(Mode::A).cfp_data_received(), 1u);
  EXPECT_EQ(tb.peer(Mode::A).cfp_polls_sent(), 3u);
  // The acknowledgement was the piggybacked CF-Ack — no ACK frames at all.
  EXPECT_EQ(tb.peer(Mode::A).acks_sent(), 0u);
  EXPECT_GE(wifi(tb).cf_acks_received, 1u);
  EXPECT_EQ(wifi(tb).polls_answered_with_data, 1u);
  // Remaining polls after completion were answered with Null frames.
  EXPECT_GE(tb.peer(Mode::A).cfp_nulls_received(), 1u);
}

TEST(PcfTest, EmptyQueueAnswersEveryPollWithNull) {
  Testbench tb(pcf_config());
  tb.peer(Mode::A).begin_cfp(tb.scheduler().now() + 1000, 2, 600.0, station_addr(tb));
  ASSERT_TRUE(tb.run_until([&] { return !tb.peer(Mode::A).cfp_active(); },
                           1'000'000'000ull));
  tb.run_cycles(300'000);  // Let the last Null land.
  EXPECT_EQ(tb.peer(Mode::A).cfp_polls_sent(), 2u);
  EXPECT_EQ(tb.peer(Mode::A).cfp_nulls_received(), 2u);
  EXPECT_EQ(wifi(tb).polls_answered_with_null, 2u);
  EXPECT_EQ(wifi(tb).polls_answered_with_data, 0u);
}

TEST(PcfTest, FragmentedMsduSendsOneFragmentPerPoll) {
  Testbench tb(pcf_config(/*frag_threshold=*/512));
  tb.send_async(Mode::A, payload(1200));  // 3 fragments.
  tb.run_cycles(200'000);
  tb.peer(Mode::A).begin_cfp(tb.scheduler().now() + 1000, 5, 900.0, station_addr(tb));
  ASSERT_TRUE(tb.wait_tx_count(Mode::A, 1, 4'000'000'000ull));
  EXPECT_EQ(tb.tx_successes(Mode::A), 1u);
  EXPECT_EQ(tb.peer(Mode::A).cfp_data_received(), 3u);
  EXPECT_EQ(wifi(tb).polls_answered_with_data, 3u);
  EXPECT_GE(wifi(tb).cf_acks_received, 3u);
  EXPECT_EQ(tb.peer(Mode::A).acks_sent(), 0u);
}

TEST(PcfTest, BatchedSchedulingMatchesEveryTickThroughSifsResponse) {
  // The PCF response path is the last carrier-gated poll loop to receive a
  // quiescence bound (ROADMAP PR-3 follow-up): the BackoffRfu's
  // SifsResponse phase now sleeps against cca_idle_for()/cca_clear_at().
  // Drive the identical scripted CFP in every-tick mode and with idle-skip
  // on and require identical protocol outcomes and identical per-tick busy
  // accounting — the bit-identity contract.
  auto run = [](bool skip) {
    Testbench tb(pcf_config());
    tb.scheduler().set_idle_skip(skip);
    tb.send_async(Mode::A, payload(400));
    tb.run_cycles(200'000);
    tb.peer(Mode::A).begin_cfp(tb.scheduler().now() + 1000, 3, 800.0,
                               station_addr(tb));
    tb.run_cycles(2'000'000);  // Generous: the whole CFP plus the CF-End.
    sim::Digest d;
    d.mix(tb.tx_successes(Mode::A))
        .mix(tb.peer(Mode::A).cfp_data_received())
        .mix(tb.peer(Mode::A).cfp_nulls_received())
        .mix(tb.peer(Mode::A).cfp_polls_sent())
        .mix(wifi(tb).polls_answered_with_data)
        .mix(wifi(tb).polls_answered_with_null)
        .mix(wifi(tb).cf_acks_received)
        .mix(tb.device().backoff_rfu().busy_cycles())
        .mix(tb.device().backoff_rfu().last_wait_cycles())
        .mix(tb.scheduler().now());
    return d.value();
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(PcfTest, CfEndAckCompletesTheLastFragment) {
  // Exactly as many polls as fragments: the final fragment's CF-Ack arrives
  // piggybacked on the CF-End that closes the period.
  Testbench tb(pcf_config(/*frag_threshold=*/512));
  tb.send_async(Mode::A, payload(800));  // 2 fragments.
  tb.run_cycles(200'000);
  tb.peer(Mode::A).begin_cfp(tb.scheduler().now() + 1000, 2, 900.0, station_addr(tb));
  ASSERT_TRUE(tb.wait_tx_count(Mode::A, 1, 4'000'000'000ull));
  EXPECT_EQ(tb.tx_successes(Mode::A), 1u);
  EXPECT_EQ(tb.peer(Mode::A).cfp_data_received(), 2u);
  EXPECT_EQ(tb.peer(Mode::A).cfp_polls_sent(), 2u);
  EXPECT_EQ(wifi(tb).cf_acks_received, 2u);
}

TEST(PcfTest, PollsForAnotherStationAreIgnored) {
  Testbench tb(pcf_config());
  tb.send_async(Mode::A, payload(300));
  tb.run_cycles(200'000);
  tb.peer(Mode::A).begin_cfp(tb.scheduler().now() + 1000, 2, 600.0,
                             mac::MacAddr::from_u64(0xDEADBEEFCAFEull));
  ASSERT_TRUE(tb.run_until([&] { return !tb.peer(Mode::A).cfp_active(); },
                           1'000'000'000ull));
  tb.run_cycles(300'000);
  EXPECT_EQ(wifi(tb).polls_answered_with_data, 0u);
  EXPECT_EQ(wifi(tb).polls_answered_with_null, 0u);
  EXPECT_EQ(tb.peer(Mode::A).cfp_data_received(), 0u);
  // The station still holds its MSDU for a CFP that addresses it.
  EXPECT_EQ(wifi(tb).tx_state(), ctrl::WifiCtrl::kAwaitPoll);
}

TEST(PcfTest, SecondCfpDeliversTheHeldMsdu) {
  // Superframe behaviour (#8): a CFP that missed the station is followed by
  // another; the held MSDU goes out then.
  Testbench tb(pcf_config());
  tb.send_async(Mode::A, payload(300));
  tb.run_cycles(200'000);
  tb.peer(Mode::A).begin_cfp(tb.scheduler().now() + 1000, 1, 600.0,
                             mac::MacAddr::from_u64(0xDEADBEEFCAFEull));
  ASSERT_TRUE(tb.run_until([&] { return !tb.peer(Mode::A).cfp_active(); },
                           1'000'000'000ull));
  tb.peer(Mode::A).begin_cfp(tb.scheduler().now() + 200'000, 2, 800.0, station_addr(tb));
  ASSERT_TRUE(tb.wait_tx_count(Mode::A, 1, 2'000'000'000ull));
  EXPECT_EQ(tb.tx_successes(Mode::A), 1u);
  EXPECT_EQ(tb.peer(Mode::A).cfp_data_received(), 1u);
}

TEST(PcfTest, BackToBackMsdusAcrossPolls) {
  // After the first MSDU completes mid-CFP, the next one is prepared and
  // transmitted on a later poll of the same period.
  Testbench tb(pcf_config());
  tb.send_async(Mode::A, payload(300, 1));
  tb.send_async(Mode::A, payload(300, 2));
  tb.run_cycles(200'000);
  tb.peer(Mode::A).begin_cfp(tb.scheduler().now() + 1000, 6, 800.0, station_addr(tb));
  ASSERT_TRUE(tb.wait_tx_count(Mode::A, 2, 4'000'000'000ull));
  EXPECT_EQ(tb.tx_successes(Mode::A), 2u);
  EXPECT_EQ(tb.peer(Mode::A).cfp_data_received(), 2u);
  EXPECT_EQ(tb.peer(Mode::A).acks_sent(), 0u);
}

TEST(PcfTest, PcfFramesRoundTripInCodec) {
  // CF-Poll / CF-Ack+CF-Poll are data MPDUs with empty bodies; CF-End is a
  // 20-byte control frame.
  mac::wifi::DataHeader h;
  h.fc.type = mac::wifi::FrameType::Data;
  h.fc.subtype = mac::wifi::Subtype::CfAckCfPoll;
  h.addr1 = mac::MacAddr::from_u64(0x1);
  const Bytes poll = mac::wifi::build_data_mpdu(h, {});
  const auto p = mac::wifi::parse_data_mpdu(poll);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->hdr.fc.subtype, mac::wifi::Subtype::CfAckCfPoll);
  EXPECT_TRUE(p->hcs_ok);
  EXPECT_TRUE(p->fcs_ok);
  EXPECT_TRUE(p->body.empty());

  const auto bssid = mac::MacAddr::from_u64(0x42);
  for (const bool ack : {false, true}) {
    const Bytes end = mac::wifi::build_cf_end(mac::MacAddr::from_u64(0xFFFFFFFFFFFFull),
                                              bssid, ack);
    ASSERT_EQ(end.size(), mac::wifi::kCfEndBytes);
    const auto c = mac::wifi::parse_control(end);
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(c->fc.subtype,
              ack ? mac::wifi::Subtype::CfEndAck : mac::wifi::Subtype::CfEnd);
    EXPECT_EQ(c->ta, bssid);
    EXPECT_TRUE(c->fcs_ok);
  }
}

}  // namespace
}  // namespace drmp
