// Failure injection across the redundancy paths the thesis motivates
// ("higher chances of data corruption/distortion during transmission",
// §2.3.1): on-air corruption via the Medium's tamper hook, HCS-vs-FCS
// discrimination, corrupted control frames, retry recovery, and a
// deterministic single-bit-flip fuzz over every frame codec.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>

#include "crypto/crc.hpp"
#include "drmp/testbench.hpp"
#include "scenario/scenario_engine.hpp"
#include "sim/checkpoint.hpp"
#include "sim/multi_scheduler.hpp"
#include "hw/ctrl_layout.hpp"
#include "mac/uwb_frames.hpp"
#include "mac/wifi_frames.hpp"
#include "mac/wimax_frames.hpp"

namespace drmp {
namespace {

Bytes payload(std::size_t n, u8 seed = 1) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<u8>(i * 11 + seed);
  return b;
}

// ---------------------------------------------------------------------------
// On-air corruption via the Medium tamper hook.
// ---------------------------------------------------------------------------

TEST(FaultOnAir, CorruptedDataFrameIsRetriedAndRecovered) {
  Testbench tb;
  // Flip one body bit of the first data-sized frame only; later frames fly
  // clean, so the retry succeeds.
  bool armed = true;
  tb.medium(Mode::A).tamper = [&armed](Bytes& f) {
    if (!armed || f.size() < 100) return false;
    f[60] ^= 0x10;
    armed = false;
    return true;
  };
  const auto out = tb.send_and_wait(Mode::A, payload(800), 2'000'000'000ull);
  ASSERT_TRUE(out.completed);
  EXPECT_TRUE(out.success);
  EXPECT_EQ(out.retries, 1u);
  EXPECT_EQ(tb.medium(Mode::A).tampered_frames(), 1u);
  // The peer saw the corrupted copy (recorded, not ACKed) plus the clean one.
  ASSERT_EQ(tb.peer(Mode::A).received_data_frames().size(), 2u);
  EXPECT_EQ(tb.peer(Mode::A).acks_sent(), 1u);
  // The delivered retry is bit-exact despite the earlier corruption.
  const auto p = mac::wifi::parse_data_mpdu(tb.peer(Mode::A).received_data_frames()[1]);
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->fcs_ok);
}

TEST(FaultOnAir, CorruptedAckForcesTimeoutRetry) {
  Testbench tb;
  // Corrupt the first ACK-sized frame (14 B) — the transmitter must treat it
  // as lost, re-send, and complete on the second, clean ACK.
  bool armed = true;
  tb.medium(Mode::A).tamper = [&armed](Bytes& f) {
    if (!armed || f.size() != mac::wifi::kAckBytes) return false;
    f[4] ^= 0x01;
    armed = false;
    return true;
  };
  const auto out = tb.send_and_wait(Mode::A, payload(500), 2'000'000'000ull);
  ASSERT_TRUE(out.completed);
  EXPECT_TRUE(out.success);
  EXPECT_EQ(out.retries, 1u);
  // The corrupted ACK was dropped by the device's own FCS check.
  EXPECT_GE(tb.device().event_handler().rx_bad_frames(Mode::A), 1u);
  EXPECT_EQ(tb.peer(Mode::A).acks_sent(), 2u);
}

TEST(FaultOnAir, EveryMsduSurvivesOneCorruptionEach) {
  // Soak: the first transmission of every MSDU is corrupted; each recovers
  // with exactly one retry and all payloads arrive intact and in order.
  Testbench tb;
  u32 clean_since_corrupt = 0;
  tb.medium(Mode::A).tamper = [&](Bytes& f) {
    if (f.size() < 100) return false;  // Leave ACKs alone.
    if (clean_since_corrupt == 0) {
      f[70] ^= 0x20;
      clean_since_corrupt = 1;
      return true;
    }
    clean_since_corrupt = 0;
    return false;
  };
  for (int i = 0; i < 3; ++i) tb.send_async(Mode::A, payload(400, static_cast<u8>(i)));
  ASSERT_TRUE(tb.wait_tx_count(Mode::A, 3, 4'000'000'000ull));
  EXPECT_EQ(tb.tx_successes(Mode::A), 3u);
  EXPECT_EQ(tb.medium(Mode::A).tampered_frames(), 3u);
  EXPECT_EQ(tb.peer(Mode::A).acks_sent(), 3u);
}

// ---------------------------------------------------------------------------
// HCS vs FCS discrimination on the receive path.
// ---------------------------------------------------------------------------

Word rx_status(Testbench& tb, Mode m, hw::CtrlWord w) {
  return tb.device().memory().cpu_read(hw::ctrl_status_addr(m, w));
}

TEST(FaultRxChecks, HeaderCorruptionFailsHcsEvenWhenFcsIsPatched) {
  // Flip a header byte and recompute the FCS so only the HCS can catch it —
  // proving the header check is a separate, functioning stage (§2.3.2.1 #1).
  Testbench tb;
  auto frames = tb.make_peer_frames(Mode::A, payload(300), /*seq=*/1);
  ASSERT_EQ(frames.size(), 1u);
  Bytes f = frames[0];
  f[4] ^= 0x04;  // addr1 bit.
  const u32 fcs = crypto::Crc32::compute(
      std::span<const u8>(f.data(), f.size() - mac::wifi::kFcsBytes));
  for (std::size_t i = 0; i < 4; ++i) {
    f[f.size() - mac::wifi::kFcsBytes + i] = static_cast<u8>(fcs >> (8 * i));
  }
  tb.peer(Mode::A).inject_frame(f, tb.scheduler().now() + 10);
  ASSERT_TRUE(tb.run_until(
      [&] { return tb.device().event_handler().rx_bad_frames(Mode::A) >= 1; },
      200'000'000ull));
  EXPECT_EQ(rx_status(tb, Mode::A, hw::CtrlWord::kFcsOk), 1u);
  EXPECT_EQ(rx_status(tb, Mode::A, hw::CtrlWord::kHcsOk), 0u);
  EXPECT_TRUE(tb.delivered(Mode::A).empty());
  EXPECT_EQ(tb.device().ack_rfu().acks_generated(), 0u) << "no ACK for a bad header";
}

TEST(FaultRxChecks, BodyCorruptionFailsFcsButNotHcs) {
  Testbench tb;
  auto frames = tb.make_peer_frames(Mode::A, payload(300), /*seq=*/1);
  Bytes f = frames[0];
  f[f.size() / 2] ^= 0x80;  // Body byte: header check still passes.
  tb.peer(Mode::A).inject_frame(f, tb.scheduler().now() + 10);
  ASSERT_TRUE(tb.run_until(
      [&] { return tb.device().event_handler().rx_bad_frames(Mode::A) >= 1; },
      200'000'000ull));
  EXPECT_EQ(rx_status(tb, Mode::A, hw::CtrlWord::kFcsOk), 0u);
  EXPECT_TRUE(tb.delivered(Mode::A).empty());
}

TEST(FaultRxChecks, UwbCorruptedDataIsNotImmAcked) {
  Testbench tb;
  auto frames = tb.make_peer_frames(Mode::C, payload(200), /*seq=*/1);
  ASSERT_FALSE(frames.empty());
  Bytes f = frames[0];
  f[f.size() - 6] ^= 0x01;  // Body/FCS region.
  tb.peer(Mode::C).inject_frame(f, tb.scheduler().now() + 10);
  ASSERT_TRUE(tb.run_until(
      [&] { return tb.device().event_handler().rx_bad_frames(Mode::C) >= 1; },
      200'000'000ull));
  EXPECT_EQ(tb.device().ack_rfu().acks_generated(), 0u);
  EXPECT_TRUE(tb.delivered(Mode::C).empty());
}

TEST(FaultRxChecks, WimaxCorruptedGmhFailsHcs8) {
  Testbench tb;
  auto frames = tb.make_peer_frames(Mode::B, payload(200), /*seq=*/1);
  ASSERT_FALSE(frames.empty());
  Bytes f = frames[0];
  f[2] ^= 0x40;  // Inside the 6-byte generic MAC header: HCS-8 must catch it.
  tb.peer(Mode::B).inject_frame(f, tb.scheduler().now() + 10);
  ASSERT_TRUE(tb.run_until(
      [&] { return tb.device().event_handler().rx_bad_frames(Mode::B) >= 1; },
      400'000'000ull));
  EXPECT_TRUE(tb.delivered(Mode::B).empty());
}

// ---------------------------------------------------------------------------
// Deterministic fuzz over the frame codecs.
// ---------------------------------------------------------------------------

TEST(CodecFuzz, RandomBuffersNeverCrashAnyParser) {
  std::mt19937 rng(0xF00D);
  for (int i = 0; i < 3000; ++i) {
    const std::size_t n = rng() % 3000;
    Bytes buf(n);
    for (auto& b : buf) b = static_cast<u8>(rng());
    // Must not crash, throw, or read out of bounds (ASan-checked in debug
    // builds); structural acceptance of garbage is fine — the CRC flags and
    // downstream checks reject it.
    (void)mac::wifi::parse_data_mpdu(buf);
    (void)mac::wifi::parse_control(buf);
    (void)mac::uwb::parse_frame(buf);
    (void)mac::wimax::parse_mpdu(buf);
  }
}

class BitFlipFuzz : public ::testing::TestWithParam<u32> {};

TEST_P(BitFlipFuzz, AnySingleBitFlipInWifiMpduIsDetected) {
  std::mt19937 rng(GetParam());
  mac::wifi::DataHeader h;
  h.addr1 = mac::MacAddr::from_u64(0x111111);
  h.addr2 = mac::MacAddr::from_u64(0x222222);
  h.seq_num = static_cast<u16>(rng() % 4096);
  const Bytes body = payload(1 + rng() % 800, static_cast<u8>(rng()));
  const Bytes mpdu = mac::wifi::build_data_mpdu(h, body);

  for (int trial = 0; trial < 200; ++trial) {
    Bytes f = mpdu;
    const std::size_t bit = rng() % (f.size() * 8);
    f[bit / 8] ^= static_cast<u8>(1u << (bit % 8));
    const auto p = mac::wifi::parse_data_mpdu(f);
    ASSERT_TRUE(p.has_value());
    // CRC-32 detects every single-bit error over its coverage; a flip in the
    // header additionally (or instead) trips the CRC-16 HCS.
    EXPECT_FALSE(p->hcs_ok && p->fcs_ok)
        << "undetected single-bit flip at bit " << bit;
  }
}

TEST_P(BitFlipFuzz, AnySingleBitFlipInControlFramesIsDetected) {
  std::mt19937 rng(GetParam());
  const std::array<Bytes, 3> frames = {
      mac::wifi::build_ack(mac::MacAddr::from_u64(0xA1)),
      mac::wifi::build_cts(mac::MacAddr::from_u64(0xB2)),
      mac::wifi::build_rts(mac::MacAddr::from_u64(0xC3), mac::MacAddr::from_u64(0xD4), 99),
  };
  for (const Bytes& base : frames) {
    for (int trial = 0; trial < 100; ++trial) {
      Bytes f = base;
      const std::size_t bit = rng() % (f.size() * 8);
      f[bit / 8] ^= static_cast<u8>(1u << (bit % 8));
      const auto p = mac::wifi::parse_control(f);
      // Either the frame-control no longer decodes as a control frame, or
      // the FCS catches the flip.
      if (p.has_value()) {
        EXPECT_FALSE(p->fcs_ok) << "undetected flip at bit " << bit;
      }
    }
  }
}

TEST_P(BitFlipFuzz, AnySingleBitFlipInUwbFrameIsDetected) {
  std::mt19937 rng(GetParam());
  const Bytes body = payload(1 + rng() % 500, static_cast<u8>(rng()));
  mac::uwb::Header h;
  h.type = mac::uwb::FrameType::Data;
  h.pnid = 0xBEEF;
  h.src_id = 2;
  h.dest_id = 1;
  h.ack_policy = mac::uwb::AckPolicy::ImmAck;
  const Bytes frame = mac::uwb::build_data_frame(h, body);
  for (int trial = 0; trial < 200; ++trial) {
    Bytes f = frame;
    const std::size_t bit = rng() % (f.size() * 8);
    f[bit / 8] ^= static_cast<u8>(1u << (bit % 8));
    const auto p = mac::uwb::parse_frame(f);
    if (p.has_value()) {
      EXPECT_FALSE(p->hcs_ok && p->fcs_ok) << "undetected flip at bit " << bit;
    }
  }
}

TEST_P(BitFlipFuzz, HeaderBitFlipInWimaxGmhIsDetected) {
  std::mt19937 rng(GetParam());
  const Bytes body = payload(1 + rng() % 500, static_cast<u8>(rng()));
  const Bytes frame =
      mac::wimax::build_mpdu(0x1234, mac::wimax::FragSubheader{}, body, /*with_crc=*/false);
  // The CRC-8 HCS covers the GMH; flip bits there only (the body is
  // uncovered when the optional CRC is off — the 802.16 trade).
  for (int trial = 0; trial < 100; ++trial) {
    Bytes f = frame;
    const std::size_t bit = rng() % (mac::wimax::kGmhBytes * 8);
    f[bit / 8] ^= static_cast<u8>(1u << (bit % 8));
    const auto p = mac::wimax::parse_mpdu(f);
    if (p.has_value()) {
      EXPECT_FALSE(p->hcs_ok) << "undetected GMH flip at bit " << bit;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitFlipFuzz, ::testing::Values(11u, 23u, 3571u));

// ---------------------------------------------------------------------------
// Crash recovery: a torn checkpoint write never costs the last good snapshot.
// ---------------------------------------------------------------------------

// Checkpoints publish atomically — bytes land in `path + ".tmp"`, then a
// rename. Simulate the worst-timed crash (process death mid-write, leaving a
// truncated .tmp behind): resume still finds the last *complete* snapshot
// under the final name and reproduces the uninterrupted digest, while the
// torn bytes themselves are refused with a typed error, not misparsed.
TEST(FaultCrashRecovery, TruncatedWriteKeepsLastCompleteSnapshot) {
  using scenario::FleetStats;
  using scenario::ScenarioEngine;
  using scenario::ScenarioSpec;

  const ScenarioSpec proto = ScenarioSpec::contended_wifi_cell(8, 1, 2);
  const FleetStats base = ScenarioEngine(proto).run();
  ASSERT_TRUE(base.all_drained);

  const std::string path = ::testing::TempDir() + "crash_recovery.snap";
  const Cycle stride = proto.lockstep_stride;
  Cycle half = base.lockstep_cycles / 2 / stride * stride;
  if (half == 0) half = stride;
  ScenarioSpec clamped = proto;
  clamped.max_cycles = half;
  ScenarioEngine saver(std::move(clamped));
  saver.checkpoint_every(half, path);
  (void)saver.run();  // One complete snapshot now sits at `path`.

  // The crash: a later checkpoint dies mid-write. Its torn bytes only ever
  // exist under the .tmp name — the rename never happened.
  Bytes torn;
  {
    std::ifstream f(path, std::ios::binary);
    ASSERT_TRUE(f);
    torn.assign((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
  }
  torn.resize(torn.size() / 3);
  {
    std::ofstream f(path + ".tmp", std::ios::binary | std::ios::trunc);
    f.write(reinterpret_cast<const char*>(torn.data()),
            static_cast<std::streamsize>(torn.size()));
  }

  // The torn bytes are rejected with a typed snapshot error...
  EXPECT_THROW(sim::snap::Reader r(std::move(torn)), sim::snap::SnapshotError);

  // ...and recovery from the published path reproduces the uninterrupted run.
  ScenarioEngine resumer(proto);
  resumer.resume(path);
  const FleetStats resumed = resumer.run();
  EXPECT_EQ(resumed.full_digest(), base.full_digest());
  EXPECT_EQ(resumed.report(), base.report());

  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

// Failures reach the caller as typed errors on every execution policy. With
// a worker pool, a throw from a lane on a pool thread — or from a hook on the
// calling thread — must stop and join the pool before it propagates;
// unwinding past joinable workers would std::terminate the process.
TEST(FaultPropagation, CheckpointWriteErrorReachesTheCallerOnEveryPolicy) {
  for (const unsigned workers : {1u, 4u}) {
    SCOPED_TRACE(workers);
    scenario::ScenarioSpec spec = scenario::ScenarioSpec::mixed_three_standard(8, 1, 1);
    spec.worker_threads = workers;
    scenario::ScenarioEngine engine(std::move(spec));
    engine.checkpoint_every(1000, "/nonexistent-dir/x.snap");
    EXPECT_THROW((void)engine.run(), sim::snap::SnapshotError);
  }
}

TEST(FaultPropagation, LaneAndRoundHookThrowsReachTheCaller) {
  // Throws from its tick once its own clock reaches `at`.
  class Faulty : public sim::Clockable {
   public:
    Faulty(const sim::Scheduler& s, Cycle at) : s_(s), at_(at) {}
    void tick() override {
      if (s_.now() >= at_) throw std::runtime_error("lane fault");
    }

   private:
    const sim::Scheduler& s_;
    Cycle at_;
  };
  // Throws from one tick only; a later run would resume without it.
  class ThrowsOnce : public sim::Clockable {
   public:
    ThrowsOnce(const sim::Scheduler& s, Cycle at) : s_(s), at_(at) {}
    void tick() override {
      if (s_.now() != at_ || thrown_) return;
      thrown_ = true;
      throw std::runtime_error("tick fault");
    }

   private:
    const sim::Scheduler& s_;
    Cycle at_;
    bool thrown_ = false;
  };
  // Sleeps between real ticks 1000 cycles apart, so a skipping run settles
  // it in bulk.
  class Sleeper : public sim::Clockable {
   public:
    void tick() override { ++cycles; }
    Cycle quiescent_for() const override { return 999 - cycles % 1000; }
    void skip_idle(Cycle n) override { cycles += n; }
    Cycle cycles = 0;
  };
  for (const bool skip : {true, false}) {
    SCOPED_TRACE(skip);
    sim::Scheduler s(200e6);
    s.set_idle_skip(skip);
    Sleeper sleeper;
    ThrowsOnce thrower(s, 700);
    s.add(sleeper, "sleeper");
    s.add(thrower, "thrower");
    EXPECT_THROW(s.run_cycles(1'000), std::runtime_error);
    try {
      s.run_cycles(1'000);
      ADD_FAILURE() << "a faulted scheduler resumed at cycle " << s.now()
                    << " with its sleeper at " << sleeper.cycles;
    } catch (const sim::SchedulerFaulted& e) {
      EXPECT_NE(std::string(e.what()).find("'thrower' threw at cycle 700"),
                std::string::npos)
          << e.what();
    }
    EXPECT_THROW(s.run_until([] { return false; }, 10), sim::SchedulerFaulted);
    sim::snap::Writer w;
    EXPECT_THROW(s.save_state(w), sim::SchedulerFaulted);
  }
  for (const unsigned workers : {1u, 4u}) {
    SCOPED_TRACE(workers);
    std::vector<std::unique_ptr<sim::Scheduler>> lanes;
    std::vector<std::unique_ptr<Faulty>> parts;
    sim::MultiScheduler multi;
    for (std::size_t i = 0; i < 4; ++i) {
      lanes.push_back(std::make_unique<sim::Scheduler>(200e6));
      // Only the last lane faults, so a pool thread other than the caller
      // usually runs it.
      parts.push_back(std::make_unique<Faulty>(*lanes[i], i == 3 ? 700 : ~Cycle{0}));
      lanes[i]->add(*parts[i], "faulty");
      multi.add(*lanes[i]);
    }
    EXPECT_THROW((void)multi.run(10'000, 256, workers), std::runtime_error);
    // The faulted lane refuses to resume, naming the culprit.
    try {
      (void)multi.run(10'000, 256, workers);
      ADD_FAILURE() << "a faulted lane resumed";
    } catch (const sim::SchedulerFaulted& e) {
      EXPECT_NE(std::string(e.what()).find("'faulty' threw at cycle 700"),
                std::string::npos)
          << e.what();
    }
  }
  for (const unsigned workers : {1u, 4u}) {
    SCOPED_TRACE(workers);
    sim::Scheduler a(200e6), b(200e6);
    sim::MultiScheduler multi;
    multi.add(a);
    multi.add(b);
    int rounds = 0;
    multi.set_round_hook([&] {
      if (++rounds == 3) throw std::runtime_error("hook fault");
    });
    EXPECT_THROW((void)multi.run(10'000, 256, workers), std::runtime_error);
  }
}

}  // namespace
}  // namespace drmp
