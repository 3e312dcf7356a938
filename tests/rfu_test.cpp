// RFU-level tests: each functional unit driven over the packet bus exactly
// as the TH_M drives it (command word, arguments, execute trigger, DONE
// handshake), including the reconfiguration mechanisms and the master/slave
// FCS snoop path.
#include <gtest/gtest.h>

#include "crypto/aes128.hpp"
#include "crypto/crc.hpp"
#include "crypto/des.hpp"
#include "crypto/rc4.hpp"
#include "hw/ctrl_layout.hpp"
#include "mac/uwb_frames.hpp"
#include "mac/wifi_frames.hpp"
#include "mac/wimax_frames.hpp"
#include "phy/buffers.hpp"
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
#include "sim/checkpoint.hpp"
#include "sim/scheduler.hpp"

namespace drmp::rfu {
namespace {

using hw::Page;
using hw::page_base;

Bytes payload(std::size_t n, u8 seed = 3) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<u8>(i * 11 + seed);
  return b;
}

/// Drives a single RFU the way a TH_M does.
struct RfuRig {
  RfuRig() : sched(200e6), bus(mem), tb(200e6) {}

  Rfu::Env env() {
    Rfu::Env e;
    e.bus = &bus;
    e.rmem = &rmem;
    e.timebase = &tb;
    return e;
  }

  void add(Rfu& r) {
    sched.add(bus, "bus");
    sched.add(r, "rfu");
    rfu_ = &r;
  }
  void add2(Rfu& a, Rfu& b) {
    sched.add(bus, "bus");
    sched.add(a, "a");
    sched.add(b, "b");
    rfu_ = &a;
  }

  void reconfigure(Rfu& r, u8 state) {
    r.rc_configure(state);
    ASSERT_TRUE(sched.run_until([&] { return r.rdone(); }, 1000));
    r.clear_rdone();
  }

  /// Full TH_M-style delegation; returns false on timeout.
  bool execute(Rfu& r, Op op, const std::vector<Word>& args, Cycle max_cycles = 4'000'000) {
    bus.request_for_irc(Mode::A);
    if (!sched.run_until([&] { return bus.granted_irc(Mode::A); }, 100)) return false;
    auto put = [&](Word w) {
      bus.write(hw::rfu_trigger_addr(r.id()), w);
      sched.run_cycles(1);
    };
    put(make_command_word(op, static_cast<u8>(args.size())));
    for (Word a : args) put(a);
    put(0);  // Execute.
    if (r.detached_execution()) {
      bus.release(Mode::A);
    } else {
      bus.request_for_rfu(Mode::A, r.id());
    }
    const bool ok = sched.run_until([&] { return r.done(); }, max_cycles);
    r.clear_done();
    if (!r.detached_execution()) bus.release(Mode::A);
    sched.run_cycles(2);
    return ok;
  }

  sim::Scheduler sched;
  hw::PacketMemory mem;
  hw::PacketBus bus;
  hw::ReconfigMemory rmem;
  sim::TimeBase tb;
  Rfu* rfu_ = nullptr;
};

class RfuHarness : public ::testing::Test, protected RfuRig {};

// ----------------------------------------------------------------- crypto

TEST_F(RfuHarness, CryptoRc4MatchesSoftwareReference) {
  CryptoRfu crypto(env());
  add(crypto);
  const Bytes key = payload(16, 9);
  rmem.load_blob(kCryptoRfu, cfg::kCryptoRc4, CryptoRfu::make_config_blob(cfg::kCryptoRc4, key));
  reconfigure(crypto, cfg::kCryptoRc4);

  const Bytes msdu = payload(700);
  mem.write_page_bytes(Mode::A, Page::Raw, msdu);
  ASSERT_TRUE(execute(crypto, Op::EncryptRc4,
                      {page_base(Mode::A, Page::Raw), page_base(Mode::A, Page::Crypt), 42, 0}));

  // Software reference: WEP-style IV||key.
  Bytes iv_key = {42, 0, 0};
  iv_key.insert(iv_key.end(), key.begin(), key.end());
  Bytes expected = msdu;
  crypto::Rc4 rc4(iv_key);
  rc4.process(expected);
  EXPECT_EQ(mem.read_page_bytes(Mode::A, Page::Crypt), expected);
}

TEST_F(RfuHarness, CryptoAesRoundTripThroughMemory) {
  CryptoRfu crypto(env());
  add(crypto);
  const Bytes key = payload(16, 5);
  rmem.load_blob(kCryptoRfu, cfg::kCryptoAes, CryptoRfu::make_config_blob(cfg::kCryptoAes, key));
  reconfigure(crypto, cfg::kCryptoAes);

  const Bytes msdu = payload(333);
  mem.write_page_bytes(Mode::A, Page::Raw, msdu);
  ASSERT_TRUE(execute(crypto, Op::EncryptAes,
                      {page_base(Mode::A, Page::Raw), page_base(Mode::A, Page::Crypt), 7, 8}));
  EXPECT_NE(mem.read_page_bytes(Mode::A, Page::Crypt), msdu);
  ASSERT_TRUE(execute(crypto, Op::DecryptAes,
                      {page_base(Mode::A, Page::Crypt), page_base(Mode::A, Page::Defrag), 7, 8}));
  EXPECT_EQ(mem.read_page_bytes(Mode::A, Page::Defrag), msdu);
}

TEST_F(RfuHarness, CryptoDesCbcRoundTrip) {
  CryptoRfu crypto(env());
  add(crypto);
  const Bytes key = payload(8, 7);
  rmem.load_blob(kCryptoRfu, cfg::kCryptoDes, CryptoRfu::make_config_blob(cfg::kCryptoDes, key));
  reconfigure(crypto, cfg::kCryptoDes);

  const Bytes msdu = payload(256);  // Whole DES blocks.
  mem.write_page_bytes(Mode::A, Page::Raw, msdu);
  ASSERT_TRUE(execute(crypto, Op::EncryptDes,
                      {page_base(Mode::A, Page::Raw), page_base(Mode::A, Page::Crypt), 1, 2}));
  ASSERT_TRUE(execute(crypto, Op::DecryptDes,
                      {page_base(Mode::A, Page::Crypt), page_base(Mode::A, Page::Defrag), 1, 2}));
  EXPECT_EQ(mem.read_page_bytes(Mode::A, Page::Defrag), msdu);
}

TEST_F(RfuHarness, DesStallSleepsUnitAndBus) {
  // DES stalls six cycles per word between streaming the page in and out.
  // The unit sleeps through its stall and the bus through the quiet hold,
  // so both execute O(words) ticks rather than O(7 x words).
  constexpr int kBusStage = -1;
  constexpr int kRfuStage = 0;
  CryptoRfu crypto(env());
  sched.add(bus, "bus", kBusStage);
  sched.add(crypto, "rfu", kRfuStage);
  const Bytes key = payload(8, 7);
  rmem.load_blob(kCryptoRfu, cfg::kCryptoDes, CryptoRfu::make_config_blob(cfg::kCryptoDes, key));
  reconfigure(crypto, cfg::kCryptoDes);
  constexpr u64 kWords = 256;
  mem.write_page_bytes(Mode::A, Page::Raw, payload(4 * kWords));
  auto executed = [&](int stage) {
    for (const auto& st : sched.profile().stages) {
      if (st.stage == stage) return st.executed;
    }
    return u64{0};
  };
  const u64 rfu0 = executed(kRfuStage);
  const u64 bus0 = executed(kBusStage);
  const Cycle t0 = sched.now();
  ASSERT_TRUE(execute(crypto, Op::EncryptDes,
                      {page_base(Mode::A, Page::Raw), page_base(Mode::A, Page::Crypt), 1, 2}));
  EXPECT_GE(sched.now() - t0, 8 * kWords);  // The stall still costs its cycles.
  // One tick per word in and out, plus the trigger handshake.
  EXPECT_LE(executed(kRfuStage) - rfu0, 2 * kWords + 32);
  EXPECT_LE(executed(kBusStage) - bus0, 2 * kWords + 32);
}

TEST_F(RfuHarness, MaReconfigLatencyScalesWithBlobSize) {
  CryptoRfu crypto(env());
  add(crypto);
  rmem.load_blob(kCryptoRfu, cfg::kCryptoRc4,
                 CryptoRfu::make_config_blob(cfg::kCryptoRc4, payload(16)));
  rmem.load_blob(kCryptoRfu, cfg::kCryptoAes,
                 CryptoRfu::make_config_blob(cfg::kCryptoAes, payload(16)));
  crypto.rc_configure(cfg::kCryptoRc4);
  Cycle t0 = sched.now();
  ASSERT_TRUE(sched.run_until([&] { return crypto.rdone(); }, 1000));
  const Cycle rc4_lat = sched.now() - t0;
  crypto.clear_rdone();
  crypto.rc_configure(cfg::kCryptoAes);
  t0 = sched.now();
  ASSERT_TRUE(sched.run_until([&] { return crypto.rdone(); }, 1000));
  const Cycle aes_lat = sched.now() - t0;
  // AES blob (48 words) takes longer to stream than the RC4 blob (8 words).
  EXPECT_GT(aes_lat, rc4_lat);
}

// ----------------------------------------------------------- CRC engines

TEST_F(RfuHarness, HcsAppendAndVerify16) {
  HdrCheckRfu hcs(env());
  add(hcs);
  reconfigure(hcs, cfg::kHcsCrc16);

  // A page holding hdr(24) + 2 zero bytes + body.
  mac::wifi::DataHeader h;
  h.seq_num = 77;
  Bytes frame = h.encode();
  frame.push_back(0);
  frame.push_back(0);
  const Bytes body = payload(100);
  frame.insert(frame.end(), body.begin(), body.end());
  mem.write_page_bytes(Mode::A, Page::Tx, frame);

  ASSERT_TRUE(execute(hcs, Op::HcsAppend16, {page_base(Mode::A, Page::Tx), 24}));
  const Bytes out = mem.read_page_bytes(Mode::A, Page::Tx);
  const u16 expect =
      crypto::Crc16Ccitt::compute(std::span<const u8>(out.data(), 24));
  EXPECT_EQ(get_le16(out, 24), expect);

  const u32 status = hw::ctrl_status_addr(Mode::A, hw::CtrlWord::kHcsOk);
  ASSERT_TRUE(execute(hcs, Op::HcsVerify16, {page_base(Mode::A, Page::Tx), 24, status}));
  EXPECT_EQ(mem.read(status), 1u);

  // Corrupt the header; verify must fail.
  Bytes bad = out;
  bad[3] ^= 0x40;
  mem.write_page_bytes(Mode::A, Page::Tx, bad);
  ASSERT_TRUE(execute(hcs, Op::HcsVerify16, {page_base(Mode::A, Page::Tx), 24, status}));
  EXPECT_EQ(mem.read(status), 0u);
}

TEST_F(RfuHarness, HcsPatch8MatchesWimaxCodec) {
  HdrCheckRfu hcs(env());
  add(hcs);
  reconfigure(hcs, cfg::kHcsCrc8);

  mac::wimax::GenericMacHeader gh;
  gh.cid = 0x4242;
  gh.len = 200;
  Bytes gmh = gh.encode();
  gmh[5] = 0;  // Zero placeholder.
  mem.write_page_bytes(Mode::B, Page::Tx, gmh);
  ASSERT_TRUE(execute(hcs, Op::HcsPatch8, {page_base(Mode::B, Page::Tx)}));
  const Bytes out = mem.read_page_bytes(Mode::B, Page::Tx);
  bool ok = false;
  (void)mac::wimax::GenericMacHeader::decode(out, &ok);
  EXPECT_TRUE(ok);
}

TEST_F(RfuHarness, FcsAppendVerifyRoundTrip) {
  FcsRfu fcs(env());
  add(fcs);
  reconfigure(fcs, cfg::kFcsCrc32);

  const Bytes data = payload(200);
  mem.write_page_bytes(Mode::A, Page::Tx, data);
  ASSERT_TRUE(execute(fcs, Op::FcsAppend, {page_base(Mode::A, Page::Tx)}));
  const Bytes out = mem.read_page_bytes(Mode::A, Page::Tx);
  ASSERT_EQ(out.size(), data.size() + 4);
  EXPECT_EQ(get_le32(out, out.size() - 4), crypto::Crc32::compute(data));

  const u32 status = hw::ctrl_status_addr(Mode::A, hw::CtrlWord::kFcsOk);
  ASSERT_TRUE(execute(fcs, Op::FcsVerify, {page_base(Mode::A, Page::Tx), status}));
  EXPECT_EQ(mem.read(status), 1u);
}

// ------------------------------------------------------ word-run cost

// A word run costs its unit and the bus a few ticks per op, not one per
// word: the unit sleeps through the run bar its final word, and the bus
// counts the slept-through accesses. Each job runs with idle-skip on and
// off, and every counter must agree.

enum class Job { Frag, Defrag, Des, TxFcs, RxFcs };

/// Samples both translational buffers every cycle from the observer stage:
/// a Tx frame stays invisible until end_frame. At `deliver_at` it deposits
/// a second frame behind the one being drained.
class BufferProbe : public sim::Clockable {
 public:
  BufferProbe(sim::Scheduler& sched, phy::TxBuffer& tx, phy::RxBuffer& rx)
      : sched_(sched), tx_(tx), rx_(rx) {}
  void tick() override {
    samples.push_back(tx_.depth());
    samples.push_back(rx_.depth());
    if (sched_.now() == deliver_at) rx_.deliver(payload(200, 9), 999);
  }
  Cycle deliver_at = ~Cycle{0};
  std::vector<u64> samples;

 private:
  sim::Scheduler& sched_;
  phy::TxBuffer& tx_;
  phy::RxBuffer& rx_;
};

struct JobCost {
  Cycle cycles = 0;           ///< Trigger handshake to release.
  u64 rfu_ticks = 0;          ///< Executed ticks of the unit and its slave.
  u64 bus_ticks = 0;
  std::vector<u64> counters;  ///< Compared across idle-skip settings.
};

/// Runs one job of the given size: Frag moves words/2 words in and out,
/// Defrag streams a words/3-word fragment in and read-modify-writes it into
/// place, Des reads a words/2-word page, stalls six cycles per word in one
/// sleep and writes the page back (no per-word interleaving), TxFcs streams a words-word frame out with the FCS handover, and
/// RxFcs drains a words-word frame with the FCS check while a second frame
/// arrives behind it.
JobCost run_job(Job job, u32 words, bool idle_skip) {
  RfuRig rig;
  rig.sched.set_idle_skip(idle_skip);
  Rfu::Env env = rig.env();
  FragRfu frag(env);
  DefragRfu defrag(env);
  CryptoRfu des(env);
  TxRfu tx(env);
  RxRfu rx(env);
  FcsRfu fcs(env);
  phy::TxBuffer txbuf;
  phy::RxBuffer rxbuf;
  tx.wire(&fcs, {&txbuf, nullptr, nullptr}, &rig.tb);
  rx.wire(&fcs, {&rxbuf, nullptr, nullptr});
  Rfu* unit = job == Job::Frag     ? static_cast<Rfu*>(&frag)
              : job == Job::Defrag ? static_cast<Rfu*>(&defrag)
              : job == Job::Des    ? static_cast<Rfu*>(&des)
              : job == Job::TxFcs  ? static_cast<Rfu*>(&tx)
                                   : static_cast<Rfu*>(&rx);
  rig.sched.add(rig.bus, "bus", -1);
  rig.sched.add(*unit, "rfu");
  BufferProbe probe(rig.sched, txbuf, rxbuf);
  rig.sched.add(probe, "probe", sim::Scheduler::kStageObserver);
  rig.rmem.load_blob(kCryptoRfu, cfg::kCryptoDes,
                     CryptoRfu::make_config_blob(cfg::kCryptoDes, payload(8, 7)));
  rig.reconfigure(*unit, job == Job::Des ? cfg::kCryptoDes : cfg::kProtoWifi);
  if (job == Job::TxFcs || job == Job::RxFcs) {
    rig.sched.add(fcs, "fcs");
    rig.reconfigure(fcs, cfg::kFcsCrc32);
  }

  const u32 crypt = page_base(Mode::A, Page::Crypt);
  const u32 scratch = page_base(Mode::A, Page::Scratch);
  const u32 status = hw::ctrl_status_addr(Mode::A, hw::CtrlWord::kFcsOk);
  Op op = Op::Nop;
  std::vector<Word> args;
  switch (job) {
    case Job::Frag:
      rig.mem.write_page_bytes(Mode::A, Page::Crypt, payload(2 * words));
      op = Op::FragmentWifi;
      args = {crypt, scratch, 2 * words, 0};
      break;
    case Job::Defrag:
      rig.mem.write_page_bytes(Mode::A, Page::Scratch, payload(4 * (words / 3)));
      op = Op::DefragAppendWifi;
      args = {scratch, page_base(Mode::A, Page::Defrag), 1};
      break;
    case Job::Des:
      rig.mem.write_page_bytes(Mode::A, Page::Raw, payload(2 * words));
      op = Op::EncryptDes;
      args = {page_base(Mode::A, Page::Raw), crypt, 1, 2};
      break;
    case Job::TxFcs:
      rig.mem.write_page_bytes(Mode::A, Page::Tx, payload(4 * words));
      op = Op::TxFrameWifi;
      args = {page_base(Mode::A, Page::Tx), 0, 1};
      break;
    case Job::RxFcs: {
      Bytes frame = payload(4 * words - 4);
      put_le32(frame, crypto::Crc32::compute(frame));
      rxbuf.deliver(frame, 777);
      probe.deliver_at = rig.sched.now() + 40;  // Mid-drain.
      op = Op::RxDrainWifi;
      args = {page_base(Mode::A, Page::Rx), 0, 1, status};
      break;
    }
  }

  auto executed = [&](int stage) {
    for (const auto& st : rig.sched.profile().stages) {
      if (st.stage == stage) return st.executed;
    }
    return u64{0};
  };
  JobCost c;
  const u64 rfu0 = executed(sim::Scheduler::kStageDefault);
  const u64 bus0 = executed(-1);
  const Cycle t0 = rig.sched.now();
  EXPECT_TRUE(rig.execute(*unit, op, args));
  c.cycles = rig.sched.now() - t0;
  c.rfu_ticks = executed(sim::Scheduler::kStageDefault) - rfu0;
  c.bus_ticks = executed(-1) - bus0;

  c.counters = {c.cycles, rig.bus.busy_cycles(), rig.bus.total_cycles(), unit->busy_cycles(),
                fcs.busy_cycles(), rig.mem.read(status)};
  for (Mode m : {Mode::A, Mode::B, Mode::C}) {
    c.counters.push_back(rig.bus.mode_hold_cycles(m));
    c.counters.push_back(rig.bus.mode_wait_cycles(m));
  }
  for (const sim::BusyCounter* b : {&unit->busy_counter(), &fcs.busy_counter()}) {
    c.counters.push_back(b->busy_cycles());
    c.counters.push_back(b->total_cycles());
  }
  const Bytes out = job == Job::TxFcs    ? txbuf.pop().bytes
                    : job == Job::Frag   ? rig.mem.read_page_bytes(Mode::A, Page::Scratch)
                    : job == Job::Defrag ? rig.mem.read_page_bytes(Mode::A, Page::Defrag)
                    : job == Job::Des    ? rig.mem.read_page_bytes(Mode::A, Page::Crypt)
                                         : rig.mem.read_page_bytes(Mode::A, Page::Rx);
  c.counters.insert(c.counters.end(), out.begin(), out.end());
  c.counters.insert(c.counters.end(), probe.samples.begin(), probe.samples.end());
  if (job == Job::RxFcs) {
    // The drain took the head frame only; the one delivered behind it waits.
    EXPECT_EQ(out.size(), 4 * words);
    EXPECT_EQ(rig.mem.read(status), 1u);
    EXPECT_EQ(rxbuf.depth(), 1u);
    EXPECT_EQ(rxbuf.frame(), payload(200, 9));
  }
  return c;
}

TEST(WordRun, CostIsPerOpNotPerWord) {
  // A page holds 639 payload words, so the Tx and Rx jobs stop at 512.
  const struct {
    Job job;
    const char* name;
    u32 large;
  } cases[] = {{Job::Frag, "frag", 1024},
               {Job::Defrag, "defrag", 1024},
               {Job::Des, "des", 1024},
               {Job::TxFcs, "tx+fcs", 512},
               {Job::RxFcs, "rx+fcs", 512}};
  for (const auto& k : cases) {
    SCOPED_TRACE(k.name);
    const JobCost small = run_job(k.job, 64, true);
    const JobCost large = run_job(k.job, k.large, true);
    // Exact: every counter, the cycle count and the data agree with the
    // every-tick oracle.
    EXPECT_EQ(small.counters, run_job(k.job, 64, false).counters);
    EXPECT_EQ(large.counters, run_job(k.job, k.large, false).counters);
    // The words still take a cycle each...
    EXPECT_GE(small.cycles, 64u);
    EXPECT_GE(large.cycles, k.large);
    if (k.job == Job::Des) {
      EXPECT_GE(large.cycles, 4 * k.large);  // 8 per word moved in.
    }
    // ...but the ticks do not grow with them: a few per op.
    EXPECT_EQ(large.rfu_ticks, small.rfu_ticks);
    EXPECT_EQ(large.bus_ticks, small.bus_ticks);
    EXPECT_LT(large.rfu_ticks + large.bus_ticks, 64u);
  }
}

/// The Tx unit and its FCS slave, mid-way through a 512-word frame.
struct TxRig : RfuRig {
  explicit TxRig(bool idle_skip) : tx(env()), fcs(env()) {
    sched.set_idle_skip(idle_skip);
    tx.wire(&fcs, {&buf, nullptr, nullptr}, &tb);
    sched.add(bus, "bus");
    sched.add(tx, "tx");
    sched.add(fcs, "fcs");
  }
  /// Runs the handshake, then `n` cycles into the frame's word run.
  void start(Cycle n) {
    reconfigure(tx, cfg::kProtoWifi);
    reconfigure(fcs, cfg::kFcsCrc32);
    mem.write_page_bytes(Mode::A, Page::Tx, payload(2048));
    bus.request_for_irc(Mode::A);
    ASSERT_TRUE(sched.run_until([&] { return bus.granted_irc(Mode::A); }, 100));
    for (Word w : {make_command_word(Op::TxFrameWifi, 3), page_base(Mode::A, Page::Tx), Word{0},
                   Word{1}, Word{0}}) {
      bus.write(hw::rfu_trigger_addr(kTxRfu), w);
      sched.run_cycles(1);
    }
    bus.request_for_rfu(Mode::A, kTxRfu);
    sched.run_cycles(n);
  }
  template <class Ar>
  void persist(Ar& ar) {
    if constexpr (Ar::kLoading) {
      sched.load_state(ar);
      tx.load_state(ar);
      fcs.load_state(ar);
    } else {
      sched.save_state(ar);
      tx.save_state(ar);
      fcs.save_state(ar);
    }
    bus.persist(ar);
    mem.persist(ar);
    buf.persist(ar);
    ar.io(tx.busy_counter());
    ar.io(fcs.busy_counter());
  }
  /// Finishes the frame; returns every counter and the staged frame.
  std::vector<u64> finish() {
    EXPECT_TRUE(sched.run_until([&] { return tx.done(); }, 10'000));
    std::vector<u64> c = {sched.now(), bus.busy_cycles(), bus.total_cycles(),
                          bus.mode_hold_cycles(Mode::A), tx.busy_cycles(), fcs.busy_cycles()};
    for (const sim::BusyCounter* b : {&tx.busy_counter(), &fcs.busy_counter()}) {
      c.push_back(b->busy_cycles());
      c.push_back(b->total_cycles());
    }
    const Bytes frame = buf.pop().bytes;
    c.insert(c.end(), frame.begin(), frame.end());
    return c;
  }
  TxRfu tx;
  FcsRfu fcs;
  phy::TxBuffer buf;
};

TEST(WordRun, SnapshotMidRunResumesExactly) {
  // A snapshot between scheduler runs can land inside a word run: the bus
  // saves the current cycle's slept-through access as its access flag, and
  // after a load the unit ticks its next word and declares the rest.
  TxRig live(true);
  live.start(300);
  sim::snap::Writer w;
  w.begin_record("rig");
  live.persist(w);
  w.end_record();
  const std::vector<u64> want = live.finish();
  for (const bool idle_skip : {true, false}) {
    SCOPED_TRACE(idle_skip ? "resumed with idle-skip" : "resumed every-tick");
    TxRig resumed(idle_skip);
    sim::snap::Reader r(w.envelope());
    r.expect("rig");
    resumed.persist(r);
    r.leave();
    EXPECT_EQ(resumed.finish(), want);
  }
  TxRig every(false);
  every.start(300);
  EXPECT_EQ(every.finish(), want);
}

// ------------------------------------------------------ frag / defrag

TEST_F(RfuHarness, FragmentSliceAndReassemble) {
  FragRfu frag(env());
  DefragRfu defrag(env());
  add2(frag, defrag);
  reconfigure(frag, cfg::kProtoWifi);
  reconfigure(defrag, cfg::kProtoWifi);

  const Bytes msdu = payload(1500);
  mem.write_page_bytes(Mode::A, Page::Crypt, msdu);
  const u32 thr = 512;
  const u32 nfrags = 3;
  for (u32 k = 0; k < nfrags; ++k) {
    ASSERT_TRUE(execute(frag, Op::FragmentWifi,
                        {page_base(Mode::A, Page::Crypt), page_base(Mode::A, Page::Scratch),
                         thr, k}));
    const Bytes slice = mem.read_page_bytes(Mode::A, Page::Scratch);
    const std::size_t expect_len = std::min<std::size_t>(thr, msdu.size() - k * thr);
    EXPECT_EQ(slice.size(), expect_len);
    ASSERT_TRUE(execute(defrag, Op::DefragAppendWifi,
                        {page_base(Mode::A, Page::Scratch), page_base(Mode::A, Page::Defrag),
                         k == 0 ? 1u : 0u}));
  }
  EXPECT_EQ(mem.read_page_bytes(Mode::A, Page::Defrag), msdu);
}

TEST_F(RfuHarness, FragmentBeyondEndIsEmpty) {
  FragRfu frag(env());
  add(frag);
  reconfigure(frag, cfg::kProtoUwb);
  mem.write_page_bytes(Mode::A, Page::Crypt, payload(100));
  ASSERT_TRUE(execute(frag, Op::FragmentUwb,
                      {page_base(Mode::A, Page::Crypt), page_base(Mode::A, Page::Scratch),
                       512, 5}));
  EXPECT_EQ(mem.page_byte_len(Mode::A, Page::Scratch), 0u);
}

// ------------------------------------------------------- header / parse

TEST_F(RfuHarness, AssembleThenParseWifi) {
  HeaderRfu hdr(env());
  add(hdr);
  rmem.load_blob(kHeaderRfu, cfg::kProtoWifi, HeaderRfu::make_config_blob(cfg::kProtoWifi));
  reconfigure(hdr, cfg::kProtoWifi);

  // CPU side: header template into the Ctrl-page mini page.
  mac::wifi::DataHeader h;
  h.seq_num = 345;
  h.frag_num = 2;
  h.fc.more_frag = true;
  const Bytes tmpl = h.encode();
  const u32 tmpl_addr = hw::ctrl_hdr_tmpl_addr(Mode::A);
  mem.write(tmpl_addr + hw::kPageLenOffset, static_cast<Word>(tmpl.size()));
  const auto tw = pack_words(tmpl);
  for (std::size_t i = 0; i < tw.size(); ++i) {
    mem.write(tmpl_addr + hw::kPageDataOffset + static_cast<u32>(i), tw[i]);
  }

  const Bytes body = payload(200);
  mem.write_page_bytes(Mode::A, Page::Scratch, body);
  ASSERT_TRUE(execute(hdr, Op::AssembleWifi,
                      {tmpl_addr, page_base(Mode::A, Page::Scratch),
                       page_base(Mode::A, Page::Tx)}));
  const Bytes mpdu = mem.read_page_bytes(Mode::A, Page::Tx);
  // hdr(24) + HCS placeholder(2) + body.
  ASSERT_EQ(mpdu.size(), 24u + 2u + body.size());
  EXPECT_EQ(get_le16(mpdu, 24), 0u);  // Placeholder zeros.

  // Parse path needs a complete frame; use the codec to finish it.
  const Bytes full = mac::wifi::build_data_mpdu(h, body);
  mem.write_page_bytes(Mode::A, Page::Rx, full);
  const u32 status_base = hw::ctrl_status_addr(Mode::A, static_cast<hw::CtrlWord>(0));
  ASSERT_TRUE(execute(hdr, Op::ParseWifi, {page_base(Mode::A, Page::Rx), status_base}));
  EXPECT_EQ(mem.read(hw::ctrl_status_addr(Mode::A, hw::CtrlWord::kParseOk)), 1u);
  EXPECT_EQ(mem.read(hw::ctrl_status_addr(Mode::A, hw::CtrlWord::kSeq)), 345u);
  EXPECT_EQ(mem.read(hw::ctrl_status_addr(Mode::A, hw::CtrlWord::kFrag)), 2u);
  EXPECT_EQ(mem.read(hw::ctrl_status_addr(Mode::A, hw::CtrlWord::kMoreFrag)), 1u);

  // Extract: body only.
  ASSERT_TRUE(execute(hdr, Op::ExtractWifi,
                      {page_base(Mode::A, Page::Rx), page_base(Mode::A, Page::RxScratch)}));
  EXPECT_EQ(mem.read_page_bytes(Mode::A, Page::RxScratch), body);
}

// ------------------------------------------------- tx with FCS snooping

TEST_F(RfuHarness, TxStreamsFrameAndSlaveAppendsFcs) {
  TxRfu tx(env());
  FcsRfu fcs(env());
  add2(tx, fcs);
  phy::TxBuffer buf;
  std::array<phy::TxBuffer*, kNumModes> bufs{&buf, nullptr, nullptr};
  tx.wire(&fcs, bufs, &tb);
  reconfigure(tx, cfg::kProtoWifi);
  reconfigure(fcs, cfg::kFcsCrc32);

  const Bytes frame_wo_fcs = payload(123);
  mem.write_page_bytes(Mode::A, Page::Tx, frame_wo_fcs);
  ASSERT_TRUE(execute(tx, Op::TxFrameWifi, {page_base(Mode::A, Page::Tx), 0, 1}));

  ASSERT_TRUE(buf.frame_pending());
  const auto entry = buf.pop();
  ASSERT_EQ(entry.bytes.size(), frame_wo_fcs.size() + 4);
  // On-the-fly FCS must equal the software CRC.
  EXPECT_EQ(get_le32(entry.bytes, entry.bytes.size() - 4),
            crypto::Crc32::compute(frame_wo_fcs));
  // The page was extended in place by the slave.
  EXPECT_EQ(mem.page_byte_len(Mode::A, Page::Tx), frame_wo_fcs.size() + 4);
  // And the CRC-32 residue check holds over the whole staged frame.
  EXPECT_EQ(crypto::Crc32::compute(entry.bytes), kCrc32Residue);
}

// --------------------------------------------------- rx with FCS check

TEST_F(RfuHarness, RxDrainChecksResidue) {
  RxRfu rx(env());
  FcsRfu fcs(env());
  add2(rx, fcs);
  phy::RxBuffer buf;
  std::array<phy::RxBuffer*, kNumModes> bufs{&buf, nullptr, nullptr};
  rx.wire(&fcs, bufs);
  reconfigure(rx, cfg::kProtoWifi);
  reconfigure(fcs, cfg::kFcsCrc32);

  mac::wifi::DataHeader h;
  Bytes frame = mac::wifi::build_data_mpdu(h, payload(99));
  buf.deliver(frame, 12345);

  const u32 status = hw::ctrl_status_addr(Mode::A, hw::CtrlWord::kFcsOk);
  ASSERT_TRUE(execute(rx, Op::RxDrainWifi, {page_base(Mode::A, Page::Rx), 0, 1, status}));
  EXPECT_EQ(mem.read(status), 1u);
  EXPECT_EQ(mem.read_page_bytes(Mode::A, Page::Rx), frame);
  EXPECT_EQ(rx.last_rx_end(), 12345u);

  // A corrupted frame fails the residue check.
  frame[30] ^= 0x80;
  buf.deliver(frame, 20000);
  ASSERT_TRUE(execute(rx, Op::RxDrainWifi, {page_base(Mode::A, Page::Rx), 0, 1, status}));
  EXPECT_EQ(mem.read(status), 0u);
}

// --------------------------------------------------------------- AckRfu

TEST_F(RfuHarness, AckGenStagesSifsAlignedAck) {
  AckRfu ack(env());
  RxRfu rx(env());
  add2(ack, rx);
  phy::TxBuffer buf;
  std::array<phy::TxBuffer*, kNumModes> bufs{&buf, nullptr, nullptr};
  ack.wire(&rx, bufs, &tb);
  reconfigure(ack, cfg::kProtoWifi);

  const u64 ra = 0x112233445566ull;
  ASSERT_TRUE(execute(ack, Op::AckGenWifi,
                      {static_cast<Word>(ra), static_cast<Word>(ra >> 32), 0,
                       page_base(Mode::A, Page::Ack)}));
  ASSERT_TRUE(buf.frame_pending());
  const auto entry = buf.pop();
  EXPECT_TRUE(mac::wifi::is_ack(entry.bytes, mac::MacAddr::from_u64(ra)));
  // SIFS spacing: earliest start = rx_end(0) + 10 us = 2000 cycles @200 MHz.
  EXPECT_EQ(entry.earliest_start, 2000u);
}

// -------------------------------------------------------------- backoff

TEST_F(RfuHarness, CsmaWaitsAtLeastDifs) {
  BackoffRfu backoff(env());
  phy::Medium medium(mac::Protocol::WiFi, tb);
  sched.add(medium, "medium");
  add(backoff);
  std::array<phy::Medium*, kNumModes> media{&medium, nullptr, nullptr};
  backoff.wire(media, &tb);
  backoff.seed(77);
  reconfigure(backoff, cfg::kAccessCsmaWifi);

  const Cycle t0 = sched.now();
  ASSERT_TRUE(execute(backoff, Op::CsmaAccessWifi, {0, 0}, 10'000'000));
  const Cycle waited = sched.now() - t0;
  // At least DIFS (50 us = 10000 cycles).
  EXPECT_GE(waited, 10'000u);
  // And at most DIFS + CWmin slots (31 * 20 us) + overhead.
  EXPECT_LE(waited, 10'000u + 31u * 4000u + 1000u);
}

TEST_F(RfuHarness, TdmaWaitsForSlotBoundary) {
  BackoffRfu backoff(env());
  phy::Medium medium(mac::Protocol::WiMax, tb);
  sched.add(medium, "medium");
  add(backoff);
  std::array<phy::Medium*, kNumModes> media{&medium, nullptr, nullptr};
  backoff.wire(media, &tb);
  reconfigure(backoff, cfg::kAccessTdmaWimax);

  // 5 ms frame, slot at +500 us: first grant at cycle 100000 (500 us @200MHz).
  ASSERT_TRUE(execute(backoff, Op::TdmaAccessWimax, {0, 500, 5000}, 10'000'000));
  EXPECT_GE(medium.now(), 100'000u);
  EXPECT_LE(medium.now(), 101'000u);
}

// ------------------------------------------------------- pack / arq / etc

TEST_F(RfuHarness, PackAppendExtractRoundTrip) {
  PackRfu pack(env());
  add(pack);
  reconfigure(pack, cfg::kDefaultState);

  const Bytes sdu0 = payload(50, 1);
  const Bytes sdu1 = payload(77, 2);
  mem.write_page_bytes(Mode::B, Page::Crypt, sdu0);
  ASSERT_TRUE(execute(pack, Op::PackAppend,
                      {page_base(Mode::B, Page::Crypt), page_base(Mode::B, Page::Scratch),
                       0, 1}));
  mem.write_page_bytes(Mode::B, Page::Crypt, sdu1);
  ASSERT_TRUE(execute(pack, Op::PackAppend,
                      {page_base(Mode::B, Page::Crypt), page_base(Mode::B, Page::Scratch),
                       0, 0}));

  const u32 status = hw::ctrl_status_addr(Mode::B, hw::CtrlWord::kPackCount);
  ASSERT_TRUE(execute(pack, Op::PackExtract,
                      {page_base(Mode::B, Page::Scratch), page_base(Mode::B, Page::RxOut),
                       1, status}));
  EXPECT_EQ(mem.read_page_bytes(Mode::B, Page::RxOut), sdu1);
  EXPECT_NE(mem.read(status), 0xFFFFFFFFu);

  ASSERT_TRUE(execute(pack, Op::PackExtract,
                      {page_base(Mode::B, Page::Scratch), page_base(Mode::B, Page::RxOut),
                       2, status}));
  EXPECT_EQ(mem.read(status), 0xFFFFFFFFu);  // Out of range.
}

TEST_F(RfuHarness, ArqWindowTagAndFeedback) {
  ArqRfu arq(env());
  add(arq);
  rmem.load_blob(kArqRfu, cfg::kDefaultState, ArqRfu::make_config_blob(4, 16));
  reconfigure(arq, cfg::kDefaultState);

  const u32 status = hw::ctrl_status_addr(Mode::B, hw::CtrlWord::kArqOut);
  // Fill the window (size 4).
  for (u32 i = 0; i < 4; ++i) {
    ASSERT_TRUE(execute(arq, Op::ArqTag, {100, status}));
    EXPECT_EQ(mem.read(status), i);
  }
  ASSERT_TRUE(execute(arq, Op::ArqTag, {100, status}));
  EXPECT_EQ(mem.read(status), 0xFFFFFFFFu);  // Window full.

  // Cumulative feedback for BSN < 3 releases 3 slots.
  ASSERT_TRUE(execute(arq, Op::ArqFeedback, {100, 3, status}));
  EXPECT_EQ(mem.read(status), 3u);
  ASSERT_TRUE(execute(arq, Op::ArqTag, {100, status}));
  EXPECT_EQ(mem.read(status), 4u);
}

TEST_F(RfuHarness, ClassifierMatchesRuleTable) {
  ClassifierRfu cls(env());
  add(cls);
  rmem.load_blob(kClassifierRfu, cfg::kDefaultState,
                 ClassifierRfu::make_config_blob({{1, 0x100}, {2, 0x200}}));
  reconfigure(cls, cfg::kDefaultState);

  const u32 status = hw::ctrl_status_addr(Mode::B, hw::CtrlWord::kCid);
  ASSERT_TRUE(execute(cls, Op::Classify, {2, status}));
  EXPECT_EQ(mem.read(status), 0x200u);
  ASSERT_TRUE(execute(cls, Op::Classify, {9, status}));
  EXPECT_EQ(mem.read(status), 0xFFFFFFFFu);
}

TEST_F(RfuHarness, SeqAssignWrapsAtModulus) {
  SeqRfu seq(env());
  add(seq);
  seq.set_modulus(0, 4);
  reconfigure(seq, cfg::kDefaultState);

  const u32 status = hw::ctrl_status_addr(Mode::A, hw::CtrlWord::kSeqOut);
  for (u32 i = 0; i < 6; ++i) {
    ASSERT_TRUE(execute(seq, Op::SeqAssign, {0, status}));
    EXPECT_EQ(mem.read(status), i % 4);
  }
}

TEST_F(RfuHarness, SeqCheckFlagsDuplicates) {
  SeqRfu seq(env());
  add(seq);
  reconfigure(seq, cfg::kDefaultState);
  const u32 status = hw::ctrl_status_addr(Mode::A, hw::CtrlWord::kDupFlag);
  ASSERT_TRUE(execute(seq, Op::SeqCheck, {0, 0xAB, 17, status}));
  EXPECT_EQ(mem.read(status), 0u);
  ASSERT_TRUE(execute(seq, Op::SeqCheck, {0, 0xAB, 17, status}));
  EXPECT_EQ(mem.read(status), 1u);  // Same (src, seq|frag) again.
  ASSERT_TRUE(execute(seq, Op::SeqCheck, {0, 0xAB, 18, status}));
  EXPECT_EQ(mem.read(status), 0u);
}

// ---- Quiescence bounds under randomized stimulus ------------------------

/// Runs a randomized trigger/reconfiguration script against one MA-RFU and
/// returns every observable checkpoint. The script is a pure function of
/// the seed — idle gaps, inter-argument gaps (the CollectArgs span), op and
/// reconfiguration choices all come from one LCG — so an every-tick run and
/// a quiescence-skipping run see byte-identical stimulus at
/// identical cycles. Any over-estimated bound in the Idle, CollectArgs or
/// Reconfiguring phases (the trigger-driven spans of rfu.cpp) shows up as a
/// divergent busy/reconfig-cycle count, a missed completion inside a fixed
/// window, or a wrong output page.
std::vector<u64> drive_crypto_script(bool skip, u64 seed) {
  sim::Scheduler sched(200e6);
  sched.set_idle_skip(skip);
  hw::PacketMemory mem;
  hw::PacketBus bus(mem);
  hw::ReconfigMemory rmem;
  sim::TimeBase tb(200e6);
  Rfu::Env env;
  env.bus = &bus;
  env.rmem = &rmem;
  env.timebase = &tb;
  CryptoRfu crypto(env);
  sched.add(bus, "bus");
  sched.add(crypto, "rfu");
  auto run = [&](Cycle n) { sched.run_cycles(n); };

  const Bytes key = payload(16, 9);
  rmem.load_blob(kCryptoRfu, cfg::kCryptoRc4,
                 CryptoRfu::make_config_blob(cfg::kCryptoRc4, key));
  rmem.load_blob(kCryptoRfu, cfg::kCryptoAes,
                 CryptoRfu::make_config_blob(cfg::kCryptoAes, key));
  mem.write_page_bytes(Mode::A, Page::Raw, payload(160));

  u64 x = seed;
  auto rnd = [&x](u64 lim) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return (x >> 33) % lim;
  };
  std::vector<u64> log;
  u8 state = 0;  // 0 = not yet configured.
  for (int it = 0; it < 20; ++it) {
    run(1 + rnd(4000));  // Idle span: exercises the until-woken bound.
    if (state == 0 || rnd(3) == 0) {
      const u8 target = rnd(2) == 0 ? cfg::kCryptoRc4 : cfg::kCryptoAes;
      crypto.rc_configure(target);
      run(6000);  // Fixed window past the MA configuration stream.
      log.push_back(crypto.rdone());
      crypto.clear_rdone();
      state = target;
      continue;
    }
    bus.request_for_irc(Mode::A);
    run(16);
    log.push_back(bus.granted_irc(Mode::A));
    const bool rc4 = state == cfg::kCryptoRc4;
    const std::vector<Word> args =
        rc4 ? std::vector<Word>{page_base(Mode::A, Page::Raw),
                                page_base(Mode::A, Page::Crypt), 42, 0}
            : std::vector<Word>{page_base(Mode::A, Page::Raw),
                                page_base(Mode::A, Page::Crypt), 7, 8};
    // Random gaps between trigger words keep the RFU parked in CollectArgs
    // for randomized stretches — the span whose bound this test pins.
    auto put = [&](Word w) {
      bus.write(hw::rfu_trigger_addr(kCryptoRfu), w);
      run(1 + rnd(6));
    };
    put(make_command_word(rc4 ? Op::EncryptRc4 : Op::EncryptAes,
                          static_cast<u8>(args.size())));
    for (const Word a : args) put(a);
    put(0);  // Execute.
    bus.request_for_rfu(Mode::A, kCryptoRfu);
    run(400'000);  // Fixed window: generously past either cipher's runtime.
    log.push_back(crypto.done());
    crypto.clear_done();
    bus.release(Mode::A);
    run(4);
    log.push_back(crypto.busy_cycles());
    log.push_back(crypto.reconfig_cycles());
    log.push_back(crypto.exec_count());
    log.push_back(crypto.reconfig_count());
    u64 h = 1469598103934665603ull;  // FNV-1a over the output page.
    for (const u8 b : mem.read_page_bytes(Mode::A, Page::Crypt)) {
      h = (h ^ b) * 1099511628211ull;
    }
    log.push_back(h);
    log.push_back(sched.now());
  }
  return log;
}

TEST(RfuQuiescence, RandomizedScriptsMatchEveryTickExecution) {
  for (const u64 seed : {11ull, 29ull, 123ull}) {
    const std::vector<u64> every_tick = drive_crypto_script(false, seed);
    const std::vector<u64> skipping = drive_crypto_script(true, seed);
    EXPECT_EQ(every_tick, skipping) << "seed " << seed;
    // The fixed windows really did cover every completion: each logged
    // done/rdone/grant flag in the reference run is 1, so the equality
    // above pins real completions, not mutual timeouts.
    for (std::size_t i = 0; i < every_tick.size(); ++i) {
      if (every_tick[i] <= 1) {
        EXPECT_EQ(every_tick[i], 1u) << "checkpoint " << i;
      }
    }
  }
}

}  // namespace
}  // namespace drmp::rfu
