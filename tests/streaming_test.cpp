// StreamingRfu micro-sequencer tests through a minimal probe RFU: page
// reads/writes, unaligned byte patches, stalls, and cycle-cost accounting —
// the word-per-cycle contract every streaming unit relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "hw/memory_map.hpp"
#include "rfu/frag_rfu.hpp"
#include "rfu/streaming.hpp"
#include "sim/scheduler.hpp"

namespace drmp::rfu {
namespace {

using hw::Page;
using hw::page_base;

/// A probe RFU exposing the StreamingRfu micro-ops directly.
class ProbeRfu final : public StreamingRfu {
 public:
  explicit ProbeRfu(Env env) : StreamingRfu(31, "probe", ReconfigMech::ContextSwitch, env) {}

  // Plan configured by the test before triggering.
  std::function<void(ProbeRfu&)> plan;

  using StreamingRfu::in_bytes_;
  using StreamingRfu::in_words_;
  using StreamingRfu::out_bytes_;
  using StreamingRfu::q_patch_bytes;
  using StreamingRfu::q_read_page;
  using StreamingRfu::q_read_words;
  using StreamingRfu::q_stall;
  using StreamingRfu::q_write_len;
  using StreamingRfu::q_write_page;

 protected:
  void on_execute(Op) override {
    if (plan) plan(*this);
  }
  bool work_step() override { return io_step(); }
};

class StreamingTest : public ::testing::Test {
 protected:
  StreamingTest() : sched(200e6), bus(mem), tb(200e6) {
    Rfu::Env env;
    env.bus = &bus;
    env.rmem = &rmem;
    env.timebase = &tb;
    probe = std::make_unique<ProbeRfu>(env);
    sched.add(bus, "bus");
    sched.add(*probe, "probe");
    probe->rc_configure(1);
    sched.run_until([&] { return probe->rdone(); }, 100);
    probe->clear_rdone();
  }

  Cycle execute() {
    bus.request_for_irc(Mode::A);
    sched.run_until([&] { return bus.granted_irc(Mode::A); }, 100);
    bus.write(hw::rfu_trigger_addr(31), make_command_word(Op::Nop, 0));
    sched.run_cycles(1);
    bus.write(hw::rfu_trigger_addr(31), 0);  // Execute.
    const Cycle t0 = sched.now();
    bus.request_for_rfu(Mode::A, 31);
    sched.run_until([&] { return probe->done(); }, 1'000'000);
    const Cycle cost = sched.now() - t0;
    probe->clear_done();
    bus.release(Mode::A);
    sched.run_cycles(2);
    return cost;
  }

  sim::Scheduler sched;
  hw::PacketMemory mem;
  hw::PacketBus bus;
  hw::ReconfigMemory rmem;
  sim::TimeBase tb;
  std::unique_ptr<ProbeRfu> probe;
};

TEST_F(StreamingTest, ReadPageRecoversBytes) {
  Bytes data(123);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<u8>(i);
  mem.write_page_bytes(Mode::A, Page::Raw, data);
  probe->plan = [&](ProbeRfu& p) { p.q_read_page(page_base(Mode::A, Page::Raw)); };
  execute();
  EXPECT_EQ(probe->in_bytes_, data);
}

TEST_F(StreamingTest, WritePageCostIsOneWordPerCycle) {
  probe->plan = [&](ProbeRfu& p) {
    p.out_bytes_ = Bytes(400, 0x7E);
    p.q_write_page(page_base(Mode::A, Page::Tx));
  };
  const Cycle cost = execute();
  EXPECT_EQ(mem.read_page_bytes(Mode::A, Page::Tx), Bytes(400, 0x7E));
  // 1 len word + 100 data words, plus a few cycles of handshake.
  EXPECT_GE(cost, 101u);
  EXPECT_LE(cost, 110u);
}

TEST_F(StreamingTest, UnalignedPatchPreservesNeighbours) {
  // Patch 3 bytes at offset 5 (crosses a word boundary) and verify the
  // surrounding bytes are untouched — the read-modify-write path.
  Bytes base(16);
  for (std::size_t i = 0; i < base.size(); ++i) base[i] = static_cast<u8>(i + 1);
  mem.write_page_bytes(Mode::A, Page::Raw, base);
  probe->plan = [&](ProbeRfu& p) {
    p.out_bytes_ = {0xAA, 0xBB, 0xCC};
    p.q_patch_bytes(page_base(Mode::A, Page::Raw), 5);
  };
  execute();
  Bytes expect = base;
  expect[5] = 0xAA;
  expect[6] = 0xBB;
  expect[7] = 0xCC;
  EXPECT_EQ(mem.read_page_bytes(Mode::A, Page::Raw), expect);
}

TEST_F(StreamingTest, PatchAtEveryOffsetRoundTrips) {
  // Property sweep: 4-byte patch at offsets 0..11 must always land exactly.
  for (u32 off = 0; off < 12; ++off) {
    Bytes base(24, 0x11);
    mem.write_page_bytes(Mode::A, Page::Raw, base);
    probe->plan = [&](ProbeRfu& p) {
      p.out_bytes_ = {0xD0, 0xD1, 0xD2, 0xD3};
      p.q_patch_bytes(page_base(Mode::A, Page::Raw), off);
    };
    execute();
    const Bytes out = mem.read_page_bytes(Mode::A, Page::Raw);
    for (u32 i = 0; i < 24; ++i) {
      if (i >= off && i < off + 4) {
        EXPECT_EQ(out[i], 0xD0 + (i - off)) << "off=" << off << " i=" << i;
      } else {
        EXPECT_EQ(out[i], 0x11) << "off=" << off << " i=" << i;
      }
    }
  }
}

TEST_F(StreamingTest, StallConsumesExactCycles) {
  probe->plan = [&](ProbeRfu& p) { p.q_stall(57); };
  const Cycle cost = execute();
  EXPECT_GE(cost, 57u);
  EXPECT_LE(cost, 62u);
}

TEST_F(StreamingTest, WriteLenUpdatesLengthOnly) {
  mem.write_page_bytes(Mode::A, Page::Raw, Bytes(40, 0x3C));
  probe->plan = [&](ProbeRfu& p) { p.q_write_len(page_base(Mode::A, Page::Raw), 8); };
  execute();
  EXPECT_EQ(mem.page_byte_len(Mode::A, Page::Raw), 8u);
  EXPECT_EQ(mem.read_page_bytes(Mode::A, Page::Raw), Bytes(8, 0x3C));
}

TEST_F(StreamingTest, NoBusAccessWithoutGrant) {
  // Trigger the probe but never hand it the bus: it must not progress.
  probe->plan = [&](ProbeRfu& p) {
    p.out_bytes_ = Bytes(8, 1);
    p.q_write_page(page_base(Mode::A, Page::Tx));
  };
  bus.request_for_irc(Mode::A);
  sched.run_until([&] { return bus.granted_irc(Mode::A); }, 100);
  bus.write(hw::rfu_trigger_addr(31), make_command_word(Op::Nop, 0));
  sched.run_cycles(1);
  bus.write(hw::rfu_trigger_addr(31), 0);
  // Keep the bus for the IRC (request never switched to the RFU).
  sched.run_cycles(5000);
  EXPECT_FALSE(probe->done());
  EXPECT_EQ(mem.page_byte_len(Mode::A, Page::Tx), 0u);
  // Now hand it over: it finishes.
  bus.request_for_rfu(Mode::A, 31);
  sched.run_until([&] { return probe->done(); }, 100000);
  EXPECT_TRUE(probe->done());
}

// ------------------------------------------------ port-B settle on read

/// Reads packet memory through port B every cycle, from wherever it sits
/// in the tick order: one word of the destination page (rotating) and the
/// whole page. Once, at `write_at`, it writes a word of the source page.
class PortBProbe : public sim::Clockable {
 public:
  PortBProbe(hw::PacketMemory& mem, Cycle write_at) : mem_(mem), write_at_(write_at) {}
  void tick() override {
    const u32 dst = page_base(Mode::A, Page::Scratch);
    samples.push_back(mem_.cpu_read(dst + static_cast<u32>(now_ % hw::kPageWords)));
    const Bytes page = mem_.read_page_bytes(Mode::A, Page::Scratch);
    samples.push_back(mem_.page_byte_len(Mode::A, Page::Scratch));
    samples.push_back(fnv1a(page));
    if (now_ == write_at_) {
      mem_.cpu_write(page_base(Mode::A, Page::Crypt) + hw::kPageDataOffset + 1, 0xDEADBEEF);
    }
    ++now_;
  }
  std::vector<u64> samples;

 private:
  static u64 fnv1a(const Bytes& b) {
    u64 h = 1469598103934665603ull;
    for (u8 x : b) h = (h ^ x) * 1099511628211ull;
    return h;
  }
  hw::PacketMemory& mem_;
  Cycle write_at_;
  Cycle now_ = 0;
};

Bytes frag_source() {
  Bytes src(1600);
  for (std::size_t i = 0; i < src.size(); ++i) src[i] = static_cast<u8>(i * 7 + 1);
  return src;
}

struct PortBRun {
  std::vector<u64> before, after;  ///< Samples from either side of the unit.
  Bytes slice;
  Cycle done_at = 0;
  Cycle bus_busy = 0;
  u64 frag_ticks = 0;
};

/// A fragment copy (a 400-word read run, then a 400-word write run) while
/// port-B probes read its destination every cycle, one before the unit in
/// the default stage and one in the observer stage. The earlier probe
/// overwrites source word 1 mid-read-run, after every-tick mode read it.
PortBRun run_port_b(bool idle_skip) {
  sim::Scheduler sched(200e6);
  sched.set_idle_skip(idle_skip);
  hw::PacketMemory mem;
  hw::PacketBus bus(mem);
  hw::ReconfigMemory rmem;
  sim::TimeBase tb(200e6);
  Rfu::Env env;
  env.bus = &bus;
  env.rmem = &rmem;
  env.timebase = &tb;
  FragRfu frag(env);
  PortBProbe before(mem, 200), after(mem, ~Cycle{0});
  sched.add(bus, "bus");
  sched.add(before, "before");
  sched.add(frag, "frag");  // Registration index 2.
  sched.add(after, "after", sim::Scheduler::kStageObserver);
  mem.write_page_bytes(Mode::A, Page::Crypt, frag_source());

  bus.request_for_irc(Mode::A);
  sched.run_until([&] { return bus.granted_irc(Mode::A); }, 100);
  for (Word w : {make_command_word(Op::FragmentWifi, 4), page_base(Mode::A, Page::Crypt),
                 page_base(Mode::A, Page::Scratch), Word{1600}, Word{0}, Word{0}}) {
    bus.write(hw::rfu_trigger_addr(kFragRfu), w);
    sched.run_cycles(1);
  }
  bus.request_for_rfu(Mode::A, kFragRfu);
  const u64 ticks0 = sched.component_executed(2);
  EXPECT_TRUE(sched.run_until([&] { return frag.done(); }, 10'000));
  PortBRun r;
  r.frag_ticks = sched.component_executed(2) - ticks0;
  r.done_at = sched.now();
  frag.clear_done();
  bus.release(Mode::A);
  sched.run_cycles(5);
  r.bus_busy = bus.busy_cycles();
  r.before = std::move(before.samples);
  r.after = std::move(after.samples);
  r.slice = mem.read_page_bytes(Mode::A, Page::Scratch);
  return r;
}

TEST(PortBSettle, ReadersMatchEveryTickEitherSideOfTheUnit) {
  const PortBRun every = run_port_b(false);
  const PortBRun lazy = run_port_b(true);
  for (const auto& [e, l, side] : {std::tuple{&every.before, &lazy.before, "before"},
                                   std::tuple{&every.after, &lazy.after, "after"}}) {
    const std::size_t n = std::min(e->size(), l->size());
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ((*e)[i], (*l)[i]) << side << "-probe sample " << i;
    }
    EXPECT_EQ(e->size(), l->size()) << side;
  }
  EXPECT_EQ(every.done_at, lazy.done_at);
  EXPECT_EQ(every.bus_busy, lazy.bus_busy);
  EXPECT_EQ(every.slice, lazy.slice);
  // Not vacuous: word 1 was copied before the overwrite landed, the
  // probes watched the destination's length go from 0 to the slice's, and
  // reads did not wake the unit.
  EXPECT_EQ(every.slice, frag_source());
  EXPECT_EQ(every.after[1], 0u);
  EXPECT_EQ(every.after[every.after.size() - 2], 1600u);
  EXPECT_LT(lazy.frag_ticks, 16u);
  EXPECT_GT(every.frag_ticks, 800u);
}

}  // namespace
}  // namespace drmp::rfu
