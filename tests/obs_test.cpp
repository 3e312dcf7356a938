// PR-7 observability: the flight recorder's determinism contract (the event
// stream of a contended cell is byte-identical across worker pools and
// idle-skip, and pinned against a golden timeline), the recorder's
// non-perturbation guarantee (recorder-on digests equal the recorder-off
// pins), the metrics registry and the counter rows that feed it, the
// scheduler/lane execution profile, and the signal domain: scope queries,
// its retention cap, and that signals never reach a golden surface.
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "gtest/gtest.h"
#include "hw/interconnect_models.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_export.hpp"
#include "scenario/scenario_engine.hpp"

namespace drmp {
namespace {

// ---- FlightRecorder ring --------------------------------------------------

TEST(FlightRecorder, RetainsEverythingBelowCapacity) {
  obs::FlightRecorder rec(8);
  const u16 t = rec.track("a");
  for (Cycle c = 0; c < 5; ++c) rec.log(c, obs::EventKind::kOffered, t, 1, 2);
  EXPECT_EQ(rec.size(), 5u);
  EXPECT_EQ(rec.dropped(), 0u);
  const auto evs = rec.events();
  ASSERT_EQ(evs.size(), 5u);
  for (Cycle c = 0; c < 5; ++c) EXPECT_EQ(evs[c].cycle, c);
}

TEST(FlightRecorder, RingEvictsOldestAndCountsDrops) {
  obs::FlightRecorder rec(4);
  const u16 t = rec.track("a");
  for (Cycle c = 0; c < 10; ++c) rec.log(c, obs::EventKind::kOffered, t);
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.dropped(), 6u);
  const auto evs = rec.events();
  ASSERT_EQ(evs.size(), 4u);
  // Oldest-first: cycles 6..9 survive, in order.
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(evs[i].cycle, 6 + i);
}

TEST(FlightRecorder, TrackIdsAreDenseAndStable) {
  obs::FlightRecorder rec;
  EXPECT_EQ(rec.track("medium.A"), 0);
  EXPECT_EQ(rec.track("station1"), 1);
  EXPECT_EQ(rec.track("medium.A"), 0);  // Lookup, not re-registration.
  ASSERT_EQ(rec.tracks().size(), 2u);
  EXPECT_EQ(rec.tracks()[1], "station1");
}

// ---- Metrics registry -----------------------------------------------------

TEST(Metrics, HistogramBucketsByBitWidth) {
  obs::Histogram h;
  h.observe(0);
  h.observe(1);
  h.observe(1024);
  EXPECT_EQ(h.count, 3u);
  EXPECT_EQ(h.sum, 1025u);
  EXPECT_EQ(h.max, 1024u);
  EXPECT_EQ(h.buckets[0], 1u);   // value 0
  EXPECT_EQ(h.buckets[1], 1u);   // value 1
  EXPECT_EQ(h.buckets[11], 1u);  // 1024 = bit width 11
}

TEST(Metrics, TextDumpIsDeterministic) {
  obs::MetricsRegistry r;
  r.add("b/counter", 2);
  r.add("a/counter", 1);
  r.max_gauge("d/gauge", 7);
  r.max_gauge("d/gauge", 5);  // Gauges keep the high-watermark.
  r.observe("c/hist", 5);
  // Ordered maps: "a/counter" serialises before "b/counter" regardless of
  // registration order.
  EXPECT_EQ(r.to_text(),
            "a/counter 1\nb/counter 2\nd/gauge 7\nc/hist count=1 sum=5 max=5\n");
}

// ---- Signal domain ----------------------------------------------------------

TEST(Signal, ActiveCyclesAndValueAt) {
  obs::FlightRecorder rec;
  const u16 x = rec.track("x");
  rec.signal(0, x, 0);
  rec.signal(10, x, 3);
  rec.signal(20, x, 0);
  rec.signal(30, x, 1);
  EXPECT_EQ(obs::active_cycles(rec, "x", 0, 40), 10u + 10u);
  EXPECT_EQ(obs::value_at(rec, "x", 5).value(), 0);
  EXPECT_EQ(obs::value_at(rec, "x", 15).value(), 3);
  EXPECT_EQ(obs::value_at(rec, "x", 25).value(), 0);
  EXPECT_EQ(obs::value_at(rec, "x", 35).value(), 1);
}

TEST(Signal, RecordCollapsesDuplicates) {
  obs::FlightRecorder rec;
  const u16 x = rec.track("x");
  rec.signal(0, x, 5);
  rec.signal(1, x, 5);
  rec.signal(2, x, 5);
  EXPECT_EQ(obs::track_events(rec, "x").size(), 1u);
}

TEST(Signal, SameCycleOverwriteCollapsesIntoItsPredecessor) {
  obs::FlightRecorder rec;
  const u16 x = rec.track("x");
  rec.signal(0, x, 1);
  rec.signal(4, x, 2);
  rec.signal(4, x, 1);  // Back to the value before: the change vanishes.
  ASSERT_EQ(obs::track_events(rec, "x").size(), 1u);
  EXPECT_EQ(rec.size(), 1u);
  rec.signal(4, x, 3);
  ASSERT_EQ(obs::track_events(rec, "x").size(), 2u);
  EXPECT_EQ(obs::track_events(rec, "x").back().a, 3);
}

TEST(Signal, AsciiWaveformRenders) {
  obs::FlightRecorder rec;
  const u16 sig = rec.track("sig");
  rec.signal(0, sig, 0);
  rec.signal(50, sig, 1);
  rec.signal(75, sig, 0);
  const std::string wf = obs::ascii_waveform(rec, {"sig"}, 0, 100, 20);
  EXPECT_NE(wf.find("sig"), std::string::npos);
  EXPECT_NE(wf.find('1'), std::string::npos);
  EXPECT_NE(wf.find('.'), std::string::npos);
  // An unregistered track renders as a row of '?'.
  EXPECT_NE(obs::ascii_waveform(rec, {"none"}, 0, 100, 20).find(std::string(20, '?')),
            std::string::npos);
}

/// Ten cycles of a toggling signal into a capacity-4 recorder.
void fill_past_cap(obs::FlightRecorder& rec, u16 track) {
  for (Cycle c = 0; c < 10; ++c) rec.signal(c, track, static_cast<i64>(c % 2));
}

TEST(Signal, CapsRetainedEventsAndCountsDrops) {
  obs::FlightRecorder rec(4);
  const u16 sig = rec.track("sig");
  fill_past_cap(rec, sig);
  EXPECT_EQ(rec.signal_events(sig).size(), 4u);
  // Cycles 4,6,8 are changes past the cap (counted drops); 5,7,9 match the
  // retained tail value and are suppressed as no-change, not drops.
  EXPECT_EQ(rec.dropped(), 3u);
  // Same-cycle overwrite of the newest retained event still applies at cap.
  rec.signal(3, sig, 42);
  EXPECT_EQ(rec.signal_events(sig).size(), 4u);
  EXPECT_EQ(rec.signal_events(sig).back().a, 42);
}

TEST(Signal, TruncatedHistoryThrowsNamingTheDrops) {
  obs::FlightRecorder rec(4);
  fill_past_cap(rec, rec.track("sig"));
  rec.log(9, obs::EventKind::kBusRequest, rec.track("packet_bus"), 0);
  EXPECT_EQ(rec.dropped(), 4u);
  const auto expect_throws = [](const auto& query) {
    try {
      query();
      ADD_FAILURE() << "a truncated history was read without an error";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("dropped 4 events"), std::string::npos)
          << e.what();
    }
  };
  expect_throws([&] { obs::ascii_waveform(rec, {"sig"}, 0, 10, 10); });
  expect_throws([&] { obs::active_cycles(rec, "sig", 0, 10); });
  expect_throws([&] { hw::bus_transactions(rec, 10); });
  // A recorder that kept everything reads fine.
  obs::FlightRecorder whole(16);
  fill_past_cap(whole, whole.track("sig"));
  EXPECT_EQ(obs::active_cycles(whole, "sig", 0, 10), 5u);
}

TEST(Signal, NeverReachesAGoldenSurface) {
  // The same protocol events into two recorders; one also holds signal
  // and bus events, on tracks registered in between.
  obs::FlightRecorder plain(64);
  obs::FlightRecorder mixed(64);
  const auto protocol = [](obs::FlightRecorder& rec, Cycle c) {
    rec.log(c, obs::EventKind::kOffered, rec.track("station1"), 100, 0);
    rec.log(c + 1, obs::EventKind::kTxStart, rec.track("medium.A"), 1, 40);
  };
  protocol(plain, 0);
  protocol(mixed, 0);
  const u16 thm = mixed.track("thm.A");
  const u16 bus = mixed.track("packet_bus");
  mixed.signal(3, thm, 2);
  mixed.log(4, obs::EventKind::kBusRequest, bus, 0);
  mixed.log(5, obs::EventKind::kBusAccess, bus, 0, 1);
  mixed.log(6, obs::EventKind::kBusRun, bus, 0, 8);
  mixed.log(15, obs::EventKind::kBusRelease, bus, 0);
  protocol(plain, 20);
  protocol(mixed, 20);
  mixed.signal(21, thm, 0);

  EXPECT_EQ(obs::text_timeline({&mixed}), obs::text_timeline({&plain}));
  const auto protocol_count = [](const obs::FlightRecorder& rec) {
    const std::vector<obs::Event> evs = rec.events();
    return std::count_if(evs.begin(), evs.end(), [](const obs::Event& ev) {
      return obs::protocol_domain(ev.kind);
    });
  };
  EXPECT_EQ(protocol_count(mixed), protocol_count(plain));
  EXPECT_EQ(protocol_count(plain), 4);
  // Not vacuous: the signal and bus events are there, in the Chrome export.
  EXPECT_EQ(mixed.size(), plain.size() + 6);
  EXPECT_NE(obs::chrome_trace({&mixed}).find("bus_run"), std::string::npos);
  ASSERT_EQ(hw::bus_transactions(mixed, 20).size(), 1u);
  EXPECT_EQ(hw::bus_transactions(mixed, 20)[0].words, 9u);
}

// ---- Recorder-on fleet runs ----------------------------------------------

scenario::FleetStats run_contended4(unsigned workers, bool idle_skip,
                                    bool traced,
                                    std::string* timeline = nullptr,
                                    std::string* chrome = nullptr) {
  scenario::ScenarioSpec spec =
      scenario::ScenarioSpec::contended_wifi_cell(4, /*seed=*/1,
                                                  /*msdus_per_station=*/3);
  spec.worker_threads = workers;
  spec.idle_skip = idle_skip;
  spec.trace.enabled = traced;
  scenario::ScenarioEngine engine(std::move(spec));
  scenario::FleetStats fs = engine.run();
  if (timeline != nullptr) *timeline = engine.text_timeline();
  if (chrome != nullptr) *chrome = engine.chrome_trace();
  return fs;
}

// Recorder-off pins: the PR-6 digests must survive the instrumentation
// unchanged (every DRMP_OBS site compiles to a null-checked no-op when no
// recorder is attached, and none of the new counters feed a digest).
TEST(RecorderOff, ContendedCellDigestMatchesPin) {
  const scenario::FleetStats fs = run_contended4(1, true, false);
  EXPECT_EQ(fs.full_digest(), 0x215632c897c55d3dull);
}

TEST(RecorderOff, MixedFleetDigestMatchesPin) {
  const scenario::FleetStats fs =
      scenario::ScenarioEngine(
          scenario::ScenarioSpec::mixed_three_standard(8, 1, 2))
          .run();
  EXPECT_EQ(fs.full_digest(), 0x7a40977437a44782ull);
}

// Recorder-on must not perturb the simulation: same digest as the pin.
TEST(RecorderOn, TracingDoesNotPerturbTheDigest) {
  const scenario::FleetStats fs = run_contended4(1, true, true);
  EXPECT_EQ(fs.full_digest(), 0x215632c897c55d3dull);
}

TEST(RecorderOn, TimelineIsByteIdenticalAcrossWorkersAndIdleSkip) {
#if defined(DRMP_OBS_DISABLE)
  GTEST_SKIP() << "flight recorder compiled out";
#endif
  std::string base;
  run_contended4(1, true, true, &base);
  EXPECT_FALSE(base.empty());
  const unsigned worker_settings[] = {1, 0};
  const bool skip_settings[] = {true, false};
  for (const unsigned w : worker_settings) {
    for (const bool s : skip_settings) {
      std::string t;
      run_contended4(w, s, true, &t);
      EXPECT_EQ(t, base) << "workers=" << w << " idle_skip=" << s;
    }
  }
}

TEST(RecorderOn, TimelineMatchesGoldenFile) {
#if defined(DRMP_OBS_DISABLE)
  GTEST_SKIP() << "flight recorder compiled out";
#endif
  std::string timeline;
  run_contended4(1, true, true, &timeline);
  const std::string path =
      std::string(DRMP_SOURCE_DIR) + "/tests/golden/contended4_timeline.txt";
  if (const char* regen = std::getenv("DRMP_REGEN_GOLDEN");
      regen != nullptr && *regen != '\0') {
    std::ofstream out(path);
    out << timeline;
    ASSERT_TRUE(out) << "failed to write " << path;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream f(path);
  ASSERT_TRUE(f) << "missing golden file " << path;
  std::ostringstream golden;
  golden << f.rdbuf();
  EXPECT_EQ(timeline, golden.str())
      << "regenerate with tools/regen_golden_timeline.sh if the protocol "
         "timeline legitimately changed (digest-visible change; the commit "
         "must say so)";
}

TEST(RecorderOn, ChromeTraceIsWellFormedAndTracked) {
#if defined(DRMP_OBS_DISABLE)
  GTEST_SKIP() << "flight recorder compiled out";
#endif
  std::string chrome;
  run_contended4(1, true, true, nullptr, &chrome);
  EXPECT_EQ(chrome.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(chrome.find("\"process_name\""), std::string::npos);
  EXPECT_NE(chrome.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(chrome.find("\"station1\""), std::string::npos);
  EXPECT_NE(chrome.find("\"medium.A\""), std::string::npos);
  EXPECT_NE(chrome.find("\"tx_start\""), std::string::npos);
  // Balanced braces: a cheap structural check without a JSON parser.
  long depth = 0;
  for (const char c : chrome) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

// ---- Registry-backed totals & execution profile ---------------------------

TEST(FleetMetrics, RegistryTotalsMatchDeviceStats) {
  const scenario::FleetStats fs = run_contended4(1, true, false);
  ASSERT_FALSE(fs.metrics.empty());
  // Every row's registry total is its fold over the collected structs.
  for (const auto& row : scenario::kDeviceRows) {
    u64 want = 0;
    for (const auto& ds : fs.devices) want = combine(row.fold, want, row.value(ds));
    EXPECT_EQ(fs.total(row), want) << row.name;
  }
  for (const auto& row : scenario::kCellRows) {
    u64 want = 0;
    for (const auto& cs : fs.cells) want = combine(row.fold, want, row.value(cs));
    EXPECT_EQ(fs.total(row), want) << row.name;
  }
  u64 defers = 0, nav_defers = 0, collisions = 0;
  for (const auto& ds : fs.devices) {
    defers += ds.defers;
    nav_defers += ds.nav_defers;
    for (std::size_t m = 0; m < kNumModes; ++m) collisions += ds.collisions[m];
  }
  EXPECT_EQ(fs.metrics.counter("mac/defers"), defers);
  EXPECT_EQ(fs.metrics.counter("mac/nav_defers"), nav_defers);
  EXPECT_EQ(fs.metrics.counter("medium/collisions"), collisions);
  EXPECT_EQ(fs.total_defers(), defers);
  EXPECT_EQ(fs.total_collisions(), collisions);
  // The per-station breakdown namespaces under cell<n>/station<id>/.
  EXPECT_TRUE(fs.metrics.counter("cell0/station1/mac/defers").has_value());
  EXPECT_TRUE(fs.metrics.counter("cell0/medium.A/busy_cycles").has_value());
}

TEST(FleetMetrics, ExecutionProfileIsPopulated) {
  const scenario::FleetStats fs = run_contended4(1, true, false);
  EXPECT_GT(fs.ticks_executed, 0u);
  EXPECT_GT(fs.medium_ticks_executed, 0u);
  EXPECT_GT(fs.lockstep_rounds, 0u);
  // idle_skip on: the medium spends most of the run skipped.
  EXPECT_GT(fs.medium_ticks_skipped, 0u);
  // Every profile row sits in the registry next to the protocol counters,
  // with the member's value (kMax rows as gauges).
  for (const sim::ExecRow& row : sim::kExecRows) {
    const std::string key = std::string("sched/") + row.name;
    if (row.fold == sim::FoldRule::kMax) {
      EXPECT_EQ(fs.metrics.gauge(key), static_cast<i64>(fs.*row.field)) << key;
    } else {
      EXPECT_EQ(fs.metrics.counter(key), fs.*row.field) << key;
    }
  }
}

}  // namespace
}  // namespace drmp
