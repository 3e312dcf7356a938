// drmp_perfbench — the repository's end-to-end and per-layer benchmark.
//
// Times the public entry point of each layer from outside the program: the
// scenario::ScenarioSpec factories, the ScenarioEngine constructor and
// run(), net::Cell::drained() and the crypto::Des / Aes128 / Rc4 calls. It
// reads the deterministic work counters the engine already exports
// (FleetStats, the scheduler profile folded into it, the metrics registry)
// and refuses every run that does not drain and reproduce its workload's
// first full_digest. See NOTES.md beside this file for the workloads, the
// layer -> metric -> end-to-end map and how to read the trace.
//
//   drmp_perfbench --workload fleet_p2p|cell_dense
//                  --seed N --seconds S --trace 0|1 [--tiny] [--out DIR]
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}: end-to-end metrics with --trace 0, per-layer metrics with
// --trace 1. Lines before it are a human-readable report (medians with
// quartiles and sample counts, every ratio with its base); the same report
// is written as JSON into DIR.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "crypto/aes128.hpp"
#include "crypto/des.hpp"
#include "crypto/rc4.hpp"
#include "net/cell.hpp"
#include "obs/flight_recorder.hpp"
#include "scenario/scenario_engine.hpp"
#include "scenario/scenario_spec.hpp"

namespace {

using namespace drmp;
using scenario::FleetStats;
using scenario::ScenarioEngine;
using scenario::ScenarioSpec;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------- workloads

struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;  // Self-test sizes: seconds-long runs become milliseconds.
  std::string out_dir = ".";
};

// A workload is a list of independent instances, each its own engine, run
// one after another; instance k of seed n is seeded n * count + k. Every
// instance runs serially (worker_threads = 1): that is the digest reference,
// and it keeps one benchmark process on one core. Budgets are 4x each
// factory's, so a run that stops on its budget is a real failure, never a
// marginal seed.
//
// Instances are small so that one engine's state stays in cache while it
// runs: a run then waits little on the host's shared DRAM, which other
// tenants load (see NOTES.md). Together they carry over a thousand MSDUs, so
// the p99 latency has ten samples beyond it and a seed's figures do not hang
// on a few devices.

// Four 16-device mixed_three_standard fleets: point-to-point lanes with a
// WiFi/WiMAX/UWB mix on lossy channels, 8 MSDUs per mode.
std::vector<ScenarioSpec> fleet_p2p(u64 seed, bool tiny) {
  const u64 count = tiny ? 2 : 4;
  std::vector<ScenarioSpec> out;
  for (u64 k = 0; k < count; ++k) {
    ScenarioSpec s =
        ScenarioSpec::mixed_three_standard(tiny ? 4 : 16, seed * count + k, tiny ? 2 : 8);
    s.name = "fleet_p2p";
    s.max_cycles *= 4;
    out.push_back(std::move(s));
  }
  return out;
}

// Sixteen 16-station cells, alternating the trivial (all-hear-all) matrix
// fast path with hidden-pair cells through the per-listener path, NAV on
// and RTS at 512 B. A change to one matrix path shows on half the cells
// only. The hidden-pair cells carry half the MSDUs per station: their
// latencies form a separate, much lower mode, and with equal MSDU counts the
// pooled median would sit on the seam between the two modes and jump
// between them from seed to seed.
std::vector<ScenarioSpec> cell_dense(u64 seed, bool tiny) {
  const u64 count = tiny ? 2 : 16;
  const std::size_t stations = tiny ? 4 : 16;
  const u32 msdus = tiny ? 2 : 6;
  std::vector<ScenarioSpec> out;
  for (u64 k = 0; k < count; ++k) {
    const u64 sk = seed * count + k;
    ScenarioSpec s = k % 2 == 0 ? ScenarioSpec::contended_wifi_cell(stations, sk, msdus)
                                : ScenarioSpec::contended_wifi_topology(
                                      stations, ScenarioSpec::Reach::kHiddenPair, sk,
                                      msdus / 2, 512);
    s.name = "cell_dense";
    s.max_cycles *= 4;
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<ScenarioSpec> make_specs(const Args& a) {
  std::vector<ScenarioSpec> specs;
  if (a.workload == "fleet_p2p") {
    specs = fleet_p2p(a.seed, a.tiny);
  } else if (a.workload == "cell_dense") {
    specs = cell_dense(a.seed, a.tiny);
  } else {
    throw std::invalid_argument("unknown workload '" + a.workload + "'");
  }
  for (ScenarioSpec& s : specs) s.worker_threads = 1;
  return specs;
}

// ------------------------------------------------------------- statistics

struct Summary {
  double median = 0, q1 = 0, q3 = 0;
  std::size_t n = 0;
};

// Quartiles by linear interpolation between closest ranks (the "inclusive"
// method); n = 1 gives the value three times.
Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const auto at = [&](double p) {
    const double pos = p * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
  };
  s.q1 = at(0.25);
  s.median = at(0.5);
  s.q3 = at(0.75);
  return s;
}

// Nearest-rank percentile of a sorted sample.
double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

// ------------------------------------------------------------ the counters

// Everything deterministic one run produces: the digests plus every work
// counter the benchmark reports, over every instance of a workload. Two runs
// of one workload must agree exactly.
struct Counters {
  // Chained over the instances in order (see mix()).
  u64 full_digest = 0, completion_digest = 0, registry_hash = 0;
  bool drained = true;
  std::map<std::string, double> values;  // Deterministic per-layer metrics.
  u64 device_cycles = 0, stations = 0;
  std::array<u64, kNumModes> offered_bytes{};

  bool operator==(const Counters& o) const {
    return full_digest == o.full_digest &&
           completion_digest == o.completion_digest &&
           registry_hash == o.registry_hash && drained == o.drained &&
           values == o.values && device_cycles == o.device_cycles;
  }
};

u64 fnv(const std::string& s) {
  u64 h = 1469598103934665603ull;
  for (const unsigned char c : s) h = (h ^ c) * 1099511628211ull;
  return h;
}

// Folds one instance's 64-bit digest into a workload's running one.
u64 mix(u64 h, u64 x) {
  for (int i = 0; i < 8; ++i) h = (h ^ ((x >> (8 * i)) & 0xFF)) * 1099511628211ull;
  return h;
}

// Adds one instance's run to `c`: digests chain, counts add up. Call
// derive() once every instance is in.
void add_counters(Counters& c, const FleetStats& fs, ScenarioEngine& eng) {
  c.full_digest = mix(c.full_digest, fs.full_digest());
  c.completion_digest = mix(c.completion_digest, fs.completion_digest());
  c.registry_hash = mix(c.registry_hash, fnv(fs.metrics.to_text()));
  c.drained = c.drained && fs.all_drained;
  c.device_cycles += fs.device_cycles_total();
  c.stations += fs.devices.size();
  auto& v = c.values;
  v["sim.ticks_executed"] += static_cast<double>(fs.ticks_executed);
  v["sim.ticks_skipped"] += static_cast<double>(fs.ticks_skipped);
  v["sim.ff_events"] += static_cast<double>(fs.ff_events);
  v["sim.ff_cycles"] += static_cast<double>(fs.ff_cycles);
  v["sim.wheel_cascades"] += static_cast<double>(fs.wheel_cascades);
  v["sim.wheel_purges"] += static_cast<double>(fs.wheel_purges);
  v["sim.wheel_depth_max"] =
      std::max(v["sim.wheel_depth_max"], static_cast<double>(fs.wheel_depth_max));
  v["sim.medium_ticks_executed"] += static_cast<double>(fs.medium_ticks_executed);
  v["sim.medium_ticks_skipped"] += static_cast<double>(fs.medium_ticks_skipped);
  v["sim.lockstep_rounds"] += static_cast<double>(fs.lockstep_rounds);
  v["sim.lane_rounds_skipped"] += static_cast<double>(fs.lane_rounds_skipped);
  v["sim.lane_stall_cycles"] += static_cast<double>(fs.lane_stall_cycles);
  // Drained predicates run once per live lane per round: a lane's clock
  // stops at its retiring round edge, so its rounds are now() / stride.
  const double stride = static_cast<double>(eng.effective_stride());
  for (std::size_t i = 0; i < eng.cell_count(); ++i) {
    v["sim.live_lane_rounds"] +=
        std::ceil(static_cast<double>(eng.cell(i).scheduler().now()) / stride);
  }

  v["net.collisions"] += static_cast<double>(fs.total_collisions());
  v["net.defers"] += static_cast<double>(fs.total_defers());
  v["net.nav_defers"] += static_cast<double>(fs.total_nav_defers());
  // Point-to-point cells keep no shared-medium stats: these stay 0.
  double& busy = v["net.busy_cycles"];
  double& collided = v["net.collided_airtime"];
  for (const scenario::CellStats& cs : fs.cells) {
    for (std::size_t m = 0; m < kNumModes; ++m) {
      busy += static_cast<double>(cs.busy_cycles[m]);
      collided += static_cast<double>(cs.collided_airtime[m]);
    }
  }
  double& offered = v["mac.offered"];
  double& completed = v["mac.completed"];
  double& ok = v["mac.tx_ok"];
  double& retries = v["mac.retries"];
  double& cpu = v["cpu.activity"];  // Sums until derive().
  double& bus = v["hw.bus_activity"];
  for (const scenario::DeviceStats& ds : fs.devices) {
    for (std::size_t m = 0; m < kNumModes; ++m) {
      offered += ds.offered[m];
      completed += ds.completed[m];
      ok += ds.tx_ok[m];
      retries += static_cast<double>(ds.retries[m]);
      c.offered_bytes[m] += ds.offered_bytes[m];
    }
    cpu += ds.power.cpu_activity;
    bus += ds.power.bus_activity;
  }
  v["sim_gated_mw_per_device"] += fs.fleet_gated_mw();
}

// Turns the sums add_counters() left into the reported ratios and means.
void derive(Counters& c) {
  auto& v = c.values;
  const double n = std::max<double>(1.0, static_cast<double>(c.stations));
  const double executed = v["sim.ticks_executed"];
  v["sim.skip_ratio"] = executed > 0 ? v["sim.ticks_skipped"] / executed : 0.0;
  // No shared air (point-to-point cells) wastes none of it.
  const double busy = v["net.busy_cycles"];
  v["net.airtime_efficiency"] = busy > 0 ? 1.0 - v["net.collided_airtime"] / busy : 1.0;
  const double offered = v["mac.offered"];
  v["msdu_delivered_ratio"] = offered > 0 ? v["mac.tx_ok"] / offered : 0.0;
  v["cpu.activity"] /= n;
  v["hw.bus_activity"] /= n;
  v["sim_gated_mw_per_device"] /= n;
  v["sim.device_cycles"] = static_cast<double>(c.device_cycles);
}

// ------------------------------------------------------------------ spans

struct Span {
  int id = 0;
  int parent = -1;
  std::string name;
  double start_s = 0, end_s = 0;  // Relative to the trace origin.
};

// In-memory span log, written out once when the run ends.
class Tracer {
 public:
  /// Spans are recorded only after start(): the measured runs stay untraced.
  void start() {
    on_ = true;
    origin_ = Clock::now();
  }

  int begin(const std::string& name) {
    if (!on_) return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{static_cast<int>(spans_.size()), parent, name, now(), 0});
    open_.push_back(spans_.back().id);
    return spans_.back().id;
  }
  void end(int id) {
    if (!on_) return;
    spans_[static_cast<std::size_t>(id)].end_s = now();
    open_.pop_back();
  }
  /// A closed child span measured by the caller (its interval is known only
  /// after the fact, like the collection tail of run()).
  void add_closed(const std::string& name, double start_s, double end_s) {
    if (!on_) return;
    spans_.push_back(Span{static_cast<int>(spans_.size()),
                          open_.empty() ? -1 : open_.back(), name, start_s, end_s});
  }
  double now() const { return seconds_since(origin_); }
  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Duration minus the part of the interval its direct children cover
  /// (children of one span never overlap: the benchmark is sequential).
  double self_s(const Span& s) const {
    double covered = 0;
    for (const Span& c : spans_) {
      if (c.parent == s.id) covered += c.end_s - c.start_s;
    }
    return (s.end_s - s.start_s) - covered;
  }

 private:
  bool on_ = false;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// -------------------------------------------------------------- the probes

struct CryptoProbe {
  double des_ns_per_byte = 0, aes_ns_per_byte = 0, rc4_ns_per_byte = 0;
};

// Times each cipher over MSDU-sized buffers (256..1496 B, whole DES blocks)
// drawn from the workload seed; the median of several passes per cipher.
// The first pass is decrypted again and must give back the plaintext.
CryptoProbe probe_crypto(u64 seed, bool tiny) {
  u64 x = seed * 0x9E3779B97F4A7C15ull + 1;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::vector<Bytes> bufs(32);
  std::size_t total = 0;
  for (Bytes& b : bufs) {
    b.resize(256 + 8 * (next() % 156));
    for (u8& byte : b) byte = static_cast<u8>(next());
    total += b.size();
  }
  std::array<u8, 16> key{}, iv{};
  for (u8& k : key) k = static_cast<u8>(next());
  for (u8& k : iv) k = static_cast<u8>(next());

  const crypto::Des des(std::span<const u8>(key.data(), 8));
  const crypto::Aes128 aes(key);
  const int passes = tiny ? 3 : 9;
  const auto time_ns_per_byte = [&](const std::function<void(Bytes&)>& op,
                                    const std::function<void(Bytes&)>& undo) {
    std::vector<double> samples;
    for (int p = 0; p < passes; ++p) {
      std::vector<Bytes> work = bufs;
      const auto t0 = Clock::now();
      for (Bytes& b : work) op(b);
      samples.push_back(seconds_since(t0) * 1e9 / static_cast<double>(total));
      if (p == 0) {
        for (Bytes& b : work) undo(b);
        if (work != bufs) throw std::runtime_error("crypto probe: roundtrip mismatch");
      }
    }
    return summarize(samples).median;
  };
  CryptoProbe r;
  r.des_ns_per_byte = time_ns_per_byte(
      [&](Bytes& b) { des.cbc_encrypt(std::span<const u8>(iv.data(), 8), b); },
      [&](Bytes& b) { des.cbc_decrypt(std::span<const u8>(iv.data(), 8), b); });
  r.aes_ns_per_byte = time_ns_per_byte([&](Bytes& b) { aes.ctr_process(iv, b); },
                                       [&](Bytes& b) { aes.ctr_process(iv, b); });
  r.rc4_ns_per_byte = time_ns_per_byte(
      [&](Bytes& b) { crypto::Rc4(key).process(b); },
      [&](Bytes& b) { crypto::Rc4(key).process(b); });
  return r;
}

// ns per Cell::drained() call, over every cell of a drained engine (the
// full walk every live lane pays once per round near its end).
double probe_drained_ns(ScenarioEngine& eng, bool tiny) {
  const int reps = tiny ? 20 : 200;
  std::vector<double> samples;
  std::size_t sink = 0;
  for (int pass = 0; pass < 5; ++pass) {
    const auto t0 = Clock::now();
    for (int r = 0; r < reps; ++r) {
      for (std::size_t i = 0; i < eng.cell_count(); ++i) {
        sink += eng.cell(i).drained() ? 1 : 0;
      }
    }
    samples.push_back(seconds_since(t0) * 1e9 /
                      static_cast<double>(reps * eng.cell_count()));
  }
  if (sink != 5 * static_cast<std::size_t>(reps) * eng.cell_count()) {
    throw std::runtime_error("drained probe: a cell of a finished run is not drained");
  }
  return summarize(samples).median;
}

// --------------------------------------------------- quiet-host run time

// The host time of a rep's run() calls on a quiet host. Other tenants of a
// shared host slow a run down for seconds at a time, and only ever slow it
// down. A run is deterministic, so the k-th MSDU completion ends the same
// work in every rep: the stretches between a run's start, its completions
// and its return line up rep by rep. Each stretch's minimum over the
// window's reps is its cost when nothing contended for the host; their sum
// is the quiet-host run time.
class QuietRunTime {
 public:
  /// Starts a rep, which runs one engine per workload instance.
  void begin_rep() {
    stamps_.clear();
    starts_.clear();
  }
  /// Stamps every MSDU completion of `eng`; call before its run().
  void attach(ScenarioEngine& eng) {
    for (std::size_t c = 0; c < eng.cell_count(); ++c) {
      net::Cell& cell = eng.cell(c);
      for (std::size_t j = 0; j < cell.station_count(); ++j) {
        DrmpDevice& dev = cell.device(j);
        dev.on_tx_complete = [prev = std::move(dev.on_tx_complete), this](
                                 Mode m, bool ok, u32 retries) {
          stamps_.push_back(Clock::now());
          prev(m, ok, retries);
        };
      }
    }
  }
  /// Bracket each run(); the gap between two runs (a build) is no stretch.
  void run_started(Clock::time_point t) {
    starts_.push_back(stamps_.size());
    stamps_.push_back(t);
  }
  void run_ended(Clock::time_point t) { stamps_.push_back(t); }

  /// Folds the rep's stretches into the minima.
  void fold_rep() {
    std::vector<double> stretch;
    stretch.reserve(stamps_.size());
    for (std::size_t i = 1, next = 1; i < stamps_.size(); ++i) {
      if (next < starts_.size() && i == starts_[next]) {
        ++next;
        continue;
      }
      stretch.push_back(std::chrono::duration<double>(stamps_[i] - stamps_[i - 1]).count());
    }
    if (reps_ == 0) min_s_ = stretch;
    if (stretch.size() != min_s_.size()) {
      throw std::logic_error("quiet run time: reps differ in MSDU completions");
    }
    for (std::size_t i = 0; i < stretch.size(); ++i) min_s_[i] = std::min(min_s_[i], stretch[i]);
    ++reps_;
  }

  double seconds() const {
    double sum = 0;
    for (const double s : min_s_) sum += s;
    return sum;
  }
  std::size_t stretches() const noexcept { return min_s_.size(); }
  std::size_t reps() const noexcept { return reps_; }

 private:
  std::vector<Clock::time_point> stamps_;
  std::vector<std::size_t> starts_;  // Index in stamps_ of each run's start.
  std::vector<double> min_s_;
  std::size_t reps_ = 0;
};

// ----------------------------------------------------- per-MSDU latencies

struct Latency {
  std::vector<double> us;  // Sorted offer -> completion, simulated.
  u64 full_digest = 0;     // Chained over the instances, like Counters.
  std::size_t max_cell_events = 0;  // Protocol events of the busiest cell.
};

// One recorder-on run of one instance, adding to `lat`. Offer stamps come
// from the flight recorder's `offered` events; completion stamps from a
// chained on_tx_complete. Both queue FIFO per (station, mode), so the k-th
// completion answers the k-th offer. The recorder must leave the full
// digest untouched.
void measure_latency(ScenarioSpec spec, Latency& lat) {
  spec.trace.enabled = true;
  // No cell of these workloads logs near 64k events, so the ring evicts
  // none (checked below: every completion must find its offer).
  spec.trace.capacity = std::size_t{1} << 16;
  ScenarioEngine eng(spec);

  struct Key {
    std::size_t cell;
    int station_id;
    std::size_t mode;
    auto operator<=>(const Key&) const = default;
  };
  std::map<Key, std::vector<Cycle>> done;
  std::vector<double> freq(eng.cell_count());
  for (std::size_t c = 0; c < eng.cell_count(); ++c) {
    net::Cell& cell = eng.cell(c);
    freq[c] = cell.device(0).config().arch_freq_hz;
    for (std::size_t j = 0; j < cell.station_count(); ++j) {
      DrmpDevice& dev = cell.device(j);
      const int sid = dev.station_id();
      sim::Scheduler* sched = &cell.scheduler();
      dev.on_tx_complete = [prev = std::move(dev.on_tx_complete), &done, c, sid,
                            sched](Mode m, bool ok, u32 retries) {
        done[Key{c, sid, index(m)}].push_back(sched->now());
        prev(m, ok, retries);
      };
    }
  }
  const FleetStats fs = eng.run();

  lat.full_digest = mix(lat.full_digest, fs.full_digest());
  std::size_t matched = 0, completions = 0;
  for (const auto& [key, v] : done) completions += v.size();
  for (std::size_t c = 0; c < eng.cell_count(); ++c) {
    const obs::FlightRecorder* rec = eng.cell(c).recorder();
    const std::vector<std::string>& tracks = rec->tracks();
    std::map<Key, std::size_t> next;
    const std::vector<obs::Event> events = rec->events();
    lat.max_cell_events = std::max<std::size_t>(
        lat.max_cell_events,
        std::count_if(events.begin(), events.end(),
                      [](const obs::Event& ev) { return obs::protocol_domain(ev.kind); }));
    for (const obs::Event& ev : events) {
      if (ev.kind != obs::EventKind::kOffered) continue;
      const std::string& name = tracks.at(ev.track);
      const Key key{c, std::stoi(name.substr(std::string("station").size())),
                    static_cast<std::size_t>(ev.b)};
      const auto it = done.find(key);
      std::size_t& k = next[key];
      if (it == done.end() || k >= it->second.size()) {
        throw std::runtime_error("latency: an offered MSDU never completed");
      }
      lat.us.push_back(static_cast<double>(it->second[k++] - ev.cycle) * 1e6 / freq[c]);
      ++matched;
    }
  }
  if (matched != completions) {
    throw std::runtime_error("latency: completions without a recorded offer "
                             "(recorder ring too small?)");
  }
}

// ------------------------------------------------------------------ output

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Metric {
  std::string name, unit;
  double value;
};

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i) s += ", ";
    s += "\"" + ms[i].name + "\": {\"value\": " + num(ms[i].value) +
         ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return s + "}";
}

std::string join(const std::vector<double>& v) {
  std::string s;
  for (std::size_t i = 0; i < v.size(); ++i) s += (i ? ", " : "") + num(v[i]);
  return s;
}

std::string summary_json(const Summary& s) {
  return "{\"median\": " + num(s.median) + ", \"q1\": " + num(s.q1) +
         ", \"q3\": " + num(s.q3) + ", \"n\": " + std::to_string(s.n) + "}";
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto val = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(k + " needs a value");
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = val();
    } else if (k == "--seed") {
      a.seed = std::stoull(val());
    } else if (k == "--seconds") {
      a.seconds = std::stod(val());
    } else if (k == "--trace") {
      a.trace = std::stoi(val()) != 0;
    } else if (k == "--tiny") {
      a.tiny = true;
    } else if (k == "--out") {
      a.out_dir = val();
    } else {
      throw std::invalid_argument("unknown argument '" + k + "'");
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  return a;
}

int run(const Args& a) {
  Tracer tr;
  const std::string run_id = a.workload + "-s" + std::to_string(a.seed);
  const auto t_start = Clock::now();
  u64 attempted = 0, failed = 0;

  // One timed rep: build and run every instance in turn. Returns nullopt (a
  // failed operation) when a run does not drain or the rep diverges from the
  // reference counters. The last instance's engine stays alive in `last` for
  // the drained probe until the next rep starts.
  struct Rep {
    double build_s = 0, run_s = 0, collect_s = 0;  // Summed over instances.
  };
  QuietRunTime quiet;
  std::optional<Counters> reference;
  std::unique_ptr<ScenarioEngine> last;
  const auto one_rep = [&](const std::vector<ScenarioSpec>& specs) -> std::optional<Rep> {
    ++attempted;
    Rep r;
    Counters c;
    quiet.begin_rep();
    for (const ScenarioSpec& spec : specs) {
      last.reset();
      const int b = tr.begin("scenario.build");
      const auto t0 = Clock::now();
      last = std::make_unique<ScenarioEngine>(spec);
      r.build_s += seconds_since(t0);
      tr.end(b);
      quiet.attach(*last);
      const int s = tr.begin("scenario.run");
      const double span_t0 = tr.now();
      const auto run_start = Clock::now();
      quiet.run_started(run_start);
      const FleetStats fs = last->run();
      const auto run_end = Clock::now();
      quiet.run_ended(run_end);
      const double run_s = std::chrono::duration<double>(run_end - run_start).count();
      r.run_s += run_s;
      r.collect_s += run_s - fs.wall_seconds;
      tr.add_closed("scenario.collect", span_t0 + fs.wall_seconds, span_t0 + run_s);
      tr.end(s);
      add_counters(c, fs, *last);
    }
    derive(c);
    if (!reference) reference = c;
    if (!c.drained || !(c == *reference)) {
      ++failed;
      std::fprintf(stderr, "run %llu %s: digest %016llx, reference %016llx\n",
                   static_cast<unsigned long long>(attempted),
                   c.drained ? "diverged" : "did not drain",
                   static_cast<unsigned long long>(c.full_digest),
                   static_cast<unsigned long long>(reference->full_digest));
      return std::nullopt;
    }
    return r;
  };

  auto t0 = Clock::now();
  const std::vector<ScenarioSpec> specs = make_specs(a);
  const double spec_s = seconds_since(t0);
  // The first rep is the reference and the process's cold build; it is
  // excluded from every host-time figure.
  const std::optional<Rep> first = one_rep(specs);
  const double cold_build_s = first ? first->build_s : 0.0;

  // Warm constructor samples: build-and-drop every instance, so the median
  // rests on many samples (small builds spread 12-20% one by one).
  std::vector<double> builds;
  last.reset();
  for (int i = 0; first && i < (a.tiny ? 3 : 15); ++i) {
    double build_s = 0;
    for (const ScenarioSpec& spec : specs) {
      t0 = Clock::now();
      ScenarioEngine eng(spec);
      build_s += seconds_since(t0);
    }
    builds.push_back(build_s);
  }

  // Measurement window: whole reps until `seconds` have passed (at least 3).
  std::vector<double> run_s, collect_s;
  const auto t_window = Clock::now();
  while (first && failed == 0 &&
         (run_s.size() < 3 || seconds_since(t_window) < a.seconds)) {
    const std::optional<Rep> r = one_rep(specs);
    if (!r) break;
    quiet.fold_rep();
    builds.push_back(r->build_s);
    run_s.push_back(r->run_s);
    collect_s.push_back(r->collect_s);
  }
  const bool reps_ok = first && failed == 0;

  const double drained_ns = reps_ok ? probe_drained_ns(*last, a.tiny) : 0.0;
  last.reset();
  const CryptoProbe cr = probe_crypto(a.seed, a.tiny);
  const double rss_mb = peak_rss_mb();  // Before the recorder-on run.

  // The traced pass: one more spec+build+run+probes with every span
  // recorded; its run() time against the untraced median is the tracing
  // overhead. End-to-end metrics never come from it.
  double traced_run_s = 0;
  if (a.trace && failed == 0) {
    tr.start();
    const int w = tr.begin("workload");
    const int sp = tr.begin("scenario.spec");
    const std::vector<ScenarioSpec> traced_specs = make_specs(a);
    tr.end(sp);
    const std::optional<Rep> r = one_rep(traced_specs);
    if (r) {
      traced_run_s = r->run_s;
      const int dp = tr.begin("net.drained_probe");
      probe_drained_ns(*last, a.tiny);
      tr.end(dp);
    }
    last.reset();
    const int cp = tr.begin("crypto.probe");
    probe_crypto(a.seed, a.tiny);
    tr.end(cp);
    tr.end(w);
  }
  std::optional<Latency> lat;
  if (reps_ok) {
    ++attempted;
    lat.emplace();
    for (const ScenarioSpec& spec : specs) measure_latency(spec, *lat);
    std::sort(lat->us.begin(), lat->us.end());
    if (lat->full_digest != reference->full_digest || lat->us.empty()) {
      ++failed;
      std::fprintf(stderr, "recorder-on digest %016llx differs from recorder-off\n",
                   static_cast<unsigned long long>(lat->full_digest));
    }
  }

  const bool correct = reps_ok && failed == 0;

  // ---- derived metrics
  const Counters& ref = *reference;
  const auto rv = [&](const char* k) { return ref.values.at(k); };
  std::vector<double> rates;
  for (double s : run_s) rates.push_back(static_cast<double>(ref.device_cycles) / s);
  const Summary rate = summarize(rates), run_sum = summarize(run_s),
                build = summarize(builds), collect = summarize(collect_s);
  const double quiet_s = quiet.seconds();
  const double quiet_rate = quiet_s > 0 ? static_cast<double>(ref.device_cycles) / quiet_s : 0.0;
  const double ticks = rv("sim.ticks_executed");
  std::array<double, kNumModes> bytes{};
  for (std::size_t m = 0; m < kNumModes; ++m) bytes[m] = static_cast<double>(ref.offered_bytes[m]);
  // Mode A is WiFi (RC4/WEP), B WiMAX (DES-CBC), C UWB (AES).
  const double crypto_est_s = (bytes[0] * cr.rc4_ns_per_byte +
                               bytes[1] * cr.des_ns_per_byte +
                               bytes[2] * cr.aes_ns_per_byte) * 1e-9;
  const double p50 = lat ? percentile(lat->us, 0.50) : 0.0;
  const double p99 = lat ? percentile(lat->us, 0.99) : 0.0;

  std::vector<Metric> out;
  if (!a.trace) {
    out = {
        {"device_cycles_per_s", "cycles/s", quiet_rate},
        {"setup_s", "s", build.median},
        {"peak_rss_mb", "MB", rss_mb},
        {"msdu_delivered_ratio", "ratio", rv("msdu_delivered_ratio")},
        {"sim_msdu_latency_p50_us", "us", p50},
        {"sim_msdu_latency_p99_us", "us", p99},
        {"sim_gated_mw_per_device", "mW", rv("sim_gated_mw_per_device")},
    };
  } else {
    out = {
        {"scenario.build_s", "s", build.median},
        {"scenario.build_us_per_station", "us",
         build.median * 1e6 / static_cast<double>(ref.stations)},
        {"scenario.collect_s", "s", collect.median},
        {"sim.ticks_executed", "count", ticks},
        {"sim.ticks_skipped", "count", rv("sim.ticks_skipped")},
        {"sim.skip_ratio", "ratio", rv("sim.skip_ratio")},
        {"sim.host_ns_per_executed_tick", "ns", quiet_s * 1e9 / std::max(1.0, ticks)},
        {"sim.ff_events", "count", rv("sim.ff_events")},
        {"sim.ff_cycles", "cycles", rv("sim.ff_cycles")},
        {"sim.wheel_cascades", "count", rv("sim.wheel_cascades")},
        {"sim.wheel_purges", "count", rv("sim.wheel_purges")},
        {"sim.wheel_depth_max", "count", rv("sim.wheel_depth_max")},
        {"sim.medium_ticks_executed", "count", rv("sim.medium_ticks_executed")},
        {"sim.medium_ticks_skipped", "count", rv("sim.medium_ticks_skipped")},
        {"sim.lockstep_rounds", "count", rv("sim.lockstep_rounds")},
        {"sim.lane_rounds_skipped", "count", rv("sim.lane_rounds_skipped")},
        {"sim.lane_stall_cycles", "cycles", rv("sim.lane_stall_cycles")},
        {"sim.live_lane_rounds", "count", rv("sim.live_lane_rounds")},
        {"net.drained_ns", "ns", drained_ns},
        {"net.drained_est_s", "s", drained_ns * 1e-9 * rv("sim.live_lane_rounds")},
        {"crypto.des_ns_per_byte", "ns/B", cr.des_ns_per_byte},
        {"crypto.aes_ns_per_byte", "ns/B", cr.aes_ns_per_byte},
        {"crypto.rc4_ns_per_byte", "ns/B", cr.rc4_ns_per_byte},
        {"crypto.est_s", "s", crypto_est_s},
        {"crypto.bytes_des", "B", bytes[1]},
        {"crypto.bytes_aes", "B", bytes[2]},
        {"crypto.bytes_rc4", "B", bytes[0]},
        {"net.collisions", "count", rv("net.collisions")},
        {"net.defers", "count", rv("net.defers")},
        {"net.nav_defers", "count", rv("net.nav_defers")},
        {"net.busy_cycles", "cycles", rv("net.busy_cycles")},
        {"net.collided_airtime", "cycles", rv("net.collided_airtime")},
        {"net.airtime_efficiency", "ratio", rv("net.airtime_efficiency")},
        {"mac.offered", "count", rv("mac.offered")},
        {"mac.completed", "count", rv("mac.completed")},
        {"mac.retries", "count", rv("mac.retries")},
        {"mac.latency_samples", "count", lat ? static_cast<double>(lat->us.size()) : 0.0},
        {"cpu.activity", "ratio", rv("cpu.activity")},
        {"hw.bus_activity", "ratio", rv("hw.bus_activity")},
        {"host.run_samples", "count", static_cast<double>(run_s.size())},
        {"trace.overhead", "ratio", run_sum.median > 0 ? traced_run_s / run_sum.median - 1.0 : 0.0},
    };
    std::map<std::string, double> self;
    for (const Span& sp : tr.spans()) self[sp.name] += tr.self_s(sp);
    for (const char* name : {"workload", "scenario.spec", "scenario.build",
                             "scenario.run", "scenario.collect",
                             "net.drained_probe", "crypto.probe"}) {
      out.push_back({std::string("trace.self_s.") + name, "s", self[name]});
    }
  }

  // ---- human report + JSON report file
  std::ostringstream rep;
  rep << "{\"workload\": \"" << a.workload << "\", \"seed\": " << a.seed
      << ", \"tiny\": " << (a.tiny ? "true" : "false")
      << ", \"run_id\": \"" << run_id << "\""
      << ", \"full_digest\": \"" << std::hex << ref.full_digest << std::dec << "\""
      << ", \"instances\": " << specs.size()
      << ", \"stations\": " << ref.stations
      << ", \"device_cycles\": " << ref.device_cycles
      << ", \"spec_s\": " << num(spec_s) << ", \"cold_build_s\": " << num(cold_build_s)
      << ", \"host\": {\"device_cycles_per_s\": " << num(quiet_rate)
      << ", \"quiet_run_s\": " << num(quiet_s)
      << ", \"quiet_stretches\": " << quiet.stretches()
      << ", \"quiet_reps\": " << quiet.reps()
      << ", \"rep_device_cycles_per_s\": " << summary_json(rate)
      << ", \"run_s\": " << summary_json(run_sum)
      << ", \"run_s_samples\": [" << join(run_s) << "]"
      << ", \"setup_s\": " << summary_json(build)
      << ", \"collect_s\": " << summary_json(collect) << "}"
      << ", \"peak_rss_mb\": " << num(rss_mb)
      << ", \"peak_rss_with_recorder_mb\": " << num(peak_rss_mb())
      << ", \"latency_us\": {\"p50\": " << num(p50) << ", \"p99\": " << num(p99)
      << ", \"n\": " << (lat ? lat->us.size() : 0)
      << ", \"max_cell_events\": " << (lat ? lat->max_cell_events : 0) << "}"
      << ", \"counters\": {";
  bool comma = false;
  for (const auto& [k, v] : ref.values) {
    rep << (comma ? ", " : "") << "\"" << k << "\": " << num(v);
    comma = true;
  }
  rep << "}, \"metrics\": " << metrics_json(out) << ", \"spans\": [";
  for (std::size_t i = 0; i < tr.spans().size(); ++i) {
    const Span& s = tr.spans()[i];
    rep << (i ? ", " : "") << "{\"run_id\": \"" << run_id << "\", \"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"name\": \"" << s.name
        << "\", \"start_s\": " << num(s.start_s) << ", \"end_s\": " << num(s.end_s)
        << ", \"self_s\": " << num(tr.self_s(s)) << "}";
  }
  rep << "]}\n";
  const std::string path = a.out_dir + "/" + run_id + (a.trace ? "-trace1" : "-trace0") +
                           (a.tiny ? "-tiny" : "") + ".json";
  std::ofstream(path) << rep.str();

  std::printf("# %s seed=%llu instances=%zu stations=%llu digest=%016llx correct=%d attempted=%llu failed=%llu\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed), specs.size(),
              static_cast<unsigned long long>(ref.stations),
              static_cast<unsigned long long>(ref.full_digest), correct ? 1 : 0,
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  std::printf("# device_cycles_per_s quiet-host=%.6g (%zu stretches, min over %zu reps); "
              "per rep median=%.6g q1=%.6g q3=%.6g n=%zu (base %llu device-cycles)\n",
              quiet_rate, quiet.stretches(), quiet.reps(), rate.median, rate.q1, rate.q3,
              rate.n, static_cast<unsigned long long>(ref.device_cycles));
  std::printf("# setup_s (warm constructor) median=%.6g q1=%.6g q3=%.6g n=%zu; cold %.6g\n",
              build.median, build.q1, build.q3, build.n, cold_build_s);
  std::printf("# latency_us p50=%.6g p99=%.6g n=%zu; delivered %.0f of %.0f offered\n",
              p50, p99, lat ? lat->us.size() : 0, rv("mac.tx_ok"), rv("mac.offered"));
  std::printf("# skip_ratio=%.6g over %.0f executed ticks; total %.3f s; report %s\n",
              rv("sim.skip_ratio"), ticks, seconds_since(t_start), path.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics_json(out).c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "drmp_perfbench: %s\n", e.what());
    return 2;
  }
}
