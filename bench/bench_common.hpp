// Shared infrastructure for the bench binaries that regenerate the paper's
// tables and figures (thesis Chs. 5-6). Each binary prints the same rows /
// series the paper reports; see EXPERIMENTS.md for the paper-vs-measured
// record.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstring>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "drmp/testbench.hpp"
#include "est/report.hpp"
#include "obs/trace_export.hpp"
#include "scenario/fleet_stats.hpp"

namespace drmp::bench {

// ---- Machine-readable bench output (--json) --------------------------------
//
// The perf trajectory of the repo is tracked through flat JSON records the
// fleet benches emit next to their human-readable tables: cycles simulated,
// wall seconds, cycles/sec, skip ratio, digests. CI uploads the files as
// artifacts, so every commit carries its own measurement.

/// Ordered flat key->value JSON object writer. Values are emitted as given:
/// numbers unquoted, strings quoted (no escaping beyond what bench keys
/// need, i.e. none).
class JsonRecord {
 public:
  void num(const std::string& key, double v) {
    // std::to_chars, not a stream: stream float formatting honours the
    // global locale (a de_DE host would emit "3,14" and corrupt the JSON);
    // to_chars is locale-independent by definition, so BENCH_*.json is
    // byte-stable across hosts.
    char buf[48];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v,
                                   std::chars_format::general, 12);
    kv_.emplace_back(key, std::string(buf, res.ptr));
  }
  void num(const std::string& key, u64 v) { kv_.emplace_back(key, std::to_string(v)); }
  void num(const std::string& key, u32 v) { kv_.emplace_back(key, std::to_string(v)); }
  void num(const std::string& key, int v) { kv_.emplace_back(key, std::to_string(v)); }
  void str(const std::string& key, const std::string& v) {
    kv_.emplace_back(key, "\"" + v + "\"");
  }
  void hex(const std::string& key, u64 v) {
    // Fixed 16-digit zero-padded field, locale-independent by construction.
    char buf[16];
    for (int i = 15; i >= 0; --i) {
      buf[i] = "0123456789abcdef"[v & 0xF];
      v >>= 4;
    }
    kv_.emplace_back(key, "\"" + std::string(buf, 16) + "\"");
  }

  std::string dump() const {
    std::string out = "{\n";
    for (std::size_t i = 0; i < kv_.size(); ++i) {
      out += "  \"" + kv_[i].first + "\": " + kv_[i].second;
      out += i + 1 < kv_.size() ? ",\n" : "\n";
    }
    out += "}\n";
    return out;
  }

  bool write(const std::string& path) const {
    std::ofstream f(path);
    if (!f) return false;
    f << dump();
    return static_cast<bool>(f);
  }

 private:
  std::vector<std::pair<std::string, std::string>> kv_;
};

/// Consumes a trailing `--json` / `--json=PATH` argument (anywhere in argv)
/// so positional parsing stays untouched. Returns the output path — PATH if
/// given, `default_path` for the bare flag, empty when the flag is absent.
inline std::string take_json_flag(int& argc, char** argv,
                                  const std::string& default_path) {
  std::string path;
  int w = 1;
  for (int r = 1; r < argc; ++r) {
    if (std::strcmp(argv[r], "--json") == 0) {
      path = default_path;
    } else if (std::strncmp(argv[r], "--json=", 7) == 0) {
      path = argv[r] + 7;
    } else {
      argv[w++] = argv[r];
    }
  }
  argc = w;
  return path;
}

/// Writes the execution profile of a fleet run (every sim::kExecRows row,
/// then skip_ratio) into a bench JSON record — the standing keys every fleet
/// BENCH_*.json carries, so the perf trajectory of the quiescence machinery
/// is tracked per commit.
inline void add_profile(JsonRecord& rec, const sim::ExecProfile& prof) {
  for (const sim::ExecRow& row : sim::kExecRows) rec.num(row.name, prof.*row.field);
  rec.num("skip_ratio", prof.skip_ratio());
}

// ---- Interleaved A/B timing -----------------------------------------------
//
// Wall-clock comparisons on shared/thermally-drifting hosts must interleave
// their measurement passes (A,B,A,B), never exhaust one arm first (A,A,B,B):
// back-to-back passes hand whichever arm runs first the cold turbo headroom
// and bias every BENCH_*.json trajectory built from the ratio. Every timed
// arm pair in the bench binaries goes through these helpers.

/// Runs the timing arms interleaved — arm 0, arm 1, ..., then the next pass
/// over all arms again — for `passes` rounds, returning each arm's samples
/// in pass order. Reduce per arm with best_rate() (throughput: the least-
/// disturbed pass) or median_rate() (central tendency over many passes).
inline std::vector<std::vector<double>> interleaved_samples(
    const std::vector<std::function<double()>>& arms, int passes) {
  std::vector<std::vector<double>> samples(arms.size());
  for (int p = 0; p < passes; ++p) {
    for (std::size_t i = 0; i < arms.size(); ++i) {
      samples[i].push_back(arms[i]());
    }
  }
  return samples;
}

inline double best_rate(const std::vector<double>& v) {
  return *std::max_element(v.begin(), v.end());
}

inline double median_rate(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Samples system activity every cycle into signal tracks so the bench can
/// render the waveforms of Figs. 5.1-5.7 (the Simulink-scope stand-in). It
/// owns the recorder the figure benches read, which also holds the task
/// handlers' state tracks. Register it last so it observes the completed
/// cycle.
class Probe : public sim::Clockable {
 public:
  explicit Probe(Testbench& tb) : tb_(tb) {
    DrmpDevice& dev = tb.device();
    dev.attach_signals(&rec_);
    cpu_ = rec_.track("cpu");
    bus_ = rec_.track("bus");
    for (const rfu::Rfu* r : dev.rfus()) rfus_.push_back(rec_.track("rfu." + r->name()));
    for (std::size_t i = 0; i < kNumModes; ++i) {
      if (!tb.config().modes[i].enabled) continue;
      const Mode m = mode_from_index(i);
      media_.emplace_back(m, rec_.track("medium." + std::string(to_string(m))));
    }
  }

  void tick() override {
    const Cycle now = tb_.scheduler().now();
    DrmpDevice& dev = tb_.device();
    rec_.signal(now, cpu_, dev.cpu().busy() ? 1 : 0);
    const auto& grant = dev.bus().grant();
    rec_.signal(now, bus_, grant.kind == hw::PacketBus::MasterKind::None
                               ? 0
                               : static_cast<int>(index(grant.mode)) + 1);
    for (std::size_t i = 0; i < rfus_.size(); ++i) {
      const rfu::Rfu* r = dev.rfus()[i];
      rec_.signal(now, rfus_[i], r->busy() ? (r->reconfiguring() ? 2 : 1) : 0);
    }
    for (const auto& [m, track] : media_) {
      rec_.signal(now, track, tb_.medium(m).busy() ? 1 : 0);
    }
  }

  Testbench& testbench() const { return tb_; }
  const obs::FlightRecorder& recorder() const { return rec_; }

  /// Registers the probe with the testbench scheduler.
  static Probe& attach(Testbench& tb) {
    static thread_local std::vector<std::unique_ptr<Probe>> keep;
    keep.push_back(std::make_unique<Probe>(tb));
    tb.scheduler().add(*keep.back(), "probe");
    return *keep.back();
  }

 private:
  Testbench& tb_;
  obs::FlightRecorder rec_;
  u16 cpu_ = 0;
  u16 bus_ = 0;
  std::vector<u16> rfus_;  ///< Parallel to DrmpDevice::rfus().
  std::vector<std::pair<Mode, u16>> media_;
};

inline Bytes make_payload(std::size_t n, u8 seed = 1) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<u8>(i * 3 + seed);
  return b;
}

/// Prints the ASCII waveform of the standard entity set over [from, to).
inline void print_waveform(const Probe& probe, Cycle from, Cycle to) {
  Testbench& tb = probe.testbench();
  std::vector<std::string> chans = {"cpu", "bus"};
  for (const rfu::Rfu* r : tb.device().rfus()) chans.push_back("rfu." + r->name());
  for (std::size_t i = 0; i < kNumModes; ++i) {
    if (tb.config().modes[i].enabled) {
      chans.push_back("medium." + std::string(to_string(mode_from_index(i))));
    }
  }
  std::cout << "time axis: " << std::fixed << std::setprecision(1)
            << tb.device().timebase().cycles_to_us(from) << " us .. "
            << tb.device().timebase().cycles_to_us(to)
            << " us   ('.'=idle, 1=busy, 2=reconfiguring; bus column = holding mode)\n";
  std::cout << obs::ascii_waveform(probe.recorder(), chans, from, to, 110);
}

/// Prints the busy-time table (Tables 5.1 / 5.2 format): entity, busy us,
/// busy % over the window.
inline void print_busy_table(const Probe& probe, Cycle from, Cycle to,
                             const std::string& title) {
  Testbench& tb = probe.testbench();
  const auto& tbs = tb.device().timebase();
  est::Table t({"Entity", "Busy (us)", "Busy (%)"});
  auto add = [&](const std::string& name, const std::string& track) {
    const Cycle busy = obs::active_cycles(probe.recorder(), track, from, to);
    const double pct = 100.0 * static_cast<double>(busy) / static_cast<double>(to - from);
    t.add_row({name, est::Table::num(tbs.cycles_to_us(busy)), est::Table::num(pct)});
  };
  add("CPU", "cpu");
  add("Packet bus", "bus");
  for (const rfu::Rfu* r : tb.device().rfus()) add("RFU " + r->name(), "rfu." + r->name());
  for (std::size_t i = 0; i < kNumModes; ++i) {
    if (!tb.config().modes[i].enabled) continue;
    const Mode m = mode_from_index(i);
    add("Medium " + std::string(to_string(m)) + " (" +
            mac::to_string(tb.config().modes[i].ident.proto) + ")",
        "medium." + std::string(to_string(m)));
  }
  std::cout << title << "  (window " << est::Table::num(tbs.cycles_to_us(to - from), 1)
            << " us)\n";
  t.print(std::cout);
}

/// Standard three-mode transmit scenario used by several benches.
inline void run_three_mode_tx(Testbench& tb, u32 packets_per_mode, std::size_t msdu_bytes) {
  for (u32 p = 0; p < packets_per_mode; ++p) {
    tb.send_async(Mode::A, make_payload(msdu_bytes, static_cast<u8>(p)));
    tb.send_async(Mode::B, make_payload(msdu_bytes, static_cast<u8>(p + 40)));
    tb.send_async(Mode::C, make_payload(msdu_bytes, static_cast<u8>(p + 80)));
  }
  tb.wait_tx_count(Mode::A, packets_per_mode, 4'000'000'000ull);
  tb.wait_tx_count(Mode::B, packets_per_mode, 4'000'000'000ull);
  tb.wait_tx_count(Mode::C, packets_per_mode, 4'000'000'000ull);
}

}  // namespace drmp::bench
