// Flight recorder — per-cell, cycle-stamped structured event log.
//
// Components log fixed-size events (frame lifecycle, NAV arm/defer/reset,
// CCA edges, scheduler skip spans, cross-cell carrier images) into a ring
// buffer through the DRMP_OBS macro, which compiles to nothing under
// -DDRMP_OBS_DISABLE and to a null-checked append otherwise. Exporters in
// obs/trace_export.hpp turn the ring into Chrome trace-event JSON (one
// Perfetto track per station/medium) and a deterministic text timeline for
// golden tests.
//
// The signal domain stands in for the thesis's Simulink scopes (Figs.
// 5.1-5.7): change events on named tracks, and the packet bus's tenure
// events. Its loggers are null checks, not DRMP_OBS, so a compiled-out
// build still renders every figure.
//
// Determinism contract (the reason the recorder can sit in golden tests):
// protocol-domain events are logged only from executed component ticks, at
// the exact cycle a protocol edge occurs. The quiescence machinery
// guarantees those ticks execute at identical cycles whether idle-skip is
// on or off, and per-cell recorders mean lockstep workers never interleave
// one buffer — so the recorded stream is byte-identical across
// worker_threads {1,0} x idle_skip on/off. Execution-domain events
// (skip spans, fast-forwards) describe the engine itself, differ across
// those knobs by construction, and are segregated so exporters can keep
// them out of golden comparisons. Signal changes read the same with
// idle-skip on or off; bus events split a tenure into accesses and word
// runs per skip mode but replay into the same tenures. No golden surface
// reads either.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace drmp::obs {

enum class EventKind : u8 {
  // ---- Protocol domain: deterministic across schedulers and skip modes ----
  kOffered = 0,     // a = payload bytes, b = mode index
  kTxStart,         // a = source id, b = airtime cycles (span)
  kCollision,       // a = source id of the garbled transmission
  kDelivery,        // a = source id, b = frame bytes
  kGarbled,         // a = source id, b = frame bytes
  kDrop,            // a = source id, b = frame bytes
  kComplete,        // a = 1 delivered / 0 failed, b = retries
  kExpiry,          // a = frame kind, b = mode index
  kNavArm,          // a = NAV expiry cycle
  kNavReset,        // a = NAV expiry cycle it cut short
  kCcaBusy,         // carrier latch rose
  kCcaIdle,         // carrier latch fell
  kCcaDefer,        // backoff deferred on physical carrier
  kNavDefer,        // backoff deferred on virtual carrier only
  kEifsWait,        // IFS stretched to EIFS after a garbled reception
  kRemoteCarrier,   // a = remote source id, b = image cycles (span)
  kTopologyEpoch,   // a = new epoch number, b = matrix station count
  kAssociate,       // a = station id, b = serving cell (-1 = home AP)
  kReassociate,     // a = station id, b = serving cell after the handoff
  kHandoff,         // a = station id, b = target cell
  kRateChange,      // a = new rate index, b = +1 step-up / -1 step-down
  // ---- Execution domain: engine introspection, varies with skip/workers --
  kSkipSpan,        // b = skipped cycles (span)
  kFastForward,     // b = globally-quiescent cycles (span)
  // ---- Signal domain: scope traces, deterministic across skip modes ------
  kSignal,          // a = value (a change event, FlightRecorder::signal)
  kBusRequest,      // a = mode index whose request line rose
  kBusRelease,      // a = mode index whose request line fell
  kBusAccess,       // a = origin mode index, b = 1 if an RFU trigger/argument
  kBusRun,          // a = origin mode index, b = words of a declared run
  kBusBurst,        // a = mode index, b = argument words of a trigger burst
};

const char* to_string(EventKind k) noexcept;

/// True for events that describe the simulated protocol (stable across
/// execution strategies); false for engine-execution and signal events.
bool protocol_domain(EventKind k) noexcept;

/// True for events whose `b` field is a duration (rendered as a Chrome
/// "complete" slice instead of an instant).
bool is_span(EventKind k) noexcept;

struct Event {
  Cycle cycle;
  u16 track;
  EventKind kind;
  i64 a;
  i64 b;
  bool operator==(const Event&) const = default;
};

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 18;

  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

  /// Registers (or looks up) a named track — one per station, per medium
  /// band, per engine facet. Track ids are dense and assigned in
  /// registration order, so deterministic construction order gives
  /// deterministic ids.
  u16 track(const std::string& name);
  const std::vector<std::string>& tracks() const noexcept {
    return track_names_;
  }
  /// The id of a registered track, without registering it.
  std::optional<u16> find_track(const std::string& name) const;

  void log(Cycle cycle, EventKind kind, u16 track, i64 a = 0, i64 b = 0);

  /// Records a kSignal change: `value` if it differs from the track's last
  /// value. A second record in the same cycle overwrites that event (also
  /// once the domain is full), and collapses it into an equal predecessor.
  void signal(Cycle cycle, u16 track, i64 value);

  std::size_t size() const noexcept;
  /// Events lost to a full domain: overwritten in a ring (oldest-first
  /// eviction) or refused by the signal domain.
  u64 dropped() const noexcept {
    return proto_.dropped + exec_.dropped + signal_dropped_;
  }
  /// Throws std::runtime_error naming the dropped count if the signal
  /// domain refused events: a cut-short history reads as a quiet signal.
  void require_signal_history() const;

  /// The signal-domain events of one track, oldest first.
  std::span<const Event> signal_events(u16 track) const;

  /// The retained events: the protocol-domain ring oldest-first, then the
  /// execution-domain ring oldest-first, then the signal domain track by
  /// track. Consumers that need a merged timeline sort by cycle; the golden
  /// text exporter only reads the protocol prefix anyway.
  std::vector<Event> events() const;

 private:
  // The two domains get separate rings of `capacity_` events each. Skip
  // spans outnumber protocol edges by orders of magnitude on idle-heavy
  // runs, and they only exist when idle-skip is on — sharing one ring
  // would let them evict protocol history in exactly one of the two skip
  // modes, silently breaking the cross-config byte-identity contract once
  // a trace wraps.
  struct Ring {
    std::vector<Event> buf;
    std::size_t head = 0;  // Next overwrite position once full.
    u64 dropped = 0;
    void push(const Event& ev, std::size_t capacity);
    void append_to(std::vector<Event>& out) const;
  };
  void push_signal(const Event& ev);
  Ring proto_;
  Ring exec_;
  // The signal domain keeps its first `capacity_` events and refuses the
  // rest: a waveform needs its history from the start. One vector per
  // track, so a query reads one track and an overwrite edits its last event.
  std::vector<std::vector<Event>> signals_;
  std::size_t signal_size_ = 0;
  u64 signal_dropped_ = 0;
  std::size_t capacity_;
  std::vector<std::string> track_names_;
  std::map<std::string, u16> track_ids_;
};

}  // namespace drmp::obs

// The logging macro every instrumented component uses. Compiles out whole
// under -DDRMP_OBS_DISABLE (no argument evaluation); otherwise a null
// recorder pointer means "not tracing" and costs one branch.
#if defined(DRMP_OBS_DISABLE)
#define DRMP_OBS(rec, ...) ((void)0)
#else
#define DRMP_OBS(rec, ...)                        \
  do {                                            \
    if ((rec) != nullptr) (rec)->log(__VA_ARGS__); \
  } while (0)
#endif
