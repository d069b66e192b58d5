// Deterministic span tracer with flight-recorder retention.
//
// Every timestamp comes from a caller-supplied clock — the simulation's
// modeled execution clock for online runs, a logical sequence clock when no
// clock is attached (a fleet plan's envelope-segment events have no
// simulated time) — never from wall time. Same seed therefore means byte-identical exported traces, which is
// what lets CI diff two runs and what makes a trace attachable to a bug
// report as a reproducible artifact.
//
// Retention is a fixed-capacity ring: when full, the oldest event is
// evicted and counted, so tracing an arbitrarily long run costs bounded
// memory and the tail — the part that explains a quarantine or an abandoned
// migration — is always what survives. Export is Chrome trace_event JSON
// (load in chrome://tracing or Perfetto).

#ifndef COIGN_SRC_OBS_TRACE_H_
#define COIGN_SRC_OBS_TRACE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/support/status.h"

namespace coign {

// One recorded event. `args` values are pre-rendered JSON fragments
// (numbers or quoted strings), formatted deterministically at record time.
struct TraceEvent {
  enum class Phase {
    kComplete,  // Span with start + duration ("X").
    kInstant,   // Point event ("i").
    kCounter,   // Sampled value ("C").
  };

  Phase phase = Phase::kInstant;
  std::string name;
  std::string category;
  int track = 0;               // Rendered as the Chrome tid.
  double start_seconds = 0.0;  // Simulated/logical seconds.
  double duration_seconds = 0.0;  // Complete events only.
  uint64_t seq = 0;            // Monotonic record index; stable tiebreak.
  std::vector<std::pair<std::string, std::string>> args;
};

class Tracer {
 public:
  using ClockFn = std::function<double()>;

  explicit Tracer(size_t capacity = kDefaultCapacity);

  // Timestamp source in simulated seconds. With no clock (or after
  // SetClock(nullptr)) the tracer falls back to a logical clock: each call
  // to Now() returns the next tick, scaled so one tick exports as 1us.
  void SetClock(ClockFn clock);

  // Current time: clock() if attached, else the next logical tick.
  double Now();

  void Instant(std::string name, std::string category, int track,
               std::vector<std::pair<std::string, std::string>> args = {});
  void Counter(std::string name, int track, double value);
  // Counter sample at an explicit timestamp, so a batch of series sampled
  // together shares one timestamp column instead of consuming one logical
  // tick each.
  void CounterAt(std::string name, int track, double start_seconds, double value);
  void Complete(std::string name, std::string category, int track,
                double start_seconds, double end_seconds,
                std::vector<std::pair<std::string, std::string>> args = {});

  // Deterministic arg-value renderers (valid JSON fragments).
  static std::string ArgString(std::string_view value);
  static std::string ArgDouble(double value);
  static std::string ArgInt(int64_t value);
  static std::string ArgUint(uint64_t value);

  size_t size() const;
  size_t capacity() const { return capacity_; }
  uint64_t recorded() const;  // Total events ever recorded.
  uint64_t dropped() const;   // Events evicted by the ring.

  // Events currently retained, oldest first.
  std::vector<TraceEvent> Snapshot() const;

  // Chrome trace_event JSON ("ts"/"dur" in microseconds). Byte-stable for
  // identical event sequences.
  std::string ExportChromeTrace() const;
  Status WriteChromeTrace(const std::string& path) const;

  void Clear();

 private:
  static constexpr size_t kDefaultCapacity = 8192;

  void Record(TraceEvent event);

  mutable std::mutex mutex_;
  size_t capacity_;
  ClockFn clock_;
  uint64_t logical_ticks_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t dropped_ = 0;
  std::deque<TraceEvent> ring_;
};

// RAII span: records the start time at construction and emits one complete
// event at End() (or destruction). Args added before End() are attached.
class TraceSpan {
 public:
  // `tracer` may be null: every operation becomes a no-op, so call sites
  // need no "is tracing on" branches.
  TraceSpan(Tracer* tracer, std::string name, std::string category, int track);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  void AddArg(std::string key, std::string_view value);
  void AddArg(std::string key, double value);
  void AddArg(std::string key, uint64_t value);

  // Ends the span `extra_seconds` past the current clock — used when the
  // modeled duration is known but the clock only advances after the caller
  // returns (e.g. transport round trips billed by the accountant).
  void End(double extra_seconds = 0.0);

 private:
  Tracer* tracer_;
  std::string name_;
  std::string category_;
  int track_;
  double start_seconds_ = 0.0;
  bool ended_;
  std::vector<std::pair<std::string, std::string>> args_;
};

}  // namespace coign

#endif  // COIGN_SRC_OBS_TRACE_H_
