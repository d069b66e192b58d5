// Shared plumbing for the Coign benchmark: run configuration, the span
// recorder that times each layer from the outside, the per-workload report,
// and the statistics every workload reports its numbers with.
//
// Every workload is a closed loop with one caller: the next operation
// starts only after the previous one returned. Set-up (profiling base
// profiles, fitting networks, warm-up) is repeated a few times and timed
// separately; only the operation itself is inside the timed region.

#ifndef COIGNBENCH_BENCH_H_
#define COIGNBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/net/network_model.h"
#include "src/support/status.h"

namespace coignbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One timed interval at a layer boundary. Spans of one operation share
// `op`; `parent` is the index of the enclosing span, or -1.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  uint64_t op = 0;
};

// Keeps spans in memory for the whole run; written out once at exit. The
// benchmark is single-threaded on the caller side, so nesting is a stack.
class SpanRecorder {
 public:
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  int32_t Begin(const char* name, uint64_t op);
  void End(int32_t index);

  const std::vector<Span>& spans() const { return spans_; }
  // Span duration, and self time (duration minus the direct children),
  // in microseconds, for every span called `name`, in recording order.
  std::vector<double> DurationsUs(const std::string& name) const;
  std::vector<double> SelfTimesUs(const std::string& name) const;
  // Duration in microseconds of the span called `name` within each
  // operation that has one.
  std::map<uint64_t, double> DurationByOpUs(const std::string& name) const;

  // Per-name self-time table, printed at the end of a traced run.
  std::string SelfTimeTable() const;
  coign::Status WriteJsonLines(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

// Records a span for the enclosing scope when the recorder is enabled;
// costs one branch otherwise.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const char* name, uint64_t op)
      : recorder_(recorder), index_(recorder.enabled() ? recorder.Begin(name, op) : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) {
      recorder_.End(index_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
  int32_t index_;
};

// Moves the calling thread from CPU to CPU of the set it may run on, so a
// run's calling thread samples every CPU instead of staying on the one it
// started on. On a shared host the virtual CPUs slow down independently
// (another tenant busy on a sibling hardware thread), and the scheduler
// leaves an otherwise idle process where it is, so without moving a whole
// run can sit on a slow CPU. A thread started while the caller is pinned
// inherits the one-CPU mask, so a workload that starts threads calls
// Pause() first.
class CpuRotator {
 public:
  CpuRotator();  // Takes the thread's allowed CPUs.
  ~CpuRotator() { Pause(); }
  CpuRotator(const CpuRotator&) = delete;
  CpuRotator& operator=(const CpuRotator&) = delete;

  // Moves to the next allowed CPU.
  void Next();
  // Lets the thread run on every allowed CPU again, until the next move.
  void Pause();
  // Moves to the next allowed CPU if kPeriodNs passed since the last move.
  // Called between operations, outside the timed region.
  void Tick();

 private:
  static constexpr int64_t kPeriodNs = 250'000'000;
  std::vector<int> cpus_;
  size_t next_ = 0;
  int64_t moved_ns_ = 0;
};

// What one workload run hands back to main.
struct WorkloadReport {
  uint64_t attempted = 0;  // Timed operations.
  uint64_t failed = 0;     // Operations that errored or failed an oracle.
  std::vector<double> setup_seconds;  // One entry per set-up repetition.
  // Operation latencies with tracing off. In a traced run, every other
  // operation runs untraced so the two halves give the tracing overhead.
  std::vector<double> op_ms;
  std::vector<double> traced_op_ms;
  // The workload's own names for its median and op_tail_ms, and the
  // percentile op_tail_ms reports.
  const char* p50_name = "";
  const char* tail_name = "";
  double tail_percentile = 99.0;
  // Consecutive operations that cover the workload's operation mix once
  // (profile-log: one of each scenario; online-drift: one phase cycle).
  // op_round_p5_ms is the 5th percentile, over the run's rounds, of a
  // round's mean operation latency.
  size_t round_ops = 1;
  // Deterministic modeled execution seconds of what the workload's output
  // serves (see README.md for each workload's definition).
  double modeled_exec_s = 0.0;
  // Per-layer metrics by name; layers a workload does not exercise stay 0.
  std::map<std::string, double> layers;
  // Human-readable lines (workload-named metrics, counters, oracle results).
  std::vector<std::string> notes;
};

struct BenchContext {
  RunConfig config;
  SpanRecorder spans;
  WorkloadReport report;
  CpuRotator cpus;

  // In a traced run, odd-numbered operations (online-drift: sessions) are
  // traced and even ones run untraced; in an untraced run nothing is.
  bool TraceOp(uint64_t op) const { return config.trace && (op % 2 == 1); }
  // Files an operation's latency under the traced or untraced series.
  void RecordOp(bool traced, double ms) {
    (traced ? report.traced_op_ms : report.op_ms).push_back(ms);
  }
  void Note(std::string line) { report.notes.push_back(std::move(line)); }
};

// --- Statistics ------------------------------------------------------------

double Median(std::vector<double> values);

// A tail latency at a fixed percentile (nearest rank). Each workload fixes
// the highest of p75/p90/p95/p99 that leaves at least ten samples beyond
// it at its operation rate; `beyond` reports how many did in this run.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  size_t samples = 0;
  size_t beyond = 0;
};
Tail TailOf(std::vector<double> values, double percentile);

// The given percentile (nearest rank) of the mean latency of each complete
// round of `round_ops` consecutive operations; a trailing partial round is
// left out. The host adds time to an operation but never removes it, so a
// low percentile of short rounds reads the program's cost in the host's
// undisturbed periods, and holds while the share of disturbed time changes
// from run to run.
double RoundPercentile(const std::vector<double>& op_ms, size_t round_ops, double percentile);

double PeakRssMb();
unsigned BenchThreads();  // min(host cores, 4).
std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// --- Shared workload helpers ----------------------------------------------

// The links of the first `count` clients of `archetype` in the seeded
// GenerateFleet draw (default mix) that analyze-cli prices its operations
// on, so every workload's links come from the repo's own fleet model.
coign::Result<std::vector<coign::NetworkModel>> ArchetypeLinks(uint64_t seed,
                                                               const coign::NetworkModel& archetype,
                                                               size_t count);

// Repeats `setup` `repetitions` times, each on the next CPU of `cpus`,
// timing each into `seconds`, and keeps the last result. A failed set-up
// returns its status at once.
template <typename State, typename SetupFn>
coign::Result<std::unique_ptr<State>> RepeatSetup(int repetitions,
                                                  std::vector<double>* seconds,
                                                  CpuRotator& cpus, SetupFn setup) {
  std::unique_ptr<State> state;
  for (int i = 0; i < repetitions; ++i) {
    state.reset();
    cpus.Next();
    const int64_t start = NowNs();
    coign::Result<std::unique_ptr<State>> made = setup();
    if (!made.ok()) {
      return made.status();
    }
    seconds->push_back(static_cast<double>(NowNs() - start) * 1e-9);
    state = std::move(*made);
  }
  return state;
}

// Set-up repetitions before the timed loop, and again after it; setup_s is
// the fastest of all of them. Set-ups about 20 s apart do not all fall in
// one slow stretch of the host.
inline constexpr int kSetupRepetitions = 5;

// Workload entry points. Each returns a non-OK status only when it cannot
// run at all (set-up failed); operation failures are counted instead.
coign::Status RunAnalyzeCli(BenchContext& context);
coign::Status RunFleetCold(BenchContext& context);
coign::Status RunFleetReplan(BenchContext& context);
coign::Status RunOnlineDrift(BenchContext& context);
coign::Status RunProfileLog(BenchContext& context);

}  // namespace coignbench

#endif  // COIGNBENCH_BENCH_H_
