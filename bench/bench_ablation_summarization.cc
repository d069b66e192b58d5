// Ablation: exponential size-range summarization vs exact per-size logging
// (paper §3.3: "the profiling logger reduces memory overhead by summarizing
// data for messages in common size ranges ... summarization preserves
// network independence while significantly lowering storage requirements").
//
// Measures, per scenario: raw trace records an event logger writes (one
// per call — storage grows linearly with execution time), distinct
// (pair, method, sizes) records a distinct-size logger would keep, and the
// bucket entries the summarizing logger keeps (bounded by pairs x methods x
// buckets, independent of execution length). The summarization introduces
// zero error into predicted communication time under the affine cost
// model, because bucket byte totals are exact.

#include <cstdio>
#include <set>
#include <tuple>

#include "bench/harness.h"
#include "src/runtime/rte.h"

using namespace coign;  // NOLINT: bench binary.

namespace {

struct SummarizationStats {
  uint64_t calls = 0;
  size_t exact_records = 0;
  size_t bucket_records = 0;
};

Result<SummarizationStats> Measure(const std::string& scenario_id, int repeats = 1) {
  Result<std::unique_ptr<Application>> app = BuildApplicationForScenario(scenario_id);
  if (!app.ok()) {
    return app.status();
  }
  ObjectSystem system;
  COIGN_RETURN_IF_ERROR((*app)->Install(&system));
  ConfigurationRecord config;
  CoignRuntime runtime(&system, config);
  EventLogger events;
  runtime.AddLogger(&events);
  Rng rng(17);
  Result<Scenario> scenario = (*app)->FindScenario(scenario_id);
  if (!scenario.ok()) {
    return scenario.status();
  }
  for (int r = 0; r < repeats; ++r) {
    runtime.BeginScenario();
    COIGN_RETURN_IF_ERROR(scenario->run(system, rng));
    system.DestroyAll();
  }

  SummarizationStats stats;
  std::set<std::tuple<ClassificationId, ClassificationId, MethodIndex, uint64_t, uint64_t>>
      exact;
  for (const ProfileEvent& event : events.events()) {
    if (event.kind != EventKind::kInterfaceCall) {
      continue;
    }
    ++stats.calls;
    exact.emplace(event.caller_classification, event.subject_classification, event.method,
                  event.request_bytes, event.reply_bytes);
  }
  stats.exact_records = exact.size();
  const IccProfile profile = runtime.profiling_logger()->profile();
  const auto count_bucket = [&stats](int, uint64_t, uint64_t) { ++stats.bucket_records; };
  for (const auto& [key, summary] : profile.calls()) {
    summary.requests.ForEachBucket(count_bucket);
    summary.replies.ForEachBucket(count_bucket);
  }
  return stats;
}

}  // namespace

int main() {
  std::printf("Ablation: exponential size-range summarization vs exact logging.\n");
  PrintRule(78);
  std::printf("%-10s %14s %16s %16s %12s\n", "Scenario", "Trace records", "Distinct sizes",
              "Bucket records", "Compression");
  PrintRule(78);
  for (const char* id : {"o_oldwp7", "o_oldtb3", "o_mixed9", "p_oldmsr", "b_bigone"}) {
    Result<SummarizationStats> stats = Measure(id);
    if (!stats.ok()) {
      std::fprintf(stderr, "%s: %s\n", id, stats.status().ToString().c_str());
      return 1;
    }
    std::printf("%-10s %14llu %16zu %16zu %11.1fx\n", id,
                static_cast<unsigned long long>(stats->calls), stats->exact_records,
                stats->bucket_records,
                stats->bucket_records > 0
                    ? static_cast<double>(stats->calls) /
                          static_cast<double>(stats->bucket_records)
                    : 0.0);
  }
  PrintRule(78);
  std::printf("\nGrowth with profiling length (the paper's claim: \"the overhead for\n"
              "storing communication information does not grow linearly with execution\n"
              "time ... the application may be run through profiling scenarios for days\n"
              "or even weeks\"): o_oldwp0 repeated N times in one profiling session.\n");
  PrintRule(78);
  std::printf("%-10s %14s %16s\n", "Repeats", "Trace records", "Bucket records");
  PrintRule(78);
  for (int repeats : {1, 4, 16, 64}) {
    Result<SummarizationStats> stats = Measure("o_oldwp0", repeats);
    if (!stats.ok()) {
      return 1;
    }
    std::printf("%-10d %14llu %16zu\n", repeats,
                static_cast<unsigned long long>(stats->calls), stats->bucket_records);
  }
  PrintRule(78);
  std::printf("Bucket byte totals are exact, so predicted communication time is\n"
              "identical with or without summarization under the affine cost model;\n"
              "storage shrinks and, crucially, stays bounded as profiling runs grow.\n");
  return 0;
}
