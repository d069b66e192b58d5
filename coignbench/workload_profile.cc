// profile-log: the `coign profile` path.
//
// One operation installs the next application of a seeded order of
// o_bigone / p_bigone / b_bigone into a fresh ObjectSystem, instruments it
// (BinaryRewriter::Instrument + CoignRuntime::LoadFromImage), profiles the
// scenario with the profiling runtime (informer marshal sizing, classifier,
// logger), and writes the log with SerializeProfile. This is the write
// side next to analyze-cli's read side.
//
// Oracle: ParseProfile of a written log re-serializes to the same records.
// modeled_exec_s is the predicted execution time of the distribution the
// analysis engine picks from each scenario's log, summed over the three
// scenarios and averaged over the first 10BaseT-archetype clients of the
// seeded fleet draw analyze-cli also prices on.

#include <algorithm>
#include <iterator>
#include <string_view>

#include "bench.h"
#include "src/analysis/engine.h"
#include "src/analysis/prediction.h"
#include "src/apps/suite.h"
#include "src/profile/log_file.h"
#include "src/runtime/binary_rewriter.h"
#include "src/runtime/rte.h"
#include "src/support/rng.h"

namespace coignbench {
namespace {

using namespace coign;  // NOLINT: benchmark code.

constexpr const char* kScenarios[] = {"o_bigone", "p_bigone", "b_bigone"};
constexpr size_t kScenarioCount = std::size(kScenarios);
constexpr uint64_t kCountedOps = 6;   // Two of each scenario.
constexpr uint64_t kOracleEvery = 8;  // Round-trip check cadence after the counted ops.
constexpr size_t kWarmupRounds = 2;
constexpr size_t kLinks = 128;  // Links modeled_exec_s averages over.

struct ProfileState {
  std::vector<size_t> order;  // Seeded permutation of kScenarios.
  std::vector<NetworkProfile> links;
};

// The application of one operation, built outside the timed region. Like
// one `coign profile` invocation, each operation gets a fresh Application:
// an Application keeps storage for every ObjectSystem it was installed
// into, so reusing one would grow memory with the operation count.
struct Subject {
  std::unique_ptr<Application> app;
  Scenario scenario;
};

Result<Subject> MakeSubject(size_t index) {
  Result<std::unique_ptr<Application>> app = BuildApplicationForScenario(kScenarios[index]);
  if (!app.ok()) {
    return app.status();
  }
  Result<Scenario> scenario = (*app)->FindScenario(kScenarios[index]);
  if (!scenario.ok()) {
    return scenario.status();
  }
  return Subject{std::move(*app), std::move(*scenario)};
}

struct Written {
  Status status;
  std::string log;
  size_t classifications = 0;
};

Written ProfileOnce(const Subject& subject, uint64_t seed, SpanRecorder& spans, uint64_t op) {
  Written out;
  ScopedSpan op_span(spans, "profile-log.op", op);
  ObjectSystem system;
  std::unique_ptr<CoignRuntime> runtime;
  {
    ScopedSpan span(spans, "runtime.instrument", op);
    out.status = subject.app->Install(&system);
    if (!out.status.ok()) {
      return out;
    }
    Result<ApplicationImage> image =
        BinaryRewriter().Instrument(subject.app->Image(), ConfigurationRecord());
    if (!image.ok()) {
      out.status = image.status();
      return out;
    }
    Result<std::unique_ptr<CoignRuntime>> loaded = CoignRuntime::LoadFromImage(&system, *image);
    if (!loaded.ok()) {
      out.status = loaded.status();
      return out;
    }
    runtime = std::move(*loaded);
  }
  {
    ScopedSpan span(spans, "runtime.profile_run", op);
    Rng rng(seed);
    runtime->BeginScenario();
    out.status = subject.scenario.run(system, rng);
    system.DestroyAll();
  }
  if (out.status.ok()) {
    ScopedSpan span(spans, "profile.serialize", op);
    const IccProfile& profile = runtime->profiling_logger()->profile();
    out.log = SerializeProfile(profile);
    out.classifications = profile.classifications().size();
  }
  return out;
}

// The log writes call records in hash-map order, which depends on how the
// profile was built, so a re-serialized log holds the same records in
// another order: compare the logs as sorted lines.
bool SameRecords(const std::string& a, const std::string& b) {
  const auto sorted_lines = [](const std::string& text) {
    std::vector<std::string_view> lines;
    size_t begin = 0;
    while (begin < text.size()) {
      const size_t end = std::min(text.find('\n', begin), text.size());
      lines.emplace_back(text.data() + begin, end - begin);
      begin = end + 1;
    }
    std::sort(lines.begin(), lines.end());
    return lines;
  };
  return a.size() == b.size() && sorted_lines(a) == sorted_lines(b);
}

Result<std::unique_ptr<ProfileState>> SetUp(uint64_t seed) {
  auto state = std::make_unique<ProfileState>();
  for (size_t i = 0; i < kScenarioCount; ++i) {
    state->order.push_back(i);
  }
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 5);
  for (size_t i = kScenarioCount - 1; i > 0; --i) {
    std::swap(state->order[i],
              state->order[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(i)))]);
  }
  Result<std::vector<NetworkModel>> networks =
      ArchetypeLinks(seed, NetworkModel::TenBaseT(), kLinks);
  if (!networks.ok()) {
    return networks.status();
  }
  for (const NetworkModel& network : *networks) {
    state->links.push_back(NetworkProfile::Exact(network));
  }
  SpanRecorder untraced;
  for (size_t i = 0; i < kWarmupRounds * kScenarioCount; ++i) {
    Result<Subject> subject = MakeSubject(i % kScenarioCount);
    if (!subject.ok()) {
      return subject.status();
    }
    const Written warm = ProfileOnce(*subject, seed, untraced, 0);
    if (!warm.status.ok()) {
      return warm.status;
    }
  }
  return state;
}

}  // namespace

Status RunProfileLog(BenchContext& context) {
  const RunConfig& config = context.config;
  WorkloadReport& report = context.report;
  report.p50_name = "profile_p50_ms";
  report.tail_name = "profile_tail_ms";
  report.tail_percentile = 99.0;
  report.round_ops = kScenarioCount;
  const auto set_up = [&] { return SetUp(config.seed); };
  Result<std::unique_ptr<ProfileState>> state =
      RepeatSetup<ProfileState>(kSetupRepetitions, &report.setup_seconds, context.cpus, set_up);
  if (!state.ok()) {
    return state.status();
  }
  const ProfileState& s = **state;
  const ProfileAnalysisEngine engine;

  uint64_t counted_bytes = 0;
  uint64_t counted_classifications = 0;
  uint64_t round_trips = 0;
  uint64_t round_trip_failures = 0;
  const int64_t deadline = NowNs() + static_cast<int64_t>(config.seconds * 1e9);
  for (uint64_t op = 0; op < kCountedOps || NowNs() < deadline; ++op) {
    ++report.attempted;
    context.cpus.Tick();
    Result<Subject> subject = MakeSubject(s.order[op % kScenarioCount]);
    if (!subject.ok()) {
      ++report.failed;
      continue;
    }
    context.spans.set_enabled(context.TraceOp(op));
    const int64_t start = NowNs();
    const Written written = ProfileOnce(*subject, config.seed, context.spans, op);
    context.RecordOp(context.spans.enabled(), static_cast<double>(NowNs() - start) * 1e-6);
    context.spans.set_enabled(false);
    bool ok = written.status.ok();
    if (ok && op < kCountedOps) {
      counted_bytes += written.log.size();
      counted_classifications += written.classifications;
    }
    if (ok && (op < kCountedOps || op % kOracleEvery == 0)) {
      Result<IccProfile> parsed = ParseProfile(written.log);
      ++round_trips;
      ok = parsed.ok() && SameRecords(SerializeProfile(*parsed), written.log);
      if (!ok) {
        ++round_trip_failures;
      } else if (op < kScenarioCount) {
        for (const NetworkProfile& link : s.links) {
          Result<AnalysisResult> analysis = engine.Analyze(*parsed, link);
          ok = ok && analysis.ok();
          if (analysis.ok()) {
            report.modeled_exec_s +=
                PredictExecutionTime(*parsed, analysis->distribution, link).total_seconds() /
                kLinks;
          }
        }
      }
    }
    if (!ok) {
      ++report.failed;
    }
  }

  std::string order;
  for (size_t index : s.order) {
    order += std::string(order.empty() ? "" : ", ") + kScenarios[index];
  }
  context.Note(Format("scenario order: %s", order.c_str()));
  context.Note(Format("oracle: %llu log round trips, %llu mismatches",
                      static_cast<unsigned long long>(round_trips),
                      static_cast<unsigned long long>(round_trip_failures)));
  context.Note(Format("exact counters over ops 0..%llu: log bytes %llu classifications %llu",
                      static_cast<unsigned long long>(kCountedOps - 1),
                      static_cast<unsigned long long>(counted_bytes),
                      static_cast<unsigned long long>(counted_classifications)));

  std::map<std::string, double>& layers = report.layers;
  layers["profile.log_bytes"] = static_cast<double>(counted_bytes) / kCountedOps;
  layers["classify.classifications"] = static_cast<double>(counted_classifications) / kCountedOps;
  if (config.trace) {
    layers["runtime.instrument_us"] = Median(context.spans.DurationsUs("runtime.instrument"));
    layers["runtime.profile_run_us"] = Median(context.spans.DurationsUs("runtime.profile_run"));
    layers["profile.serialize_us"] = Median(context.spans.DurationsUs("profile.serialize"));
  }
  // The second half of the set-ups, with the run's state freed first.
  state->reset();
  return RepeatSetup<ProfileState>(kSetupRepetitions, &report.setup_seconds, context.cpus, set_up)
      .status();
}

}  // namespace coignbench
