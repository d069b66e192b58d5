// online-drift: rent-or-buy repartitioning under usage drift.
//
// One operation is one epoch: a scenario run under a distributed-mode
// CoignRuntime with a NetworkAccountant and an OnlineRepartitioner
// attached, then OnlineRepartitioner::EndEpoch(). Octarine is profiled on
// o_oldwp0/3/7 and ships the text cut; sessions cycle o_oldwp3 x3 and
// o_mixed9 x3, so every phase shift drives a windowed warm-session re-cut
// and a migration. Repartitioner options are bench_online_repartition's
// (drift-driven, cooldown 1). A session is a fixed number of epochs and is
// repeated until the run's time is up; every session must end on the
// modeled seconds and distribution of the first session on its link.
//
// The seed drives the scenario RNG and the session links: the first
// 10BaseT-archetype clients of the seeded fleet draw analyze-cli also
// prices on. Sessions take the links in turn; each link ships its own cut
// of the profile and fits its own network profile.

#include <algorithm>
#include <set>

#include "bench.h"
#include "bench/harness.h"
#include "src/analysis/engine.h"
#include "src/apps/octarine.h"
#include "src/obs/obs.h"
#include "src/online/repartitioner.h"
#include "src/sim/accountant.h"
#include "src/support/rng.h"

namespace coignbench {
namespace {

using namespace coign;  // NOLINT: benchmark code.

constexpr int kCycles = 8;        // Per session: (o_oldwp3 x3, o_mixed9 x3) x 8.
constexpr int kRepetitions = 3;   // Epochs per phase.
// Links per run. Odd, so that a traced run's alternating traced and
// untraced sessions cover every link both ways.
constexpr size_t kLinks = 41;

struct SessionLink {
  NetworkModel network;
  NetworkProfile fitted;
  Distribution shipped;  // The text cut Coign ships for this link.
};

struct OnlineState {
  std::vector<Descriptor> table;
  IccProfile text_profile;
  std::vector<SessionLink> links;
  OnlineOptions online;
};

struct SessionResult {
  Status status;
  double modeled_exec_s = 0.0;
  Distribution final_distribution;
  OnlineStats stats;
  uint64_t calls = 0;
  uint64_t epochs = 0;
  MinCutSolveStats cut;  // From the Observability registry (traced sessions).
};

OnlineOptions RepartitionerOptions() {
  OnlineOptions online;
  online.window.decay = 0.5;
  online.policy.min_window_messages = 50.0;
  online.policy.min_relative_gain = 0.05;
  online.policy.horizon_windows = 2.0;
  online.policy.state_bytes_per_instance = 4096;
  online.epochs_per_recut = 0;  // Purely drift-driven.
  online.cooldown_epochs = 1;
  return online;
}

// Where a session reports its epochs: null runs the session untimed.
struct EpochSink {
  BenchContext* context = nullptr;
  bool traced = false;
  uint64_t* next_op = nullptr;
  std::set<uint64_t>* evaluating_ops = nullptr;
};

SessionResult RunSession(const OnlineState& state, const SessionLink& link, uint64_t seed,
                         const EpochSink& sink) {
  SessionResult result;
  // A fresh application per session: an Application keeps storage for
  // every ObjectSystem it was installed into, so reusing one would grow
  // memory with the number of sessions a run completes.
  std::unique_ptr<Application> app = MakeOctarine();
  ObjectSystem system;
  result.status = app->Install(&system);
  if (!result.status.ok()) {
    return result;
  }
  ConfigurationRecord config;
  config.mode = RuntimeMode::kDistributed;
  config.classifier_table = state.table;
  config.distribution = link.shipped;
  CoignRuntime runtime(&system, config);
  NetworkAccountant accountant(&system, Transport(link.network));
  OnlineRepartitioner repartitioner(&system, &runtime, state.text_profile, link.fitted,
                                    state.online);
  repartitioner.SetMigrationCharge([&accountant](uint64_t bytes, double seconds) {
    accountant.ChargeMigration(bytes, seconds);
  });
  Observability obs;
  if (sink.traced) {
    repartitioner.SetObservability(&obs);
  }
  SpanRecorder untimed;
  SpanRecorder& recorder = sink.context != nullptr ? sink.context->spans : untimed;
  recorder.set_enabled(sink.traced);

  Rng rng(seed);
  std::vector<Scenario> phases;
  for (const char* id : {"o_oldwp3", "o_mixed9"}) {
    Result<Scenario> scenario = app->FindScenario(id);
    if (!scenario.ok()) {
      result.status = scenario.status();
      return result;
    }
    phases.push_back(*scenario);
  }
  for (int cycle = 0; cycle < kCycles && result.status.ok(); ++cycle) {
    for (const Scenario& scenario : phases) {
      for (int rep = 0; rep < kRepetitions && result.status.ok(); ++rep) {
        const uint64_t op = sink.next_op != nullptr ? (*sink.next_op)++ : 0;
        const uint64_t evaluations = repartitioner.stats().evaluations;
        if (sink.context != nullptr) {
          sink.context->cpus.Tick();
        }
        Status ran;
        Status ended;
        const int64_t start = NowNs();
        {
          ScopedSpan op_span(recorder, "online-drift.op", op);
          {
            ScopedSpan span(recorder, "runtime.scenario", op);
            runtime.BeginScenario();
            ran = scenario.run(system, rng);
          }
          if (ran.ok()) {
            ScopedSpan span(recorder, "online.end_epoch", op);
            ended = repartitioner.EndEpoch();
          }
        }
        const double ms = static_cast<double>(NowNs() - start) * 1e-6;
        system.DestroyAll();
        result.status = ran.ok() ? ended : ran;
        ++result.epochs;
        if (sink.context != nullptr) {
          sink.context->RecordOp(sink.traced, ms);
          ++sink.context->report.attempted;
          if (!result.status.ok()) {
            ++sink.context->report.failed;
          }
          if (repartitioner.stats().evaluations > evaluations) {
            sink.evaluating_ops->insert(op);
          }
        }
      }
    }
  }
  recorder.set_enabled(false);
  result.modeled_exec_s = accountant.execution_seconds();
  result.final_distribution = runtime.config().distribution;
  result.stats = repartitioner.stats();
  result.calls = runtime.calls_observed();
  if (sink.traced) {
    MetricsRegistry& metrics = obs.metrics();
    result.cut.pushes = metrics.GetCounter("mincut.pushes")->value();
    result.cut.relabels = metrics.GetCounter("mincut.relabels")->value();
    result.cut.global_relabels = metrics.GetCounter("mincut.global_relabels")->value();
    result.cut.warm_start_hits = metrics.GetCounter("mincut.warm_start_hits")->value();
  }
  return result;
}

bool SameOutcome(const SessionResult& a, const SessionResult& b) {
  return a.status.ok() && b.status.ok() && a.modeled_exec_s == b.modeled_exec_s &&
         a.final_distribution.placement == b.final_distribution.placement &&
         a.stats.repartitions == b.stats.repartitions &&
         a.stats.instances_moved == b.stats.instances_moved &&
         a.stats.migration_bytes == b.stats.migration_bytes && a.calls == b.calls;
}

Result<std::unique_ptr<OnlineState>> SetUp(uint64_t seed) {
  auto state = std::make_unique<OnlineState>();
  Result<IccProfile> profile =
      ProfileScenarios(*MakeOctarine(), {"o_oldwp0", "o_oldwp3", "o_oldwp7"},
                       ClassifierKind::kInternalFunctionCalledBy, kCompleteStackWalk, 17,
                       &state->table);
  if (!profile.ok()) {
    return profile.status();
  }
  state->text_profile = std::move(*profile);
  Result<std::vector<NetworkModel>> networks =
      ArchetypeLinks(seed, NetworkModel::TenBaseT(), kLinks);
  if (!networks.ok()) {
    return networks.status();
  }
  const ProfileAnalysisEngine engine;
  for (const NetworkModel& network : *networks) {
    SessionLink link;
    link.network = network;
    link.fitted = FitNetwork(network);
    Result<AnalysisResult> shipped = engine.Analyze(state->text_profile, link.fitted);
    if (!shipped.ok()) {
      return shipped.status();
    }
    link.shipped = shipped->distribution;
    state->links.push_back(std::move(link));
  }
  state->online = RepartitionerOptions();
  const SessionResult warmup = RunSession(*state, state->links[0], seed, EpochSink{});
  if (!warmup.status.ok()) {
    return warmup.status;
  }
  return state;
}

}  // namespace

Status RunOnlineDrift(BenchContext& context) {
  const RunConfig& config = context.config;
  WorkloadReport& report = context.report;
  report.p50_name = "online_epoch_p50_ms";
  report.tail_name = "online_epoch_tail_ms";
  report.tail_percentile = 99.0;
  report.round_ops = 2 * kRepetitions;  // One phase cycle.
  const auto set_up = [&] { return SetUp(config.seed); };
  Result<std::unique_ptr<OnlineState>> state =
      RepeatSetup<OnlineState>(kSetupRepetitions, &report.setup_seconds, context.cpus, set_up);
  if (!state.ok()) {
    return state.status();
  }
  const std::vector<SessionLink>& links = (*state)->links;

  // The first session on each link is its reference: every later session
  // on that link, traced or not, must end on the same outcome.
  std::vector<SessionResult> references;
  SessionResult traced_session;  // The first traced one.
  uint64_t next_op = 0;
  uint64_t sessions = 0;
  uint64_t mismatches = 0;
  std::set<uint64_t> evaluating_ops;
  const int64_t deadline = NowNs() + static_cast<int64_t>(config.seconds * 1e9);
  while (sessions <= kLinks || NowNs() < deadline) {
    const size_t link = sessions % kLinks;
    EpochSink sink;
    sink.context = &context;
    sink.traced = context.TraceOp(sessions);
    sink.next_op = &next_op;
    sink.evaluating_ops = &evaluating_ops;
    SessionResult session = RunSession(**state, links[link], config.seed, sink);
    if (sink.traced && traced_session.epochs == 0) {
      traced_session = session;
    }
    if (sessions < kLinks) {
      references.push_back(std::move(session));
    } else if (!SameOutcome(session, references[link])) {
      ++mismatches;
      ++report.failed;
    }
    ++sessions;
  }

  OnlineStats summed;  // Over the reference sessions.
  uint64_t calls = 0;
  uint64_t epochs = 0;
  for (const SessionResult& reference : references) {
    report.modeled_exec_s += reference.modeled_exec_s / kLinks;
    summed.evaluations += reference.stats.evaluations;
    summed.repartitions += reference.stats.repartitions;
    summed.instances_moved += reference.stats.instances_moved;
    summed.migration_bytes += reference.stats.migration_bytes;
    calls += reference.calls;
    epochs += reference.epochs;
  }
  double min_latency = links[0].network.per_message_seconds, max_latency = min_latency;
  double min_bandwidth = links[0].network.bytes_per_second, max_bandwidth = min_bandwidth;
  for (const SessionLink& link : links) {
    min_latency = std::min(min_latency, link.network.per_message_seconds);
    max_latency = std::max(max_latency, link.network.per_message_seconds);
    min_bandwidth = std::min(min_bandwidth, link.network.bytes_per_second);
    max_bandwidth = std::max(max_bandwidth, link.network.bytes_per_second);
  }
  context.Note(Format("%zu 10BaseT links of the seed's fleet draw, taken in turn: %.0f-%.0f "
                      "us/message, %.0f-%.0f bytes/s",
                      kLinks, min_latency * 1e6, max_latency * 1e6, min_bandwidth, max_bandwidth));
  context.Note(Format("%d cycles x 2 phases x %d epochs per session", kCycles, kRepetitions));
  context.Note(Format("online_modeled_exec_s = modeled_exec_s (sim clock, migrations "
                      "included, mean over the links); %llu sessions, %llu differ from "
                      "their link's reference",
                      static_cast<unsigned long long>(sessions),
                      static_cast<unsigned long long>(mismatches)));
  context.Note(Format("exact counters over the %zu reference sessions: evaluations %llu "
                      "repartitions %llu instances_moved %llu migration_bytes %llu",
                      kLinks, static_cast<unsigned long long>(summed.evaluations),
                      static_cast<unsigned long long>(summed.repartitions),
                      static_cast<unsigned long long>(summed.instances_moved),
                      static_cast<unsigned long long>(summed.migration_bytes)));

  std::map<std::string, double>& layers = report.layers;
  layers["runtime.calls"] = static_cast<double>(calls) / static_cast<double>(epochs);
  layers["online.evaluations"] = static_cast<double>(summed.evaluations) / kLinks;
  layers["online.repartitions"] = static_cast<double>(summed.repartitions) / kLinks;
  layers["online.instances_moved"] = static_cast<double>(summed.instances_moved) / kLinks;
  layers["online.migration_bytes"] = static_cast<double>(summed.migration_bytes) / kLinks;
  if (config.trace) {
    const SpanRecorder& spans = context.spans;
    layers["runtime.scenario_us"] = Median(spans.DurationsUs("runtime.scenario"));
    layers["runtime.ns_per_call"] =
        layers["runtime.calls"] > 0 ? layers["runtime.scenario_us"] * 1e3 / layers["runtime.calls"]
                                    : 0.0;
    layers["online.end_epoch_us"] = Median(spans.DurationsUs("online.end_epoch"));
    std::vector<double> eval_us, quiet_us;
    for (const auto& [op, us] : spans.DurationByOpUs("online.end_epoch")) {
      (evaluating_ops.count(op) != 0 ? eval_us : quiet_us).push_back(us);
    }
    layers["online.eval_epoch_us"] = Median(eval_us);
    layers["online.quiet_epoch_us"] = Median(quiet_us);
    layers["mincut.pushes"] = static_cast<double>(traced_session.cut.pushes);
    layers["mincut.relabels"] = static_cast<double>(traced_session.cut.relabels);
    layers["mincut.global_relabels"] = static_cast<double>(traced_session.cut.global_relabels);
    layers["mincut.warm_start_hits"] = static_cast<double>(traced_session.cut.warm_start_hits);
    context.Note(Format("evaluating epochs: %zu of %zu traced", eval_us.size(),
                        eval_us.size() + quiet_us.size()));
  }
  // The second half of the set-ups, with the run's state freed first.
  state->reset();
  return RepeatSetup<OnlineState>(kSetupRepetitions, &report.setup_seconds, context.cpus, set_up)
      .status();
}

}  // namespace coignbench
