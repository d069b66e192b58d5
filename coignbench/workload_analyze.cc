// analyze-cli: the `coign analyze` path a developer waits on.
//
// One operation parses the serialized Octarine o_newdoc + o_oldwp3 profile
// log and runs a cold ProfileAnalysisEngine::Analyze, priced at the exact
// NetworkProfile of the next client link of a seeded GenerateFleet draw,
// so no two operations share capacities. No pool, plan cache, warm session
// or runtime is involved.
//
// Traced operations are followed (outside the operation) by a replay of
// the same analysis through the public stage entry points — constraints,
// abstract graph, concrete graph, CSR build + cold IncrementalMinCut solve
// — so each stage gets its own span; assembly is what Analyze spends
// beyond those stages.

#include <set>

#include "bench.h"
#include "bench/harness.h"
#include "src/analysis/engine.h"
#include "src/analysis/prediction.h"
#include "src/apps/octarine.h"
#include "src/mincut/compact_flow_network.h"
#include "src/mincut/incremental.h"
#include "src/profile/log_file.h"
#include "src/sim/fleet_population.h"
#include "src/support/rng.h"

namespace coignbench {
namespace {

using namespace coign;  // NOLINT: benchmark code.

constexpr int kLinkPool = 4096;         // Client links drawn per run.
constexpr uint64_t kCountedOps = 512;   // Exact counters cover these ops.
constexpr int kOracleSamples = 4;       // Relabel-to-front re-cuts per run.
constexpr int kWarmupOps = 16;

// Mean of per-archetype means weighted by the default fleet mix: how many
// of the counted links fall in each link class varies with the seed, and
// weighting by the mix keeps that draw out of the modeled metric.
class StratifiedMean {
 public:
  void Add(const std::string& archetype, double value) {
    auto& [sum, count] = strata_[archetype];
    sum += value;
    ++count;
  }
  double Value() const {
    double weighted = 0.0;
    double weights = 0.0;
    for (const FleetArchetype& archetype : DefaultFleetArchetypes()) {
      const auto it = strata_.find(archetype.base.name);
      if (it != strata_.end()) {
        weighted += archetype.weight * it->second.first / it->second.second;
        weights += archetype.weight;
      }
    }
    return weights > 0.0 ? weighted / weights : 0.0;
  }

 private:
  std::map<std::string, std::pair<double, int>> strata_;
};

struct AnalyzeState {
  std::string log;
  std::vector<FleetClient> links;
};

Result<std::unique_ptr<AnalyzeState>> SetUp(uint64_t seed) {
  auto state = std::make_unique<AnalyzeState>();
  std::unique_ptr<Application> app = MakeOctarine();
  Result<IccProfile> profile = ProfileScenarios(*app, {"o_newdoc", "o_oldwp3"});
  if (!profile.ok()) {
    return profile.status();
  }
  state->log = SerializeProfile(*profile);
  FleetPopulationOptions population;
  population.client_count = kLinkPool;
  state->links = GenerateFleet(population, seed);
  const ProfileAnalysisEngine engine;
  for (int i = 0; i < kWarmupOps; ++i) {
    Result<IccProfile> parsed = ParseProfile(state->log);
    if (!parsed.ok()) {
      return parsed.status();
    }
    const NetworkProfile network =
        NetworkProfile::Exact(state->links[static_cast<size_t>(kLinkPool - 1 - i)].network);
    Result<AnalysisResult> analysis = engine.Analyze(*parsed, network);
    if (!analysis.ok()) {
      return analysis.status();
    }
  }
  return state;
}

CapUnits EdgeCapacity(const ConcreteEdge& edge) {
  return edge.constraint ? kInfiniteCapacity : SecondsToCapUnits(edge.seconds);
}

struct StageReplay {
  CapUnits cut_value = 0;
  int nodes = 0;
  size_t edges = 0;
};

// The analysis pipeline, one public stage call per span.
StageReplay ReplayStages(SpanRecorder& spans, uint64_t op, const IccProfile& profile,
                         const NetworkProfile& network) {
  ScopedSpan replay(spans, "analysis.stages", op);
  LocationConstraints constraints;
  {
    ScopedSpan span(spans, "graph.constraints", op);
    constraints = LocationConstraints::FromProfile(profile);
  }
  AbstractIccGraph abstract;
  {
    ScopedSpan span(spans, "graph.abstract", op);
    abstract = AbstractIccGraph::FromProfile(profile);
  }
  ConcreteGraph concrete;
  {
    ScopedSpan span(spans, "graph.concrete", op);
    concrete = ConcreteGraph::Build(abstract, network, constraints);
  }
  StageReplay out;
  out.nodes = concrete.node_count();
  out.edges = concrete.edges().size();
  {
    ScopedSpan span(spans, "mincut.cold_solve", op);
    CompactFlowNetwork flow(concrete.node_count());
    for (const ConcreteEdge& edge : concrete.edges()) {
      flow.AddEdge(edge.a, edge.b, EdgeCapacity(edge));
    }
    flow.Finalize();
    IncrementalMinCut cut;
    cut.Reset(std::move(flow), ConcreteGraph::kClientNode, ConcreteGraph::kServerNode);
    out.cut_value = cut.Solve().cut_value;
  }
  return out;
}

}  // namespace

Status RunAnalyzeCli(BenchContext& context) {
  const RunConfig& config = context.config;
  WorkloadReport& report = context.report;
  report.p50_name = "analyze_p50_ms";
  report.tail_name = "analyze_tail_ms";
  report.tail_percentile = 99.0;
  const auto set_up = [&] { return SetUp(config.seed); };
  Result<std::unique_ptr<AnalyzeState>> state =
      RepeatSetup<AnalyzeState>(kSetupRepetitions, &report.setup_seconds, context.cpus, set_up);
  if (!state.ok()) {
    return state.status();
  }
  const std::string& log = (*state)->log;
  const std::vector<FleetClient>& links = (*state)->links;

  const ProfileAnalysisEngine engine;
  AnalysisOptions oracle_options;
  oracle_options.algorithm = CutAlgorithm::kRelabelToFront;
  const ProfileAnalysisEngine oracle_engine(oracle_options);
  Rng sample_rng(config.seed * 0x9e3779b97f4a7c15ull + 1);
  std::set<uint64_t> oracle_ops;
  while (oracle_ops.size() < kOracleSamples) {
    oracle_ops.insert(static_cast<uint64_t>(sample_rng.UniformInt(0, kCountedOps - 1)));
  }

  MinCutSolveStats counted;
  StratifiedMean modeled;
  uint64_t oracle_failures = 0;
  StageReplay shape;
  const int64_t deadline = NowNs() + static_cast<int64_t>(config.seconds * 1e9);
  for (uint64_t op = 0; op < kCountedOps || NowNs() < deadline; ++op) {
    context.cpus.Tick();
    const NetworkProfile network = NetworkProfile::Exact(links[op % links.size()].network);
    context.spans.set_enabled(context.TraceOp(op));
    MinCutSession session;
    Result<IccProfile> parsed = InternalError("not parsed");
    Result<AnalysisResult> analysis = InternalError("not analyzed");
    const int64_t start = NowNs();
    {
      ScopedSpan op_span(context.spans, "analyze-cli.op", op);
      {
        ScopedSpan span(context.spans, "profile.parse", op);
        parsed = ParseProfile(log);
      }
      if (parsed.ok()) {
        ScopedSpan span(context.spans, "analysis.analyze", op);
        analysis = engine.Analyze(*parsed, network, &session);
      }
    }
    context.RecordOp(context.spans.enabled(), static_cast<double>(NowNs() - start) * 1e-6);
    ++report.attempted;
    if (!parsed.ok() || !analysis.ok()) {
      context.spans.set_enabled(false);
      ++report.failed;
      continue;
    }
    bool ok = true;
    if (context.spans.enabled()) {
      shape = ReplayStages(context.spans, op, *parsed, network);
      ok = shape.cut_value == analysis->cut_value_units;
    }
    context.spans.set_enabled(false);
    if (op < kCountedOps) {
      counted.Accumulate(session.stats());
      modeled.Add(links[op % links.size()].archetype,
                  PredictExecutionTime(*parsed, analysis->distribution, network).total_seconds());
    }
    if (oracle_ops.count(op) != 0) {
      Result<AnalysisResult> reference = oracle_engine.Analyze(*parsed, network);
      if (!reference.ok() || reference->cut_value_units != analysis->cut_value_units ||
          reference->distribution.placement != analysis->distribution.placement) {
        ++oracle_failures;
        ok = false;
      }
    }
    if (!ok) {
      ++report.failed;
    }
  }

  report.modeled_exec_s = modeled.Value();
  context.Note(Format("modeled_exec_s: predicted execution seconds of the cuts chosen by ops "
                      "0..%llu at their own links, mean per link class weighted by the fleet "
                      "mix",
                      static_cast<unsigned long long>(kCountedOps - 1)));
  context.Note(Format("oracle: %d relabel-to-front re-cuts, %llu mismatches", kOracleSamples,
                      static_cast<unsigned long long>(oracle_failures)));
  context.Note(Format("exact counters over ops 0..%llu: pushes %llu relabels %llu "
                      "global_relabels %llu",
                      static_cast<unsigned long long>(kCountedOps - 1),
                      static_cast<unsigned long long>(counted.pushes),
                      static_cast<unsigned long long>(counted.relabels),
                      static_cast<unsigned long long>(counted.global_relabels)));

  std::map<std::string, double>& layers = report.layers;
  layers["profile.log_bytes"] = static_cast<double>(log.size());
  layers["mincut.pushes"] = static_cast<double>(counted.pushes);
  layers["mincut.relabels"] = static_cast<double>(counted.relabels);
  layers["mincut.global_relabels"] = static_cast<double>(counted.global_relabels);
  if (config.trace) {
    const SpanRecorder& spans = context.spans;
    layers["graph.nodes"] = shape.nodes;
    layers["graph.edges"] = static_cast<double>(shape.edges);
    layers["profile.parse_us"] = Median(spans.SelfTimesUs("profile.parse"));
    layers["analysis.analyze_us"] = Median(spans.DurationsUs("analysis.analyze"));
    const char* kStages[] = {"graph.constraints", "graph.abstract", "graph.concrete",
                             "mincut.cold_solve"};
    std::map<uint64_t, double> assemble = spans.DurationByOpUs("analysis.analyze");
    for (const char* stage : kStages) {
      layers[std::string(stage) + "_us"] = Median(spans.DurationsUs(stage));
      for (const auto& [op, us] : spans.DurationByOpUs(stage)) {
        assemble[op] -= us;
      }
    }
    // The stage spans come from the replay that follows a traced operation,
    // not from inside the timed Analyze. An operation whose replayed stages
    // outlast its Analyze span is flagged; if that is the typical operation,
    // Analyze no longer runs the replayed stages and the run fails.
    std::vector<double> assemble_us;
    size_t negative = 0;
    for (const auto& [op, us] : assemble) {
      assemble_us.push_back(us);
      negative += us < 0.0 ? 1 : 0;
    }
    layers["analysis.assemble_us"] = Median(assemble_us);
    context.Note(Format("stage check: in %zu of %zu traced ops the replayed stages took longer "
                        "than the timed Analyze (negative assemble)",
                        negative, assemble_us.size()));
    if (layers["analysis.assemble_us"] <= 0.0) {
      ++report.failed;
      context.Note("FAILED stage check: median assemble self time is not positive, so the "
                   "replay no longer matches what Analyze runs");
    }
    double stage_sum = layers["analysis.assemble_us"] + layers["profile.parse_us"];
    for (const char* stage : kStages) {
      stage_sum += layers[std::string(stage) + "_us"];
    }
    const double op_us = Median(spans.DurationsUs("analyze-cli.op"));
    context.Note(Format("stage accounting: parse + constraints + abstract + concrete + "
                        "solve + assemble = %.1f us vs traced op p50 %.1f us (%+.1f%%)",
                        stage_sum, op_us, op_us > 0 ? 100.0 * (stage_sum / op_us - 1.0) : 0.0));
  }
  // The second half of the set-ups, with the run's state freed first.
  state->reset();
  return RepeatSetup<AnalyzeState>(kSetupRepetitions, &report.setup_seconds, context.cpus, set_up)
      .status();
}

}  // namespace coignbench
