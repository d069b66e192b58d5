#include "bench/harness.h"

#include <cstdio>

#include "src/apps/octarine.h"
#include "src/profile/log_file.h"
#include "src/runtime/binary_rewriter.h"
#include "src/support/file_io.h"
#include "src/support/str_util.h"

namespace coign {

Result<IccProfile> ProfileScenarios(Application& app, const std::vector<std::string>& ids,
                                    ClassifierKind classifier, int depth, uint64_t seed,
                                    std::vector<Descriptor>* classifier_table) {
  ObjectSystem system;
  COIGN_RETURN_IF_ERROR(app.Install(&system));

  BinaryRewriter rewriter;
  ConfigurationRecord config;
  config.classifier_kind = classifier;
  config.classifier_depth = depth;
  Result<ApplicationImage> instrumented = rewriter.Instrument(app.Image(), config);
  if (!instrumented.ok()) {
    return instrumented.status();
  }
  Result<std::unique_ptr<CoignRuntime>> runtime =
      CoignRuntime::LoadFromImage(&system, *instrumented);
  if (!runtime.ok()) {
    return runtime.status();
  }

  Rng rng(seed);
  for (const std::string& id : ids) {
    Result<Scenario> scenario = app.FindScenario(id);
    if (!scenario.ok()) {
      return scenario.status();
    }
    (*runtime)->BeginScenario();
    COIGN_RETURN_IF_ERROR(scenario->run(system, rng));
    system.DestroyAll();
  }
  if (classifier_table != nullptr) {
    *classifier_table = (*runtime)->classifier().ExportDescriptors();
  }
  return (*runtime)->profiling_logger()->profile();
}

NetworkProfile FitNetwork(const NetworkModel& model, uint64_t seed) {
  Rng rng(seed);
  return ProfileNetwork(Transport(model), rng);
}

Result<RunMeasurement> MeasureDefault(Application& app, const std::string& scenario_id,
                                      const NetworkModel& network, Rng* jitter,
                                      uint64_t seed) {
  ObjectSystem system;
  COIGN_RETURN_IF_ERROR(app.Install(&system));
  const ClassPlacement placement = app.DefaultPlacement(system);
  system.SetPlacementPolicy(placement.AsPolicy());
  Result<Scenario> scenario = app.FindScenario(scenario_id);
  if (!scenario.ok()) {
    return scenario.status();
  }
  MeasurementOptions options;
  options.network = network;
  options.jitter_rng = jitter;
  Rng rng(seed);
  return MeasureRun(
      system, [&](ObjectSystem& sys) { return scenario->run(sys, rng); }, options);
}

Result<RunMeasurement> MeasureDistributed(Application& app, const std::string& scenario_id,
                                          const Distribution& distribution,
                                          const NetworkModel& network, Rng* jitter,
                                          uint64_t seed,
                                          const std::vector<Descriptor>* classifier_table,
                                          ClassifierKind classifier, int depth) {
  ObjectSystem system;
  COIGN_RETURN_IF_ERROR(app.Install(&system));
  ConfigurationRecord config;
  config.mode = RuntimeMode::kDistributed;
  config.distribution = distribution;
  config.classifier_kind = classifier;
  config.classifier_depth = depth;
  if (classifier_table != nullptr) {
    config.classifier_table = *classifier_table;
  }
  CoignRuntime runtime(&system, config);
  runtime.BeginScenario();
  Result<Scenario> scenario = app.FindScenario(scenario_id);
  if (!scenario.ok()) {
    return scenario.status();
  }
  MeasurementOptions options;
  options.network = network;
  options.jitter_rng = jitter;
  Rng rng(seed);
  return MeasureRun(
      system, [&](ObjectSystem& sys) { return scenario->run(sys, rng); }, options);
}

Result<AnalysisResult> AnalyzeScenario(Application& app, const std::string& scenario_id,
                                       const NetworkModel& network, uint64_t seed) {
  Result<IccProfile> profile = ProfileScenarios(app, {scenario_id},
                                                ClassifierKind::kInternalFunctionCalledBy,
                                                kCompleteStackWalk, seed);
  if (!profile.ok()) {
    return profile.status();
  }
  ProfileAnalysisEngine engine;
  return engine.Analyze(*profile, FitNetwork(network, seed));
}

FigureCounts CountFigureInstances(const Application& app, const IccProfile& profile,
                                  const Distribution& distribution) {
  FigureCounts counts;
  for (const ClassificationInfo& info : profile.classifications()) {
    if (app.IsInfrastructureClass(info.class_name)) {
      continue;
    }
    counts.total += info.instance_count;
    if (distribution.MachineFor(info.id) == kServerMachine) {
      counts.on_server += info.instance_count;
    }
  }
  return counts;
}

void PrintRule(int width) {
  for (int i = 0; i < width; ++i) {
    std::putchar('-');
  }
  std::putchar('\n');
}

Result<ClassifierAccuracyRow> EvaluateOctarineClassifier(ClassifierKind kind, int depth) {
  // Every Table 1 Octarine scenario except the bigone synthesis.
  static const std::vector<std::string> kProfilingScenarios = {
      "o_newdoc", "o_newmus", "o_newtbl", "o_oldtb0", "o_oldtb3", "o_oldwp0",
      "o_oldwp3", "o_oldwp7", "o_oldbth", "o_offtb3", "o_offwp7",
  };

  std::unique_ptr<Application> app = MakeOctarine();
  ObjectSystem system;
  COIGN_RETURN_IF_ERROR(app->Install(&system));

  ConfigurationRecord config;
  config.classifier_kind = kind;
  config.classifier_depth = depth;
  CoignRuntime runtime(&system, config);
  ClassifierEvaluator evaluator(&runtime.classifier());

  Rng rng(41);
  for (const std::string& id : kProfilingScenarios) {
    Result<Scenario> scenario = app->FindScenario(id);
    if (!scenario.ok()) {
      return scenario.status();
    }
    runtime.BeginScenario();
    COIGN_RETURN_IF_ERROR(scenario->run(system, rng));
    evaluator.AccumulateProfilingRun(runtime.profiling_logger()->comm_matrix());
    system.DestroyAll();
  }

  evaluator.BeginEvaluationPhase();
  Result<Scenario> bigone = app->FindScenario("o_bigone");
  if (!bigone.ok()) {
    return bigone.status();
  }
  runtime.BeginScenario();
  COIGN_RETURN_IF_ERROR(bigone->run(system, rng));
  evaluator.AccumulateEvaluationRun(runtime.profiling_logger()->comm_matrix());
  system.DestroyAll();
  return evaluator.Row();
}

void BenchTrajectory::Add(std::string record,
                          std::vector<std::pair<std::string, double>> fields) {
  records_.push_back(Record{std::move(record), std::move(fields)});
}

std::string BenchTrajectory::ToJson() const {
  // Insertion order and %.17g keep the file byte-deterministic for a given
  // bench run while round-tripping every double exactly.
  std::string out = StrFormat("{\"bench\":\"%s\",\"records\":[", bench_.c_str());
  for (size_t r = 0; r < records_.size(); ++r) {
    const Record& record = records_[r];
    out += StrFormat("%s\n  {\"name\":\"%s\"", r == 0 ? "" : ",",
                     record.name.c_str());
    for (const auto& [key, value] : record.fields) {
      out += StrFormat(",\"%s\":%.17g", key.c_str(), value);
    }
    out += "}";
  }
  out += "\n]}\n";
  return out;
}

Status BenchTrajectory::WriteFile(const std::string& path) const {
  return coign::WriteFile(path, ToJson(), "trajectory");
}

}  // namespace coign
