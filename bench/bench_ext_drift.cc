// Extension: usage-drift detection (paper §6). Trains Octarine on
// text-document scenarios, distributes it accordingly, then runs the
// lightweight runtime (with cheap message counting) under three usage
// patterns: the trained usage, a drifted usage (tables instead of text),
// and a mixed usage. The drift detector flags when re-profiling would pay.

#include <cstdio>

#include "bench/harness.h"
#include "src/apps/octarine.h"
#include "src/runtime/drift.h"

using namespace coign;  // NOLINT: bench binary.

namespace {

Result<DriftReport> ObserveUsage(Application& app, const IccProfile& trained,
                                 const Distribution& distribution,
                                 const std::vector<Descriptor>& classifier_table,
                                 const std::vector<std::string>& usage) {
  ObjectSystem system;
  COIGN_RETURN_IF_ERROR(app.Install(&system));
  ConfigurationRecord config;
  config.mode = RuntimeMode::kDistributed;
  config.distribution = distribution;
  config.classifier_table = classifier_table;
  CoignRuntime runtime(&system, config);
  runtime.EnableMessageCounting();
  Rng rng(19);
  for (const std::string& id : usage) {
    Result<Scenario> scenario = app.FindScenario(id);
    if (!scenario.ok()) {
      return scenario.status();
    }
    runtime.BeginScenario();
    COIGN_RETURN_IF_ERROR(scenario->run(system, rng));
    system.DestroyAll();
  }
  return DetectDrift(CountsFromProfile(trained), runtime.message_counts());
}

}  // namespace

int main() {
  std::unique_ptr<Application> app = MakeOctarine();

  // Train on text documents only; keep the classification table — the
  // lightweight runtime needs it to map run-time instances to profiled ids.
  std::vector<Descriptor> classifier_table;
  Result<IccProfile> trained = ProfileScenarios(
      *app, {"o_newdoc", "o_oldwp0", "o_oldwp3", "o_oldwp7"},
      ClassifierKind::kInternalFunctionCalledBy, kCompleteStackWalk, 17, &classifier_table);
  if (!trained.ok()) {
    return 1;
  }
  ProfileAnalysisEngine engine;
  Result<AnalysisResult> analysis =
      engine.Analyze(*trained, FitNetwork(NetworkModel::TenBaseT()));
  if (!analysis.ok()) {
    return 1;
  }

  std::printf("Extension: usage-drift detection on Octarine (trained on text docs).\n");
  PrintRule(88);
  std::printf("%-34s %12s %12s %12s %10s\n", "Runtime usage", "Messages", "Similarity",
              "Unprofiled", "Reprofile?");
  PrintRule(88);

  struct UsageCase {
    const char* label;
    std::vector<std::string> scenarios;
  };
  const UsageCase kCases[] = {
      {"text documents (as trained)", {"o_oldwp0", "o_oldwp3", "o_oldwp7"}},
      {"table documents (drifted)", {"o_oldtb0", "o_oldtb3"}},
      {"mixed documents (drifted)", {"o_oldbth"}},
      {"music documents (drifted)", {"o_newmus"}},
  };
  for (const UsageCase& usage_case : kCases) {
    Result<DriftReport> report = ObserveUsage(*app, *trained, analysis->distribution,
                                              classifier_table, usage_case.scenarios);
    if (!report.ok()) {
      std::fprintf(stderr, "%s: %s\n", usage_case.label,
                   report.status().ToString().c_str());
      return 1;
    }
    std::printf("%-34s %12llu %12.3f %11.1f%% %10s\n", usage_case.label,
                static_cast<unsigned long long>(report->observed_messages),
                report->similarity, report->unprofiled_fraction * 100.0,
                report->reprofile_recommended ? "YES" : "no");
  }
  PrintRule(88);
  std::printf("The trained usage stays above the similarity threshold; drifted usages\n"
              "are flagged, which would silently re-enable profiling (paper §6).\n");
  return 0;
}
