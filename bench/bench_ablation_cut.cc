// Ablation: the exact two-way cut algorithms agree on every scenario graph
// (the paper's lift-to-front vs the production highest-label push-relabel:
// identical cut value in integer units and identical placement), and what
// the API-derived location constraints contribute — disabling static
// analysis lets the cut collapse the application onto one machine
// (communication zero, usefulness zero: GUI on the server would not work).
// Exits nonzero if the two algorithms disagree on any scenario.

#include <cstdio>

#include "bench/harness.h"

using namespace coign;  // NOLINT: bench binary.

int main() {
  const NetworkProfile fitted = FitNetwork(NetworkModel::TenBaseT());

  std::printf("Ablation: cut algorithm agreement and constraint contribution.\n");
  PrintRule(92);
  std::printf("%-10s %16s %16s %10s | %22s\n", "Scenario", "RTF cut (s)", "PR cut (s)",
              "Agree", "No-API-pins cut (s)");
  PrintRule(92);

  int disagreements = 0;
  for (const std::string& id : Table1ScenarioIds()) {
    Result<std::unique_ptr<Application>> app = BuildApplicationForScenario(id);
    if (!app.ok()) {
      return 1;
    }
    Result<IccProfile> profile = ProfileScenarios(**app, {id});
    if (!profile.ok()) {
      return 1;
    }

    AnalysisOptions rtf_options;
    rtf_options.algorithm = CutAlgorithm::kRelabelToFront;
    Result<AnalysisResult> rtf = ProfileAnalysisEngine(rtf_options).Analyze(*profile, fitted);

    Result<AnalysisResult> pr = ProfileAnalysisEngine().Analyze(*profile, fitted);

    AnalysisOptions unpinned_options;
    unpinned_options.derive_api_constraints = false;
    Result<AnalysisResult> unpinned =
        ProfileAnalysisEngine(unpinned_options).Analyze(*profile, fitted);

    if (!rtf.ok() || !pr.ok() || !unpinned.ok()) {
      std::fprintf(stderr, "%s: analysis failed\n", id.c_str());
      return 1;
    }
    const bool agree = rtf->cut_value_units == pr->cut_value_units &&
                       rtf->distribution.placement == pr->distribution.placement;
    disagreements += agree ? 0 : 1;
    std::printf("%-10s %16.6f %16.6f %10s | %22.6f\n", id.c_str(),
                rtf->predicted_comm_seconds, pr->predicted_comm_seconds,
                agree ? "yes" : "NO", unpinned->predicted_comm_seconds);
  }
  PrintRule(92);
  std::printf("Without API pins the cut degenerates to ~0 (everything colocates), which\n"
              "is why static analysis of GUI/storage API usage is load-bearing.\n");
  if (disagreements > 0) {
    std::fprintf(stderr, "%d scenarios where RTF and PR disagree\n", disagreements);
    return 1;
  }
  return 0;
}
