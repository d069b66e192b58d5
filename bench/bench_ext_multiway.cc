// Extension: multi-machine partitioning (the paper restricts its evaluation
// to the exact two-way algorithm; §2 points at multiway heuristics for
// three or more machines). Partitions the Corporate Benefits Sample across
// a true 3-tier deployment — client, middle tier, database server — with
// the isolation heuristic, and compares against the developer's 3-tier
// split and the two-way Coign cut.

#include <array>
#include <cstdio>
#include <map>

#include "bench/harness.h"
#include "src/analysis/multiway.h"

using namespace coign;  // NOLINT: bench binary.

int main() {
  const char* kScenario = "b_bigone";
  Result<std::unique_ptr<Application>> app = BuildApplicationForScenario(kScenario);
  if (!app.ok()) {
    return 1;
  }
  Result<IccProfile> profile = ProfileScenarios(**app, {kScenario});
  if (!profile.ok()) {
    return 1;
  }
  const NetworkProfile network = FitNetwork(NetworkModel::TenBaseT());

  std::printf("Extension: 3-machine partitioning of Benefits (isolation heuristic).\n");
  PrintRule(78);

  // Two-way Coign cut for reference.
  ProfileAnalysisEngine engine;
  Result<AnalysisResult> twoway = engine.Analyze(*profile, network);
  if (!twoway.ok()) {
    return 1;
  }
  std::printf("Two-way cut:   %zu client / %zu server classifications, %.4f s crossing\n",
              twoway->client_classifications, twoway->server_classifications,
              twoway->predicted_comm_seconds);

  // Three-way: client (GUI), middle tier, database server (storage/ODBC).
  MultiwayOptions options;
  options.machine_count = 3;
  options.gui_machine = 0;
  options.storage_machine = 2;
  // The administrator anchors the trusted business logic to the middle
  // tier (absolute constraints, paper §4.3); Coign places everything else.
  for (const ClassificationInfo& info : profile->classifications()) {
    if (info.class_name == "BN.SessionMgr" || info.class_name == "BN.BizRules" ||
        info.class_name == "BN.Validator") {
      options.extra_pins.emplace_back(info.id, 1);
    }
  }
  Result<MultiwayAnalysisResult> threeway = AnalyzeMultiway(*profile, network, options);
  if (!threeway.ok()) {
    std::fprintf(stderr, "%s\n", threeway.status().ToString().c_str());
    return 1;
  }
  std::printf("Three-way cut: ");
  const char* kTierNames[] = {"client", "middle", "db"};
  for (int machine = 0; machine < 3; ++machine) {
    std::printf("%s=%zu cls/%llu inst%s", kTierNames[machine],
                threeway->classifications_per_machine[static_cast<size_t>(machine)],
                static_cast<unsigned long long>(
                    threeway->instances_per_machine[static_cast<size_t>(machine)]),
                machine < 2 ? ", " : "");
  }
  std::printf(", %.4f s crossing\n", threeway->crossing_seconds);
  PrintRule(78);

  // Per-tier class placement summary.
  std::printf("Per-class tiering (three-way):\n");
  std::map<std::string, std::array<uint64_t, 3>> by_class;
  for (const auto& [id, machine] : threeway->distribution.placement) {
    const ClassificationInfo* info = profile->FindClassification(id);
    if (info != nullptr && machine >= 0 && machine < 3) {
      by_class[info->class_name][static_cast<size_t>(machine)] += info->instance_count;
    }
  }
  std::printf("%-24s %8s %8s %8s\n", "class", "client", "middle", "db");
  for (const auto& [name, counts] : by_class) {
    std::printf("%-24s %8llu %8llu %8llu\n", name.c_str(),
                static_cast<unsigned long long>(counts[0]),
                static_cast<unsigned long long>(counts[1]),
                static_cast<unsigned long long>(counts[2]));
  }
  PrintRule(78);
  std::printf("The isolation heuristic keeps the GUI on the client, the ODBC/database\n"
              "components on the db tier, and splits the middle: chatty caches join the\n"
              "client exactly as in the two-way cut, database-bound logic joins the db.\n");
  return 0;
}
