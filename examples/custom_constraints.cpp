// Programmer location constraints (paper §4.3):
//
// "Although not used in this analysis, the programmer can place two kinds
// of explicit location constraints on components to guarantee data
// integrity and security requirements. Absolute constraints explicitly
// force an instance to a designated machine. Pair-wise constraints force
// the co-location of two component instances."
//
// This example analyzes the Benefits application three ways: unconstrained
// (Coign moves the caching components to the client), with an absolute
// constraint forcing the caches back to the middle tier (a data-integrity
// policy), and with a pair-wise constraint welding the business rules to
// the session manager.
//
// Build and run:  ./build/examples/custom_constraints

#include <cstdio>

#include "src/analysis/engine.h"
#include "src/analysis/report.h"
#include "src/apps/benefits.h"
#include "src/net/network_profiler.h"
#include "src/runtime/rte.h"

using namespace coign;  // NOLINT: example code.

namespace {

template <typename T>
T Check(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "FATAL %s: %s\n", what, result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(*result);
}

// Classifications whose class name starts with a prefix.
std::vector<ClassificationId> ClassificationsWithPrefix(const IccProfile& profile,
                                                        const std::string& prefix) {
  std::vector<ClassificationId> out;
  for (const ClassificationInfo& info : profile.classifications()) {
    if (info.class_name.rfind(prefix, 0) == 0) {
      out.push_back(info.id);
    }
  }
  return out;
}

void Report(const char* title, const IccProfile& profile, const AnalysisResult& result) {
  std::printf("=== %s ===\n", title);
  size_t caches_on_client = 0, caches_total = 0;
  for (ClassificationId id : ClassificationsWithPrefix(profile, "BN.Cache")) {
    const ClassificationInfo* info = profile.FindClassification(id);
    caches_total += info->instance_count;
    if (result.distribution.MachineFor(id) == kClientMachine) {
      caches_on_client += info->instance_count;
    }
  }
  std::printf("caches on client: %zu of %zu; predicted comm %.4f s\n\n", caches_on_client,
              caches_total, result.predicted_comm_seconds);
}

}  // namespace

int main() {
  std::unique_ptr<Application> app = MakeBenefits();

  // Profile b_bigone.
  ObjectSystem system;
  if (!app->Install(&system).ok()) {
    return 1;
  }
  ConfigurationRecord config;
  CoignRuntime runtime(&system, config);
  runtime.BeginScenario();
  Rng rng(5);
  Scenario scenario = Check(app->FindScenario("b_bigone"), "scenario");
  if (!scenario.run(system, rng).ok()) {
    return 1;
  }
  system.DestroyAll();
  const IccProfile& profile = runtime.profiling_logger()->profile();

  const NetworkProfile network = ProfileNetwork(Transport(NetworkModel::TenBaseT()), rng);

  // 1. Unconstrained: Coign pulls the chatty caches to the client.
  {
    ProfileAnalysisEngine engine;
    AnalysisResult result = Check(engine.Analyze(profile, network), "analyze");
    Report("Unconstrained (Coign's choice)", profile, result);
  }

  // 2. Absolute constraints: company policy says cached benefits records
  // may never leave the middle tier.
  {
    AnalysisOptions options;
    for (ClassificationId id : ClassificationsWithPrefix(profile, "BN.Cache")) {
      options.extra_constraints.PinAbsolute(id, kServerMachine);
    }
    ProfileAnalysisEngine engine(options);
    AnalysisResult result = Check(engine.Analyze(profile, network), "analyze pinned");
    Report("Absolute: caches pinned to the middle tier", profile, result);
  }

  // 3. Pair-wise constraints: the rules engine must ride with the session
  // manager (they share a transaction context).
  {
    AnalysisOptions options;
    const auto rules = ClassificationsWithPrefix(profile, "BN.BizRules");
    const auto sessions = ClassificationsWithPrefix(profile, "BN.SessionMgr");
    for (ClassificationId rule : rules) {
      for (ClassificationId session : sessions) {
        options.extra_constraints.Colocate(rule, session);
      }
    }
    ProfileAnalysisEngine engine(options);
    AnalysisResult result = Check(engine.Analyze(profile, network), "analyze colocated");
    Report("Pair-wise: rules colocated with the session manager", profile, result);
  }

  std::printf("Constraints trade communication time for policy: the pinned variant is\n"
              "slower than Coign's choice but never violates the data-integrity rule.\n");
  return 0;
}
