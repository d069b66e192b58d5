// Table 1: the profiling scenario suite. Lists every scenario with its
// description plus the live component population and call volume it
// produces — the inputs to every other experiment.

#include <cstdio>

#include "bench/harness.h"

using namespace coign;  // NOLINT: bench binary.

int main() {
  std::printf("Table 1. Profiling Scenarios.\n");
  PrintRule(86);
  std::printf("%-10s %-42s %10s %10s %10s\n", "Scenario", "Description", "Components",
              "Calls", "ICC bytes");
  PrintRule(86);

  for (const std::string& id : Table1ScenarioIds()) {
    Result<std::unique_ptr<Application>> app = BuildApplicationForScenario(id);
    if (!app.ok()) {
      std::fprintf(stderr, "%s: %s\n", id.c_str(), app.status().ToString().c_str());
      return 1;
    }
    Result<Scenario> scenario = (*app)->FindScenario(id);
    if (!scenario.ok()) {
      std::fprintf(stderr, "%s: %s\n", id.c_str(), scenario.status().ToString().c_str());
      return 1;
    }
    Result<IccProfile> profile = ProfileScenarios(**app, {id});
    if (!profile.ok()) {
      std::fprintf(stderr, "%s: %s\n", id.c_str(), profile.status().ToString().c_str());
      return 1;
    }
    uint64_t components = 0;
    for (const ClassificationInfo& info : profile->classifications()) {
      if (!(*app)->IsInfrastructureClass(info.class_name)) {
        components += info.instance_count;
      }
    }
    std::printf("%-10s %-42s %10llu %10llu %10llu\n", id.c_str(),
                scenario->description.c_str(), static_cast<unsigned long long>(components),
                static_cast<unsigned long long>(profile->total_calls()),
                static_cast<unsigned long long>(profile->total_bytes()));
  }
  PrintRule(86);
  return 0;
}
