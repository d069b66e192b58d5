// Adaptive repartitioning: the paper's §4.4 argument, executable.
//
// "A programmer's best-effort manual distribution is static; it cannot
// readily adapt to changes in network performance ... In the limit, Coign
// can create a new distributed version of the application for each
// execution."
//
// This example profiles Octarine's mixed-document workload once, then
// re-analyzes and re-measures for five different networks, printing how
// the chosen distribution and its communication time shift with the
// bandwidth/latency balance — including how badly a distribution chosen
// for one network performs when carried to another.
//
// Build and run:  ./build/examples/adaptive_network

#include <cstdio>

#include "src/analysis/engine.h"
#include "src/apps/octarine.h"
#include "src/net/network_profiler.h"
#include "src/runtime/rte.h"
#include "src/sim/measurement.h"

using namespace coign;  // NOLINT: example code.

namespace {

constexpr const char* kScenario = "o_oldbth";

template <typename T>
T Check(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "FATAL %s: %s\n", what, result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(*result);
}

IccProfile ProfileOnce(Application& app) {
  ObjectSystem system;
  if (!app.Install(&system).ok()) {
    std::exit(1);
  }
  ConfigurationRecord config;
  CoignRuntime runtime(&system, config);
  runtime.BeginScenario();
  Rng rng(7);
  Scenario scenario = Check(app.FindScenario(kScenario), "scenario");
  if (!scenario.run(system, rng).ok()) {
    std::exit(1);
  }
  system.DestroyAll();
  return runtime.profiling_logger()->profile();
}

double MeasureUnder(Application& app, const Distribution& distribution,
                    const NetworkModel& network) {
  ObjectSystem system;
  if (!app.Install(&system).ok()) {
    std::exit(1);
  }
  ConfigurationRecord config;
  config.mode = RuntimeMode::kDistributed;
  config.distribution = distribution;
  CoignRuntime runtime(&system, config);
  runtime.BeginScenario();
  Scenario scenario = Check(app.FindScenario(kScenario), "scenario");
  MeasurementOptions options;
  options.network = network;
  Rng rng(7);
  RunMeasurement run = Check(
      MeasureRun(system, [&](ObjectSystem& sys) { return scenario.run(sys, rng); }, options),
      "measure");
  return run.communication_seconds;
}

}  // namespace

int main() {
  std::unique_ptr<Application> app = MakeOctarine();
  const IccProfile profile = ProfileOnce(*app);
  std::printf("Profiled %s once: %zu classifications, %llu calls.\n\n", kScenario,
              profile.classifications().size(),
              static_cast<unsigned long long>(profile.total_calls()));

  const NetworkModel networks[] = {NetworkModel::Isdn(), NetworkModel::TenBaseT(),
                                   NetworkModel::HundredBaseT(), NetworkModel::San()};

  // One distribution per network (re-cut from the same profile)...
  std::vector<Distribution> tailored;
  for (const NetworkModel& network : networks) {
    Rng rng(3);
    ProfileAnalysisEngine engine;
    AnalysisResult result =
        Check(engine.Analyze(profile, ProfileNetwork(Transport(network), rng)), "analyze");
    tailored.push_back(result.distribution);
    std::printf("%-10s -> %zu classifications on the server, predicted comm %.4f s\n",
                network.name.c_str(), result.distribution.CountOn(kServerMachine),
                result.predicted_comm_seconds);
  }

  // ...then the cross-grid: each tailored distribution measured on every
  // network. The diagonal should win each column — a static distribution
  // carried to the wrong network pays for it.
  std::printf("\nCommunication seconds: distributions (rows) x networks (columns)\n");
  std::printf("%-16s", "tailored-for\\on");
  for (const NetworkModel& network : networks) {
    std::printf(" %11s", network.name.c_str());
  }
  std::printf("\n");
  for (size_t d = 0; d < tailored.size(); ++d) {
    std::printf("%-16s", networks[d].name.c_str());
    for (const NetworkModel& network : networks) {
      std::printf(" %11.4f", MeasureUnder(*app, tailored[d], network));
    }
    std::printf("\n");
  }
  std::printf("\nEach column's minimum sits on the diagonal (or ties it): re-partitioning\n"
              "per environment is never worse and often much better.\n");
  return 0;
}
