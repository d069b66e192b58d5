// Quickstart: the whole Coign pipeline on one application, end to end.
//
//   1. Take the application binary and instrument it (binary rewriter).
//   2. Run the instrumented binary through a profiling scenario; the Coign
//      runtime summarizes all inter-component communication.
//   3. Profile the network.
//   4. Analyze: ICC graph + constraints + network profile → min cut →
//      distribution, written back into the binary.
//   5. Run the distributed binary and compare communication time against
//      the developer's default distribution.
//
// Build and run:  ./build/examples/quickstart

#include <cstdio>

#include "src/analysis/engine.h"
#include "src/analysis/report.h"
#include "src/apps/octarine.h"
#include "src/net/network_profiler.h"
#include "src/profile/log_file.h"
#include "src/runtime/rte.h"
#include "src/sim/measurement.h"

using namespace coign;  // NOLINT: example code.

namespace {

// Dies loudly on error — fine for an example.
template <typename T>
T Check(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "FATAL %s: %s\n", what, result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(*result);
}

void Check(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "FATAL %s: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

}  // namespace

int main() {
  std::unique_ptr<Application> app = MakeOctarine();
  Rng rng(2026);

  // --- 1. Instrument the binary ------------------------------------------------
  BinaryRewriter rewriter;
  ConfigurationRecord profiling_config;  // Defaults: profiling mode, IFCB.
  ApplicationImage instrumented =
      Check(rewriter.Instrument(app->Image(), profiling_config), "instrument");
  std::printf("Instrumented %s: import[0]=%s\n", instrumented.name.c_str(),
              instrumented.import_table.front().c_str());

  // --- 2. Scenario-based profiling ----------------------------------------------
  ObjectSystem profiling_system;
  Check(app->Install(&profiling_system), "install");
  std::unique_ptr<CoignRuntime> runtime =
      Check(CoignRuntime::LoadFromImage(&profiling_system, instrumented), "load runtime");
  runtime->BeginScenario();
  Scenario scenario = Check(app->FindScenario("o_fig5"), "find scenario");
  Check(scenario.run(profiling_system, rng), "profiling run");
  profiling_system.DestroyAll();
  const IccProfile& profile = runtime->profiling_logger()->profile();
  std::printf("Profiled '%s': %zu classifications, %llu calls, %llu bytes\n",
              scenario.id.c_str(), profile.classifications().size(),
              static_cast<unsigned long long>(profile.total_calls()),
              static_cast<unsigned long long>(profile.total_bytes()));

  // --- 3. Profile the network ------------------------------------------------------
  const NetworkModel network = NetworkModel::TenBaseT();
  Transport transport(network);
  const NetworkProfile network_profile = ProfileNetwork(transport, rng);
  std::printf("Network '%s': %.1f us/message + %.1f ns/byte (r^2 %.4f)\n",
              network_profile.network_name.c_str(),
              network_profile.per_message_seconds * 1e6,
              network_profile.seconds_per_byte * 1e9, network_profile.fit_r_squared);

  // --- 4. Choose a distribution ------------------------------------------------------
  ProfileAnalysisEngine engine;
  AnalysisResult result = Check(engine.Analyze(profile, network_profile), "analyze");
  std::printf("%s\n", DistributionReport(profile, result).c_str());
  // The configuration record carries the distribution, the profile summary,
  // and the classification table (so run-time instances map to the same
  // classification ids the analysis used).
  ApplicationImage distributed = Check(
      rewriter.WriteDistribution(instrumented, result.distribution, SerializeProfile(profile),
                                 runtime->classifier().ExportDescriptors()),
      "write distribution");

  // --- 5. Measure default vs Coign ------------------------------------------------------
  MeasurementOptions options;
  options.network = network;

  // Default: the developer's shipped placement.
  ObjectSystem default_system;
  Check(app->Install(&default_system), "install default");
  const ClassPlacement default_placement = app->DefaultPlacement(default_system);
  default_system.SetPlacementPolicy(default_placement.AsPolicy());
  RunMeasurement default_run =
      Check(MeasureRun(
                default_system, [&](ObjectSystem& sys) { return scenario.run(sys, rng); },
                options),
            "default run");

  // Coign: the lightweight runtime realizes the chosen distribution.
  ObjectSystem coign_system;
  Check(app->Install(&coign_system), "install coign");
  std::unique_ptr<CoignRuntime> light =
      Check(CoignRuntime::LoadFromImage(&coign_system, distributed), "load light runtime");
  light->BeginScenario();
  RunMeasurement coign_run =
      Check(MeasureRun(
                coign_system, [&](ObjectSystem& sys) { return scenario.run(sys, rng); },
                options),
            "coign run");

  std::printf("Communication time: default %.3f s, Coign %.3f s (%.0f%% saved)\n",
              default_run.communication_seconds, coign_run.communication_seconds,
              100.0 * (1.0 - coign_run.communication_seconds /
                                 default_run.communication_seconds));
  std::printf("Remote calls: default %llu, Coign %llu\n",
              static_cast<unsigned long long>(default_run.remote_calls),
              static_cast<unsigned long long>(coign_run.remote_calls));
  return 0;
}
