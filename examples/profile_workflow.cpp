// The end-user workflow of paper §6's second usage model:
//
// "Coign is applied onsite by the application user or system
// administrator. The user enables application profiling through a simple
// GUI ... After 'training' the application to the user's usage patterns —
// by running the application through representative tasks with profiling —
// the GUI triggers post-profiling analysis and writes the distribution
// model into the application."
//
// This example trains the Corporate Benefits Sample on several sessions,
// writing one profile log file per session (as the profiling logger does at
// the end of each execution), merges the log files, analyzes, writes the
// distribution into the binary, and finally runs the distributed binary —
// showing the peer component factories relocating instantiations.
//
// Build and run:  ./build/examples/profile_workflow

#include <cstdio>

#include "src/analysis/engine.h"
#include "src/analysis/report.h"
#include "src/apps/benefits.h"
#include "src/net/network_profiler.h"
#include "src/profile/log_file.h"
#include "src/runtime/rte.h"
#include "src/sim/measurement.h"

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

void Check(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "FATAL %s: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

}  // namespace

int main() {
  std::unique_ptr<Application> app = MakeBenefits();
  BinaryRewriter rewriter;
  ApplicationImage instrumented =
      Check(rewriter.Instrument(app->Image(), ConfigurationRecord()), "instrument");

  // --- Training: three user sessions, one profile log file each --------------
  const char* kSessions[] = {"b_vueone", "b_addone", "b_bigone"};
  std::vector<std::string> log_paths;
  Rng rng(2);
  for (const char* session : kSessions) {
    ObjectSystem system;
    Check(app->Install(&system), "install");
    std::unique_ptr<CoignRuntime> runtime =
        Check(CoignRuntime::LoadFromImage(&system, instrumented), "load runtime");
    runtime->BeginScenario();
    Scenario scenario = Check(app->FindScenario(session), "scenario");
    Check(scenario.run(system, rng), "session run");
    system.DestroyAll();

    const std::string path = std::string("/tmp/coign_session_") + session + ".log";
    Check(WriteProfileFile(runtime->profiling_logger()->profile(), path), "write log");
    log_paths.push_back(path);
    std::printf("Session %-10s -> %s (%llu calls summarized)\n", session, path.c_str(),
                static_cast<unsigned long long>(
                    runtime->profiling_logger()->profile().total_calls()));
  }

  // --- Post-profiling analysis: merge the logs, cut the graph ----------------
  IccProfile merged = Check(MergeProfileFiles(log_paths), "merge logs");
  std::printf("\nMerged %zu log files: %llu calls, %llu bytes of ICC.\n", log_paths.size(),
              static_cast<unsigned long long>(merged.total_calls()),
              static_cast<unsigned long long>(merged.total_bytes()));

  const NetworkModel network = NetworkModel::TenBaseT();
  ProfileAnalysisEngine engine;
  AnalysisResult result =
      Check(engine.Analyze(merged, ProfileNetwork(Transport(network), rng)), "analyze");
  std::printf("\n%s\n", DistributionReport(merged, result).c_str());

  // --- Write the distribution into the binary --------------------------------
  ApplicationImage distributed =
      Check(rewriter.WriteDistribution(instrumented, result.distribution,
                                       SerializeProfile(merged)),
            "write distribution");
  std::printf("Distribution written into %s (%zu placements).\n", distributed.name.c_str(),
              result.distribution.size());

  // --- Run the distributed application ----------------------------------------
  ObjectSystem system;
  Check(app->Install(&system), "install distributed");
  std::unique_ptr<CoignRuntime> light =
      Check(CoignRuntime::LoadFromImage(&system, distributed), "load light runtime");
  light->BeginScenario();
  Scenario scenario = Check(app->FindScenario("b_bigone"), "scenario");
  MeasurementOptions options;
  options.network = network;
  RunMeasurement run = Check(
      MeasureRun(system, [&](ObjectSystem& sys) { return scenario.run(sys, rng); }, options),
      "distributed run");

  std::printf("\nDistributed b_bigone: %.3f s communication, %llu of %llu calls remote.\n",
              run.communication_seconds,
              static_cast<unsigned long long>(run.remote_calls),
              static_cast<unsigned long long>(run.total_calls));
  std::printf("Component factories: client fulfilled %llu locally, forwarded %llu; "
              "server fulfilled %llu locally, %llu for its peer.\n",
              static_cast<unsigned long long>(light->client_factory().local_instantiations()),
              static_cast<unsigned long long>(
                  light->client_factory().forwarded_instantiations()),
              static_cast<unsigned long long>(light->server_factory().local_instantiations()),
              static_cast<unsigned long long>(light->server_factory().fulfilled_for_peer()));
  for (const std::string& path : log_paths) {
    std::remove(path.c_str());
  }
  return 0;
}
