// Full-pipeline integration tests: instrument → profile → network profile →
// analyze → write distribution → distributed execution, for all three
// applications. Verifies the paper's headline invariants: Coign never
// chooses a worse distribution than the default (Table 4), the distributed
// run completes without violating any non-remotable interface, and the
// prediction model tracks measured execution time (Table 5).

#include <gtest/gtest.h>

#include "src/analysis/engine.h"
#include "src/analysis/prediction.h"
#include "src/apps/suite.h"
#include "src/net/network_profiler.h"
#include "src/profile/log_file.h"
#include "src/runtime/rte.h"
#include "src/sim/measurement.h"

namespace coign {
namespace {

struct PipelineOutput {
  IccProfile profile;
  std::vector<Descriptor> classifier_table;
  AnalysisResult analysis;
  RunMeasurement default_run;
  RunMeasurement coign_run;
  ApplicationImage distributed_image;
};

Result<PipelineOutput> RunPipeline(const std::string& scenario_id,
                                   const NetworkModel& network, uint64_t seed = 11) {
  Result<std::unique_ptr<Application>> app_or = BuildApplicationForScenario(scenario_id);
  if (!app_or.ok()) {
    return app_or.status();
  }
  Application& app = **app_or;
  Rng rng(seed);

  BinaryRewriter rewriter;
  Result<ApplicationImage> instrumented =
      rewriter.Instrument(app.Image(), ConfigurationRecord());
  if (!instrumented.ok()) {
    return instrumented.status();
  }

  // Profile.
  PipelineOutput output;
  {
    ObjectSystem system;
    COIGN_RETURN_IF_ERROR(app.Install(&system));
    Result<std::unique_ptr<CoignRuntime>> runtime =
        CoignRuntime::LoadFromImage(&system, *instrumented);
    if (!runtime.ok()) {
      return runtime.status();
    }
    (*runtime)->BeginScenario();
    Result<Scenario> scenario = app.FindScenario(scenario_id);
    if (!scenario.ok()) {
      return scenario.status();
    }
    COIGN_RETURN_IF_ERROR(scenario->run(system, rng));
    system.DestroyAll();
    output.profile = (*runtime)->profiling_logger()->profile();
    output.classifier_table = (*runtime)->classifier().ExportDescriptors();
  }

  // Network profile + analysis.
  Transport transport(network);
  const NetworkProfile network_profile = ProfileNetwork(transport, rng);
  ProfileAnalysisEngine engine;
  Result<AnalysisResult> analysis = engine.Analyze(output.profile, network_profile);
  if (!analysis.ok()) {
    return analysis.status();
  }
  output.analysis = std::move(*analysis);

  Result<ApplicationImage> distributed = rewriter.WriteDistribution(
      *instrumented, output.analysis.distribution, SerializeProfile(output.profile),
      output.classifier_table);
  if (!distributed.ok()) {
    return distributed.status();
  }
  output.distributed_image = std::move(*distributed);

  MeasurementOptions options;
  options.network = network;

  // Default run.
  {
    ObjectSystem system;
    COIGN_RETURN_IF_ERROR(app.Install(&system));
    const ClassPlacement placement = app.DefaultPlacement(system);
    system.SetPlacementPolicy(placement.AsPolicy());
    Result<Scenario> scenario = app.FindScenario(scenario_id);
    Result<RunMeasurement> run = MeasureRun(
        system,
        [&](ObjectSystem& sys) { return scenario->run(sys, rng); },
        options);
    if (!run.ok()) {
      return run.status();
    }
    output.default_run = *run;
  }

  // Coign run.
  {
    ObjectSystem system;
    COIGN_RETURN_IF_ERROR(app.Install(&system));
    Result<std::unique_ptr<CoignRuntime>> runtime =
        CoignRuntime::LoadFromImage(&system, output.distributed_image);
    if (!runtime.ok()) {
      return runtime.status();
    }
    (*runtime)->BeginScenario();
    Result<Scenario> scenario = app.FindScenario(scenario_id);
    Result<RunMeasurement> run = MeasureRun(
        system,
        [&](ObjectSystem& sys) { return scenario->run(sys, rng); },
        options);
    if (!run.ok()) {
      return run.status();
    }
    output.coign_run = *run;
  }
  return output;
}

class PipelineTest : public ::testing::TestWithParam<const char*> {};

TEST_P(PipelineTest, CoignNeverWorseThanDefault) {
  Result<PipelineOutput> output =
      RunPipeline(GetParam(), NetworkModel::TenBaseT());
  ASSERT_TRUE(output.ok()) << output.status().ToString();
  // Table 4's invariant, with a whisker of tolerance for cut ties.
  EXPECT_LE(output->coign_run.communication_seconds,
            output->default_run.communication_seconds * 1.01 + 1e-9)
      << GetParam();
}

TEST_P(PipelineTest, DistributedModeWroteLightweightConfig) {
  Result<PipelineOutput> output = RunPipeline(GetParam(), NetworkModel::TenBaseT());
  ASSERT_TRUE(output.ok());
  Result<ConfigurationRecord> config = output->distributed_image.ReadConfig();
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->mode, RuntimeMode::kDistributed);
  EXPECT_FALSE(config->profile_text.empty());
  // The embedded profile parses back.
  EXPECT_TRUE(ParseProfile(config->profile_text).ok());
}

TEST_P(PipelineTest, PredictionTracksDeterministicMeasurement) {
  Result<PipelineOutput> output = RunPipeline(GetParam(), NetworkModel::TenBaseT());
  ASSERT_TRUE(output.ok());
  // Predicted communication (from the profile + fitted network) vs the
  // deterministic simulated run of the chosen distribution. The network
  // profiler's fit is the only error source; the paper reports <= 8%.
  const NetworkProfile exact = NetworkProfile::Exact(NetworkModel::TenBaseT());
  const double predicted = PredictCommunicationSeconds(
      output->profile, output->analysis.distribution, exact);
  const double measured = output->coign_run.communication_seconds;
  if (measured > 1e-6) {
    EXPECT_NEAR(predicted, measured, measured * 0.08) << GetParam();
  } else {
    EXPECT_LE(predicted, 1e-4);
  }
}

INSTANTIATE_TEST_SUITE_P(Scenarios, PipelineTest,
                         ::testing::Values("o_oldwp0", "o_oldtb3", "o_oldbth", "o_fig5",
                                           "p_oldmsr", "p_oldcur", "b_vueone", "b_bigone"),
                         [](const auto& info) { return std::string(info.param); });

TEST(PipelineShapeTest, Figure5TwoComponentsOnServer) {
  Result<PipelineOutput> output = RunPipeline("o_fig5", NetworkModel::TenBaseT());
  ASSERT_TRUE(output.ok());
  // Reader + property provider (+ the file-store infrastructure node).
  EXPECT_LE(output->analysis.server_classifications, 4u);
  EXPECT_GE(output->analysis.server_classifications, 2u);
}

TEST(PipelineShapeTest, BigTableMovesToServerAndSavesMost) {
  Result<PipelineOutput> output = RunPipeline("o_oldtb3", NetworkModel::TenBaseT());
  ASSERT_TRUE(output.ok());
  const double savings = 1.0 - output->coign_run.communication_seconds /
                                   output->default_run.communication_seconds;
  EXPECT_GT(savings, 0.9);  // Paper: 99%.
}

TEST(PipelineShapeTest, BenefitsMovesCachesToClient) {
  Result<PipelineOutput> output = RunPipeline("b_bigone", NetworkModel::TenBaseT());
  ASSERT_TRUE(output.ok());
  // Coign moves a significant share of middle-tier components to the
  // client (Figure 6: 135 on the middle tier vs the programmer's 187).
  EXPECT_GT(output->analysis.client_instances, 20u);
  const double savings = 1.0 - output->coign_run.communication_seconds /
                                   output->default_run.communication_seconds;
  EXPECT_GT(savings, 0.10);
  EXPECT_LT(savings, 0.70);  // It does not collapse the tiering entirely.
}

TEST(PipelineShapeTest, PhotoDrawConstrainedByNonRemotableInterfaces) {
  Result<PipelineOutput> output = RunPipeline("p_oldmsr", NetworkModel::TenBaseT());
  ASSERT_TRUE(output.ok());
  // "PhotoDraw contains many significant interfaces (almost 50) that can
  // not be distributed."
  EXPECT_GT(output->analysis.non_remotable_pairs, 30u);
  // Sprite caches stay on the client; only the reader-side handful moves.
  EXPECT_LT(output->analysis.server_instances, 30u);
}

TEST(PipelineShapeTest, ClassificationTableKeepsIdsStableUnderUnprofiledUsage) {
  // Regression: without the classification table in the configuration
  // record, a lightweight runtime facing usage the profile never saw
  // regenerates classification ids in a different order, scattering the
  // distribution (the file store could even land on the client). With the
  // table, profiled contexts keep their ids whatever the run-time order.
  Result<PipelineOutput> output = RunPipeline("o_oldwp7", NetworkModel::TenBaseT());
  ASSERT_TRUE(output.ok());

  Result<std::unique_ptr<Application>> app = BuildApplicationForScenario("o_oldwp7");
  ASSERT_TRUE(app.ok());
  ObjectSystem system;
  ASSERT_TRUE((*app)->Install(&system).ok());
  Result<std::unique_ptr<CoignRuntime>> runtime =
      CoignRuntime::LoadFromImage(&system, output->distributed_image);
  ASSERT_TRUE(runtime.ok());
  (*runtime)->BeginScenario();
  Rng rng(99);
  // Run a *table* scenario under the text-trained distribution: documents
  // the app was never profiled on.
  Result<Scenario> scenario = (*app)->FindScenario("o_oldtb0");
  ASSERT_TRUE(scenario.ok());
  ASSERT_TRUE(scenario->run(system, rng).ok());
  // The file store's classification was profiled (the text scenario also
  // reads files), so its instance must still land on the server.
  bool store_seen = false;
  for (const auto& info : system.LiveInstances()) {
    if (info.class_name == "Octarine.FileStore") {
      store_seen = true;
      EXPECT_EQ(info.machine, kServerMachine);
    }
  }
  EXPECT_TRUE(store_seen);
  system.DestroyAll();
}

TEST(PipelineShapeTest, DistributionAdaptsToTheNetwork) {
  // Paper §4.4: the optimal distribution changes with the environment. On
  // a (slow) ISDN link the cut should move no more — and typically fewer —
  // components than on fast Ethernet, and communication time rises.
  Result<PipelineOutput> ethernet = RunPipeline("o_oldbth", NetworkModel::TenBaseT());
  Result<PipelineOutput> isdn = RunPipeline("o_oldbth", NetworkModel::Isdn());
  ASSERT_TRUE(ethernet.ok());
  ASSERT_TRUE(isdn.ok());
  EXPECT_GT(isdn->coign_run.communication_seconds,
            ethernet->coign_run.communication_seconds);
  EXPECT_LE(isdn->coign_run.communication_seconds,
            isdn->default_run.communication_seconds * 1.01 + 1e-9);
}

}  // namespace
}  // namespace coign
