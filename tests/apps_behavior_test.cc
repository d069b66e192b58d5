// Behavioural tests of the synthetic applications: the structural
// signatures the evaluation depends on (negotiation only in mixed
// documents, non-remotable GUI confinement, deterministic profiling,
// undo entries under varying call depths, multi-machine execution).

#include <set>

#include <gtest/gtest.h>

#include "src/analysis/multiway.h"
#include "src/apps/benefits.h"
#include "src/apps/octarine.h"
#include "src/apps/photodraw.h"
#include "src/apps/suite.h"
#include "src/net/network_profiler.h"
#include "src/runtime/rte.h"
#include "src/sim/measurement.h"

namespace coign {
namespace {

// Runs a scenario under profiling and returns the runtime's event trace.
struct TracedRun {
  IccProfile profile;
  std::vector<ProfileEvent> events;
};

TracedRun Trace(Application& app, const std::string& scenario_id) {
  ObjectSystem system;
  EXPECT_TRUE(app.Install(&system).ok());
  ConfigurationRecord config;
  CoignRuntime runtime(&system, config);
  EventLogger events;
  runtime.AddLogger(&events);
  runtime.BeginScenario();
  Rng rng(3);
  Result<Scenario> scenario = app.FindScenario(scenario_id);
  EXPECT_TRUE(scenario.ok());
  EXPECT_TRUE(scenario->run(system, rng).ok());
  system.DestroyAll();
  TracedRun out;
  out.profile = runtime.profiling_logger()->profile();
  out.events = events.events();
  return out;
}

uint64_t CallsOnInterface(const TracedRun& run, const ObjectSystem& names,
                          const std::string& interface_name) {
  const InterfaceDesc* iface = names.interfaces().LookupByName(interface_name);
  EXPECT_NE(iface, nullptr);
  uint64_t calls = 0;
  for (const ProfileEvent& event : run.events) {
    if (event.kind == EventKind::kInterfaceCall && event.iid == iface->iid) {
      ++calls;
    }
  }
  return calls;
}

TEST(OctarineBehaviorTest, NegotiationOnlyInMixedDocuments) {
  std::unique_ptr<Application> app = MakeOctarine();
  ObjectSystem names;
  ASSERT_TRUE(app->Install(&names).ok());

  const TracedRun text_run = Trace(*app, "o_oldwp0");
  const TracedRun table_run = Trace(*app, "o_oldtb0");
  const TracedRun mixed_run = Trace(*app, "o_oldbth");

  EXPECT_EQ(CallsOnInterface(text_run, names, "Octarine.INegotiate"), 0u);
  EXPECT_EQ(CallsOnInterface(table_run, names, "Octarine.INegotiate"), 0u);
  // "Complex negotiations for page placement between the table components
  // and the text components" — many small calls.
  EXPECT_GT(CallsOnInterface(mixed_run, names, "Octarine.INegotiate"), 100u);
}

TEST(OctarineBehaviorTest, TableDocumentsScanWithFileAmplification) {
  std::unique_ptr<Application> app = MakeOctarine();
  ObjectSystem names;
  ASSERT_TRUE(app->Install(&names).ok());
  const uint64_t small = CallsOnInterface(Trace(*app, "o_oldtb0"), names,
                                          "Octarine.IFileStore");
  const uint64_t large = CallsOnInterface(Trace(*app, "o_oldtb3"), names,
                                          "Octarine.IFileStore");
  // The 150-page scan reads ~30x the blocks of the 5-page scan.
  EXPECT_GT(large, small * 20);
}

TEST(OctarineBehaviorTest, UndoEntriesCreatedUnderDifferentDepths) {
  std::unique_ptr<Application> app = MakeOctarine();
  const TracedRun mixed_run = Trace(*app, "o_oldbth");
  // Undo entries created from app-level, engine-level, model-level and
  // row-level stacks get distinct IFCB classifications.
  std::set<ClassificationId> entry_classifications;
  for (const ProfileEvent& event : mixed_run.events) {
    if (event.kind != EventKind::kComponentInstantiation) {
      continue;
    }
    if (event.subject_class == Guid::FromName("clsid:Octarine.UndoEntry")) {
      entry_classifications.insert(event.subject_classification);
    }
  }
  EXPECT_GE(entry_classifications.size(), 3u);
}

TEST(PhotoDrawBehaviorTest, SpriteHierarchyBuiltOnce) {
  std::unique_ptr<Application> app = MakePhotoDraw();
  ObjectSystem system;
  ASSERT_TRUE(app->Install(&system).ok());
  Rng rng(3);
  Result<Scenario> scenario = app->FindScenario("p_oldmsr");
  ASSERT_TRUE(scenario.ok());
  ASSERT_TRUE(scenario->run(system, rng).ok());
  size_t sprites = 0;
  for (const auto& info : system.LiveInstances()) {
    if (info.class_name.rfind("PD.SpriteCache", 0) == 0) {
      ++sprites;
    }
  }
  // 1 + 4 + 16 + 64.
  EXPECT_EQ(sprites, 85u);
}

TEST(PhotoDrawBehaviorTest, NonRemotableSpriteInterfacesNeverCross) {
  // Run the Coign-chosen distribution and verify every ISpriteMem call is
  // machine-local (the ObjectSystem would refuse otherwise, but assert the
  // structural claim explicitly from the default run's placement).
  std::unique_ptr<Application> app = MakePhotoDraw();
  ObjectSystem names;
  ASSERT_TRUE(app->Install(&names).ok());
  const TracedRun run = Trace(*app, "p_oldmsr");
  // Every call on the non-remotable interfaces happened (nothing failed),
  // and the profile marks them as must-colocate pairs.
  size_t non_remotable_pairs = 0;
  for (const auto& [key, summary] : run.profile.calls()) {
    if (summary.non_remotable_calls > 0) {
      ++non_remotable_pairs;
    }
  }
  EXPECT_GT(non_remotable_pairs, 100u);  // Sprite mesh + UI sinks.
}

class DeterminismTest : public ::testing::TestWithParam<const char*> {};

TEST_P(DeterminismTest, ProfilesAreBitStableAcrossRuns) {
  Result<std::unique_ptr<Application>> app1 = BuildApplicationForScenario(GetParam());
  Result<std::unique_ptr<Application>> app2 = BuildApplicationForScenario(GetParam());
  ASSERT_TRUE(app1.ok() && app2.ok());
  const TracedRun a = Trace(**app1, GetParam());
  const TracedRun b = Trace(**app2, GetParam());
  EXPECT_EQ(a.profile.total_calls(), b.profile.total_calls());
  EXPECT_EQ(a.profile.total_bytes(), b.profile.total_bytes());
  EXPECT_EQ(a.profile.classifications().size(), b.profile.classifications().size());
  EXPECT_DOUBLE_EQ(a.profile.total_compute_seconds(), b.profile.total_compute_seconds());
  EXPECT_EQ(a.events.size(), b.events.size());
}

INSTANTIATE_TEST_SUITE_P(Scenarios, DeterminismTest,
                         ::testing::Values("o_oldbth", "o_bigone", "p_oldmsr", "b_bigone"),
                         [](const auto& info) { return std::string(info.param); });

TEST(MultiMachineExecutionTest, ThreeTierDistributionRunsAndMatchesPrediction) {
  std::unique_ptr<Application> app = MakeBenefits();

  // Profile.
  ObjectSystem profiling_system;
  ASSERT_TRUE(app->Install(&profiling_system).ok());
  ConfigurationRecord config;
  CoignRuntime profiler_runtime(&profiling_system, config);
  profiler_runtime.BeginScenario();
  Rng rng(3);
  Result<Scenario> scenario = app->FindScenario("b_vueone");
  ASSERT_TRUE(scenario.ok());
  ASSERT_TRUE(scenario->run(profiling_system, rng).ok());
  profiling_system.DestroyAll();
  const IccProfile profile = profiler_runtime.profiling_logger()->profile();
  const std::vector<Descriptor> table = profiler_runtime.classifier().ExportDescriptors();

  // Three-way analysis with the session manager anchored to the middle.
  MultiwayOptions options;
  options.machine_count = 3;
  options.storage_machine = 2;
  for (const ClassificationInfo& info : profile.classifications()) {
    if (info.class_name == "BN.SessionMgr") {
      options.extra_pins.emplace_back(info.id, 1);
    }
  }
  const NetworkProfile exact = NetworkProfile::Exact(NetworkModel::TenBaseT());
  Result<MultiwayAnalysisResult> analysis = AnalyzeMultiway(profile, exact, options);
  ASSERT_TRUE(analysis.ok()) << analysis.status().ToString();

  // Execute under the 3-machine distribution.
  ObjectSystem system;
  ASSERT_TRUE(app->Install(&system).ok());
  ConfigurationRecord light;
  light.mode = RuntimeMode::kDistributed;
  light.distribution = analysis->distribution;
  light.classifier_table = table;
  CoignRuntime runtime(&system, light);
  runtime.BeginScenario();
  MeasurementOptions measurement;
  measurement.network = NetworkModel::TenBaseT();
  Result<RunMeasurement> run = MeasureRun(
      system, [&](ObjectSystem& sys) { return scenario->run(sys, rng); }, measurement);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_GT(run->remote_calls, 0u);
  // Deterministic accounting matches the multiway prediction.
  EXPECT_NEAR(run->communication_seconds, analysis->crossing_seconds,
              analysis->crossing_seconds * 0.02);
}

}  // namespace
}  // namespace coign
