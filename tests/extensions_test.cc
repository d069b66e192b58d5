// Tests for the future-work extensions: classifier-table persistence in
// the configuration record, usage-drift detection, and multi-machine
// partitioning.

#include <gtest/gtest.h>

#include "src/analysis/multiway.h"
#include "src/analysis/prediction.h"
#include "src/classify/classifiers.h"
#include "src/com/class_registry.h"
#include "src/runtime/config_record.h"
#include "src/runtime/drift.h"

namespace coign {
namespace {

ClassDesc MakeClass(const std::string& name) {
  ClassDesc cls;
  cls.clsid = Guid::FromName("clsid:" + name);
  cls.name = name;
  return cls;
}

CallFrame Frame(InstanceId instance, const char* cls, MethodIndex method) {
  CallFrame frame;
  frame.instance = instance;
  frame.clsid = Guid::FromName(std::string("clsid:") + cls);
  frame.iid = Guid::FromName("iid:I");
  frame.method = method;
  return frame;
}

// --- Classifier table export/import ----------------------------------------

TEST(ClassifierTableTest, ImportReproducesIds) {
  std::unique_ptr<InstanceClassifier> trained =
      MakeClassifier(ClassifierKind::kInternalFunctionCalledBy);
  const ClassDesc widget = MakeClass("Widget");
  const ClassDesc reader = MakeClass("Reader");
  const ClassificationId widget_id = trained->Classify(widget, {}, 1);
  const ClassificationId reader_id =
      trained->Classify(reader, {Frame(1, "Widget", 2)}, 2);
  ASSERT_NE(widget_id, reader_id);

  // Fresh classifier, restored table, *reversed* discovery order.
  std::unique_ptr<InstanceClassifier> restored =
      MakeClassifier(ClassifierKind::kInternalFunctionCalledBy);
  ASSERT_TRUE(restored->ImportDescriptors(trained->ExportDescriptors()).ok());
  EXPECT_EQ(restored->classification_count(), 2u);
  // Note: the reader context references widget's classification id, which
  // the import preserved.
  const ClassificationId widget_restored = restored->Classify(widget, {}, 10);
  const ClassificationId reader_restored =
      restored->Classify(reader, {Frame(10, "Widget", 2)}, 11);
  EXPECT_EQ(widget_restored, widget_id);
  EXPECT_EQ(reader_restored, reader_id);
  // Unknown contexts still get fresh ids beyond the table.
  const ClassificationId novel = restored->Classify(reader, {Frame(10, "Widget", 3)}, 12);
  EXPECT_GE(novel, 2u);
}

TEST(ClassifierTableTest, ImportRefusedAfterClassification) {
  std::unique_ptr<InstanceClassifier> classifier =
      MakeClassifier(ClassifierKind::kStaticType);
  classifier->Classify(MakeClass("A"), {}, 1);
  EXPECT_EQ(classifier->ImportDescriptors({}).code(), StatusCode::kFailedPrecondition);
}

TEST(ClassifierTableTest, ConfigRecordRoundTripsTable) {
  std::unique_ptr<InstanceClassifier> trained =
      MakeClassifier(ClassifierKind::kInternalFunctionCalledBy);
  trained->Classify(MakeClass("A"), {}, 1);
  trained->Classify(MakeClass("B"), {Frame(1, "A", 0)}, 2);

  ConfigurationRecord record;
  record.mode = RuntimeMode::kDistributed;
  record.classifier_table = trained->ExportDescriptors();
  Result<ConfigurationRecord> parsed = ConfigurationRecord::Parse(record.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->classifier_table.size(), 2u);
  EXPECT_EQ(parsed->classifier_table[0], record.classifier_table[0]);
  EXPECT_EQ(parsed->classifier_table[1], record.classifier_table[1]);
}

// --- Drift detection ----------------------------------------------------------

IccProfile TrainedProfile() {
  IccProfileBuilder profile;
  CallKey gui_worker;
  gui_worker.src = 0;
  gui_worker.dst = 1;
  gui_worker.iid = Guid::FromName("iid:I");
  CallKey worker_store = gui_worker;
  worker_store.src = 1;
  worker_store.dst = 2;
  for (int i = 0; i < 500; ++i) {
    profile.RecordCall(gui_worker, 100, 50, true);
  }
  for (int i = 0; i < 100; ++i) {
    profile.RecordCall(worker_store, 1000, 50, true);
  }
  return profile.Build();
}

TEST(DriftTest, MessageCountsAreDirectionless) {
  MessageCounts counts;
  counts.Record(1, 2);
  counts.Record(2, 1, 3);
  EXPECT_EQ(counts.CountOf(1, 2), 4u);
  EXPECT_EQ(counts.CountOf(2, 1), 4u);
  EXPECT_EQ(counts.total_messages(), 4u);
  counts.Clear();
  EXPECT_EQ(counts.total_messages(), 0u);
}

TEST(DriftTest, MatchingUsageNotFlagged) {
  const IccProfile profile = TrainedProfile();
  MessageCounts observed;
  observed.Record(0, 1, 250);  // Same mixture, half the volume.
  observed.Record(1, 2, 50);
  const DriftReport report = DetectDrift(CountsFromProfile(profile), observed);
  EXPECT_GT(report.similarity, 0.95);
  EXPECT_EQ(report.unprofiled_fraction, 0.0);
  EXPECT_FALSE(report.reprofile_recommended);
}

TEST(DriftTest, NewPairsFlagged) {
  const IccProfile profile = TrainedProfile();
  MessageCounts observed;
  observed.Record(0, 1, 200);
  observed.Record(7, 8, 100);  // A pair profiling never saw.
  const DriftReport report = DetectDrift(CountsFromProfile(profile), observed);
  EXPECT_GT(report.unprofiled_fraction, 0.3);
  EXPECT_TRUE(report.reprofile_recommended);
}

TEST(DriftTest, ShiftedMixtureFlagged) {
  const IccProfile profile = TrainedProfile();
  MessageCounts observed;
  observed.Record(0, 1, 5);     // The formerly dominant pair is quiet...
  observed.Record(1, 2, 2000);  // ...and the bulk pair explodes.
  const DriftReport report = DetectDrift(CountsFromProfile(profile), observed);
  EXPECT_LT(report.similarity, 0.85);
  EXPECT_TRUE(report.reprofile_recommended);
}

TEST(DriftTest, TooFewMessagesGiveNoVerdict) {
  const IccProfile profile = TrainedProfile();
  MessageCounts observed;
  observed.Record(7, 8, 10);  // Brand new pair, but only 10 messages.
  const DriftReport report = DetectDrift(CountsFromProfile(profile), observed);
  EXPECT_FALSE(report.reprofile_recommended);
}

TEST(DriftTest, CountsFromProfileUsesCallCounts) {
  const IccProfile profile = TrainedProfile();
  const MessageCounts counts = CountsFromProfile(profile);
  EXPECT_EQ(counts.CountOf(0, 1), 500u);
  EXPECT_EQ(counts.CountOf(1, 2), 100u);
}

TEST(DriftTest, ReportToStringReadable) {
  DriftReport report;
  report.similarity = 0.5;
  report.reprofile_recommended = true;
  EXPECT_NE(report.ToString().find("reprofile=yes"), std::string::npos);
}

// --- Multiway analysis ----------------------------------------------------------

IccProfile ThreeTierProfile() {
  IccProfileBuilder profile;
  auto add = [&profile](ClassificationId id, const std::string& name, uint32_t api) {
    ClassificationInfo info;
    info.id = id;
    info.clsid = Guid::FromName("clsid:" + name);
    info.class_name = name;
    info.api_usage = api;
    info.instance_count = 1;
    profile.RecordClassification(info);
  };
  add(0, "Gui", kApiGui);
  add(1, "Cache", kApiNone);
  add(2, "Logic", kApiNone);
  add(3, "Db", kApiOdbc);
  auto call = [&profile](ClassificationId src, ClassificationId dst, uint64_t bytes,
                         int times) {
    CallKey key;
    key.src = src;
    key.dst = dst;
    key.iid = Guid::FromName("iid:I");
    for (int i = 0; i < times; ++i) {
      profile.RecordCall(key, bytes, 64, true);
    }
  };
  call(0, 1, 200, 100);  // GUI <-> cache: chatty.
  call(1, 2, 500, 5);    // Cache <-> logic: light.
  call(2, 3, 4000, 50);  // Logic <-> db: heavy.
  return profile.Build();
}

NetworkProfile FastNet() {
  NetworkProfile network;
  network.per_message_seconds = 1e-3;
  network.seconds_per_byte = 1e-6;
  return network;
}

TEST(MultiwayAnalysisTest, ThreeTierSplitsByTraffic) {
  MultiwayOptions options;
  options.machine_count = 3;
  options.gui_machine = 0;
  options.storage_machine = 2;
  options.extra_pins.emplace_back(2, 1);  // Logic anchored to the middle.
  Result<MultiwayAnalysisResult> result =
      AnalyzeMultiway(ThreeTierProfile(), FastNet(), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->distribution.MachineFor(0), 0);  // GUI pinned client.
  EXPECT_EQ(result->distribution.MachineFor(2), 1);  // Logic pinned middle.
  EXPECT_EQ(result->distribution.MachineFor(3), 2);  // Db pinned storage.
  // The cache follows its chatty GUI edge to the client.
  EXPECT_EQ(result->distribution.MachineFor(1), 0);
  EXPECT_GT(result->crossing_seconds, 0.0);
  EXPECT_EQ(result->classifications_per_machine.size(), 3u);
  EXPECT_EQ(result->instances_per_machine[0], 2u);
}

TEST(MultiwayAnalysisTest, TwoMachinesDegenerateToTwoWayShape) {
  MultiwayOptions options;
  options.machine_count = 2;
  options.gui_machine = 0;
  options.storage_machine = 1;
  Result<MultiwayAnalysisResult> result =
      AnalyzeMultiway(ThreeTierProfile(), FastNet(), options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->distribution.MachineFor(0), 0);
  EXPECT_EQ(result->distribution.MachineFor(3), 1);
}

TEST(MultiwayAnalysisTest, RejectsBadOptions) {
  MultiwayOptions one_machine;
  one_machine.machine_count = 1;
  EXPECT_FALSE(AnalyzeMultiway(ThreeTierProfile(), FastNet(), one_machine).ok());
  MultiwayOptions bad_gui;
  bad_gui.gui_machine = 5;
  EXPECT_FALSE(AnalyzeMultiway(ThreeTierProfile(), FastNet(), bad_gui).ok());
  EXPECT_FALSE(AnalyzeMultiway(IccProfile(), FastNet(), MultiwayOptions()).ok());
  MultiwayOptions bad_pin;
  bad_pin.extra_pins.emplace_back(0, 9);
  EXPECT_FALSE(AnalyzeMultiway(ThreeTierProfile(), FastNet(), bad_pin).ok());
}

TEST(MultiwayAnalysisTest, PredictCountsEveryCrossingPair) {
  const IccProfile profile = ThreeTierProfile();
  Distribution spread;
  spread.placement[0] = 0;
  spread.placement[1] = 1;
  spread.placement[2] = 1;
  spread.placement[3] = 2;
  const double crossing = PredictCommunicationSeconds(profile, spread, FastNet());
  // GUI<->cache crosses (0|1) and logic<->db crosses (1|2); cache<->logic
  // does not.
  const double expected = (200.0 /*calls*/ * 1e-3 + (100 * 264) * 1e-6) +
                          (100.0 * 1e-3 + (50 * 4064) * 1e-6);
  EXPECT_NEAR(crossing, expected, 1e-9);
}

}  // namespace
}  // namespace coign
