#include <gtest/gtest.h>

#include "src/analysis/engine.h"
#include "src/analysis/prediction.h"
#include "src/analysis/report.h"
#include "src/com/class_registry.h"

namespace coign {
namespace {

CallKey MakeKey(ClassificationId src, ClassificationId dst) {
  CallKey key;
  key.src = src;
  key.dst = dst;
  key.iid = Guid::FromName("iid:IAnalysis");
  return key;
}

void AddClassification(IccProfile* profile, ClassificationId id, const std::string& name,
                       uint32_t api = kApiNone, uint64_t instances = 1) {
  ClassificationInfo info;
  info.id = id;
  info.clsid = Guid::FromName("clsid:" + name);
  info.class_name = name;
  info.api_usage = api;
  info.instance_count = instances;
  profile->RecordClassification(info);
}

NetworkProfile FastNetwork() {
  NetworkProfile network;
  network.per_message_seconds = 1e-3;
  network.seconds_per_byte = 1e-6;
  return network;
}

// The canonical shape: Gui (pinned client) <-chatty-> Worker <-bulk-> Store
// (pinned server). Worker should land wherever its traffic is heavier.
IccProfile WorkerProfile(uint64_t gui_side_bytes, uint64_t store_side_bytes) {
  IccProfile profile;
  AddClassification(&profile, 0, "Gui", kApiGui, 2);
  AddClassification(&profile, 1, "Worker", kApiNone, 4);
  AddClassification(&profile, 2, "Store", kApiStorage, 1);
  profile.RecordCall(MakeKey(0, 1), gui_side_bytes, 64, true);
  profile.RecordCall(MakeKey(1, 2), store_side_bytes, 64, true);
  profile.RecordCompute(1, 0.25);
  return profile;
}

TEST(AnalysisEngineTest, WorkerFollowsTheHeavierEdge) {
  ProfileAnalysisEngine engine;
  {
    Result<AnalysisResult> result =
        engine.Analyze(WorkerProfile(/*gui=*/100, /*store=*/100000), FastNetwork());
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->distribution.MachineFor(1), kServerMachine);
    EXPECT_EQ(result->server_classifications, 2u);  // Worker + Store.
    EXPECT_EQ(result->server_instances, 5u);
  }
  {
    Result<AnalysisResult> result =
        engine.Analyze(WorkerProfile(/*gui=*/100000, /*store=*/100), FastNetwork());
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->distribution.MachineFor(1), kClientMachine);
  }
}

TEST(AnalysisEngineTest, PinsAlwaysRespected) {
  ProfileAnalysisEngine engine;
  Result<AnalysisResult> result = engine.Analyze(WorkerProfile(10, 10), FastNetwork());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->distribution.MachineFor(0), kClientMachine);
  EXPECT_EQ(result->distribution.MachineFor(2), kServerMachine);
}

TEST(AnalysisEngineTest, PredictedCommMatchesCutEdges) {
  ProfileAnalysisEngine engine;
  const IccProfile profile = WorkerProfile(100, 100000);
  Result<AnalysisResult> result = engine.Analyze(profile, FastNetwork());
  ASSERT_TRUE(result.ok());
  // The crossing edge is Gui <-> Worker.
  double crossing = 0.0;
  for (const CutEdgeReport& edge : result->cut_edges) {
    crossing += edge.seconds;
  }
  EXPECT_NEAR(result->predicted_comm_seconds, crossing, 1e-12);
  EXPECT_NEAR(result->predicted_comm_seconds,
              PredictCommunicationSeconds(profile, result->distribution, FastNetwork()),
              1e-12);
  EXPECT_LE(result->predicted_comm_seconds, result->total_comm_seconds);
}

TEST(AnalysisEngineTest, NonRemotableEdgeForcesColocation) {
  IccProfile profile;
  AddClassification(&profile, 0, "Gui", kApiGui);
  AddClassification(&profile, 1, "Sprite", kApiNone);
  AddClassification(&profile, 2, "Store", kApiStorage);
  // Sprite talks hugely to the Store, but shares opaque memory with Gui.
  profile.RecordCall(MakeKey(0, 1), 10, 10, /*remotable=*/false);
  profile.RecordCall(MakeKey(1, 2), 1000000, 64, true);
  ProfileAnalysisEngine engine;
  Result<AnalysisResult> result = engine.Analyze(profile, FastNetwork());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->distribution.MachineFor(1), kClientMachine);
  EXPECT_EQ(result->non_remotable_pairs, 1u);
}

TEST(AnalysisEngineTest, ContradictoryConstraintsReported) {
  IccProfile profile;
  AddClassification(&profile, 0, "Gui", kApiGui);
  AddClassification(&profile, 1, "Store", kApiStorage);
  // A non-remotable interface between a client-pinned and a server-pinned
  // classification cannot be satisfied.
  profile.RecordCall(MakeKey(0, 1), 10, 10, /*remotable=*/false);
  ProfileAnalysisEngine engine;
  Result<AnalysisResult> result = engine.Analyze(profile, FastNetwork());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(AnalysisEngineTest, EmptyProfileRefused) {
  ProfileAnalysisEngine engine;
  EXPECT_EQ(engine.Analyze(IccProfile(), FastNetwork()).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(AnalysisEngineTest, ExtraConstraintsApplied) {
  AnalysisOptions options;
  options.extra_constraints.PinAbsolute(1, kServerMachine);  // Pin the worker.
  ProfileAnalysisEngine engine(options);
  // Traffic says client, the programmer says server.
  Result<AnalysisResult> result =
      engine.Analyze(WorkerProfile(/*gui=*/100000, /*store=*/100), FastNetwork());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->distribution.MachineFor(1), kServerMachine);
}

TEST(AnalysisEngineTest, PairwiseColocationApplied) {
  AnalysisOptions options;
  options.extra_constraints.Colocate(1, 2);  // Worker rides with Store.
  ProfileAnalysisEngine engine(options);
  Result<AnalysisResult> result =
      engine.Analyze(WorkerProfile(/*gui=*/100000, /*store=*/100), FastNetwork());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->distribution.MachineFor(1), kServerMachine);
}

TEST(AnalysisEngineTest, ApiConstraintDerivationCanBeDisabled) {
  AnalysisOptions options;
  options.derive_api_constraints = false;
  ProfileAnalysisEngine engine(options);
  // With no pins at all, everything clusters on one side and nothing
  // crosses the network.
  Result<AnalysisResult> result = engine.Analyze(WorkerProfile(100, 100), FastNetwork());
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->predicted_comm_seconds, 0.0, 1e-12);
}

TEST(AnalysisEngineTest, BothCutAlgorithmsChooseTheIdenticalDistribution) {
  // The paper's lift-to-front and the production push-relabel solver both
  // extract the unique minimal minimum cut: the same exact value in units
  // and the same placement, whichever side Worker lands on.
  AnalysisOptions rtf_options;
  rtf_options.algorithm = CutAlgorithm::kRelabelToFront;
  for (const IccProfile& profile : {WorkerProfile(5000, 5200), WorkerProfile(9000, 100)}) {
    Result<AnalysisResult> rtf =
        ProfileAnalysisEngine(rtf_options).Analyze(profile, FastNetwork());
    Result<AnalysisResult> pr = ProfileAnalysisEngine().Analyze(profile, FastNetwork());
    ASSERT_TRUE(rtf.ok());
    ASSERT_TRUE(pr.ok());
    EXPECT_GT(rtf->cut_value_units, 0);
    EXPECT_EQ(rtf->cut_value_units, pr->cut_value_units);
    EXPECT_EQ(rtf->distribution.placement, pr->distribution.placement);
  }
}

TEST(AnalysisEngineTest, SessionsAreInvisibleInResultsAndSumColdSolves) {
  ProfileAnalysisEngine engine;
  MinCutSession session;
  // Three windows over the same topology with drifting weights (the third
  // repeats the first), each analyzed through a shared session and without
  // one: every result must match field for field, and the shared session
  // must count exactly the work of three independent cold solves.
  const IccProfile windows[] = {WorkerProfile(5000, 5200), WorkerProfile(9000, 100),
                                WorkerProfile(5000, 5200)};
  MinCutSolveStats per_call;
  for (const IccProfile& window : windows) {
    Result<AnalysisResult> shared = engine.Analyze(window, FastNetwork(), &session);
    Result<AnalysisResult> alone = engine.Analyze(window, FastNetwork());
    ASSERT_TRUE(shared.ok());
    ASSERT_TRUE(alone.ok());
    EXPECT_EQ(shared->cut_value_units, alone->cut_value_units);
    EXPECT_EQ(shared->distribution.placement, alone->distribution.placement);
    EXPECT_EQ(shared->client_classifications, alone->client_classifications);
    EXPECT_EQ(shared->predicted_comm_seconds, alone->predicted_comm_seconds);
    EXPECT_EQ(shared->cut_edges.size(), alone->cut_edges.size());
    MinCutSession fresh;
    ASSERT_TRUE(engine.Analyze(window, FastNetwork(), &fresh).ok());
    per_call.Accumulate(fresh.stats());
  }
  EXPECT_GT(per_call.pushes, 0u);
  EXPECT_EQ(session.stats().pushes, per_call.pushes);
  EXPECT_EQ(session.stats().relabels, per_call.relabels);
  EXPECT_EQ(session.stats().global_relabels, per_call.global_relabels);
}

TEST(PredictionTest, CommunicationOnlyCountsCrossMachinePairs) {
  const IccProfile profile = WorkerProfile(1000, 2000);
  Distribution all_client = EverythingOn(kClientMachine);
  EXPECT_EQ(PredictCommunicationSeconds(profile, all_client, FastNetwork()), 0.0);

  Distribution split;
  split.placement[0] = kClientMachine;
  split.placement[1] = kClientMachine;
  split.placement[2] = kServerMachine;
  const double worker_store = PredictCommunicationSeconds(profile, split, FastNetwork());
  // Worker <-> Store: 2 messages, 2064 bytes.
  EXPECT_NEAR(worker_store, 2 * 1e-3 + 2064 * 1e-6, 1e-9);
}

TEST(PredictionTest, ExecutionTimeAddsCompute) {
  const IccProfile profile = WorkerProfile(1000, 2000);
  const ExecutionPrediction prediction =
      PredictExecutionTime(profile, EverythingOn(kClientMachine), FastNetwork());
  EXPECT_DOUBLE_EQ(prediction.compute_seconds, 0.25);
  EXPECT_DOUBLE_EQ(prediction.communication_seconds, 0.0);
  EXPECT_DOUBLE_EQ(prediction.total_seconds(), 0.25);
}

TEST(PredictionTest, DriverCountsAsClient) {
  IccProfile profile;
  AddClassification(&profile, 0, "Free");
  profile.RecordCall(MakeKey(kNoClassification, 0), 100, 100, true);
  Distribution server_only;
  server_only.placement[0] = kServerMachine;
  EXPECT_GT(PredictCommunicationSeconds(profile, server_only, FastNetwork()), 0.0);
  Distribution client_only;
  client_only.placement[0] = kClientMachine;
  EXPECT_EQ(PredictCommunicationSeconds(profile, client_only, FastNetwork()), 0.0);
}

TEST(ReportTest, FigureSummaryAndDetails) {
  const IccProfile profile = WorkerProfile(100, 100000);
  ProfileAnalysisEngine engine;
  Result<AnalysisResult> result = engine.Analyze(profile, FastNetwork());
  ASSERT_TRUE(result.ok());
  const std::string summary = FigureSummary(*result);
  EXPECT_NE(summary.find("Of 7 components"), std::string::npos);
  EXPECT_NE(summary.find("5 on the server"), std::string::npos);
  const std::string report = DistributionReport(profile, *result);
  EXPECT_NE(report.find("Worker"), std::string::npos);
  EXPECT_NE(report.find("server components"), std::string::npos);
  EXPECT_NE(report.find("<driver>") != std::string::npos ||
                report.find("Gui") != std::string::npos,
            false);
}

}  // namespace
}  // namespace coign
