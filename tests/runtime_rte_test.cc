// Exercises the Coign runtime end to end on a miniature application: a Ui
// component (GUI APIs) that creates a Worker, which pulls data from a Store
// component (storage APIs).

#include "src/runtime/rte.h"

#include <gtest/gtest.h>

#include "src/apps/component_library.h"
#include "src/runtime/binary_rewriter.h"

namespace coign {
namespace {

enum Method : MethodIndex { kRun = 0, kPull = 1 };

class RteTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(system_.interfaces()
                    .Register(InterfaceBuilder("IMini")
                                  .Method("Run")
                                  .In("n", ValueKind::kInt32)
                                  .Out("ok", ValueKind::kBool)
                                  .Method("Pull")
                                  .In("n", ValueKind::kInt32)
                                  .Out("data", ValueKind::kBlob)
                                  .Build())
                    .ok());
    iid_ = system_.interfaces().LookupByName("IMini")->iid;

    // Ui::Run -> creates Worker, calls Worker::Run.
    // Worker::Run -> creates Store, pulls n blobs.
    // Store::Pull -> returns a 1 KB blob.
    handlers_.Set(iid_, kRun, [this](ScriptedComponent& self, const Message& in,
                                     Message* out) {
      ObjectSystem& sys = *self.system();
      sys.ChargeCompute(1e-4);
      const ClassDesc* my_class = sys.ClassOf(self.id());
      if (my_class->name == "Mini.Ui") {
        Result<ObjectRef> worker =
            sys.CreateInstance(Guid::FromName("clsid:Mini.Worker"), iid_);
        if (!worker.ok()) {
          return worker.status();
        }
        Message run_in;
        run_in.Add("n", *in.Find("n"));
        Message run_out;
        return sys.Call(*worker, kRun, run_in, &run_out);
      }
      // Worker.
      Result<ObjectRef> store = sys.CreateInstance(Guid::FromName("clsid:Mini.Store"), iid_);
      if (!store.ok()) {
        return store.status();
      }
      const int32_t n = in.Find("n")->AsInt32();
      for (int32_t i = 0; i < n; ++i) {
        Message pull_in;
        pull_in.Add("n", Value::FromInt32(i));
        Message pull_out;
        COIGN_RETURN_IF_ERROR(sys.Call(*store, kPull, pull_in, &pull_out));
      }
      out->Add("ok", Value::FromBool(true));
      return Status::Ok();
    });
    handlers_.Set(iid_, kPull, [](ScriptedComponent& self, const Message& in, Message* out) {
      self.system()->ChargeCompute(1e-5);
      out->Add("data", Value::BlobOfSize(1024, static_cast<uint64_t>(
                                                   in.Find("n")->AsInt32())));
      return Status::Ok();
    });

    ASSERT_TRUE(
        RegisterScriptedClass(&system_, "Mini.Ui", {iid_}, kApiGui, &handlers_).ok());
    ASSERT_TRUE(
        RegisterScriptedClass(&system_, "Mini.Worker", {iid_}, kApiNone, &handlers_).ok());
    ASSERT_TRUE(
        RegisterScriptedClass(&system_, "Mini.Store", {iid_}, kApiStorage, &handlers_).ok());
  }

  Status RunUi(int32_t pulls) {
    Result<ObjectRef> ui = system_.CreateInstanceByName("Mini.Ui", "IMini");
    if (!ui.ok()) {
      return ui.status();
    }
    Message in;
    in.Add("n", Value::FromInt32(pulls));
    Message out;
    return system_.Call(*ui, kRun, in, &out);
  }

  ObjectSystem system_;
  HandlerTable handlers_;
  InterfaceId iid_;
};

TEST_F(RteTest, ProfilingModeSummarizesCommunication) {
  ConfigurationRecord config;  // Profiling defaults.
  CoignRuntime runtime(&system_, config);
  runtime.BeginScenario();
  ASSERT_TRUE(RunUi(5).ok());

  ASSERT_NE(runtime.profiling_logger(), nullptr);
  const IccProfile profile = runtime.profiling_logger()->profile();
  EXPECT_EQ(profile.classifications().size(), 3u);  // Ui, Worker, Store.
  // Calls observed: Ui.Run + Worker.Run + 5 pulls.
  EXPECT_EQ(runtime.calls_observed(), 7u);
  EXPECT_EQ(profile.total_calls(), 7u);
  EXPECT_GT(profile.total_bytes(), 5u * 1024);  // Deep-copied pull replies.
  EXPECT_GT(profile.total_compute_seconds(), 0.0);

  // API usage metadata captured for constraints.
  bool saw_gui = false, saw_storage = false;
  for (const ClassificationInfo& info : profile.classifications()) {
    saw_gui |= (info.api_usage & kApiGui) != 0;
    saw_storage |= (info.api_usage & kApiStorage) != 0;
    EXPECT_EQ(info.instance_count, 1u);
  }
  EXPECT_TRUE(saw_gui);
  EXPECT_TRUE(saw_storage);

  // Interface wrapping happened for every called interface.
  EXPECT_GE(runtime.interfaces_wrapped(), 3u);
}

TEST_F(RteTest, ProfilingModeKeepsPlacementLocal) {
  ConfigurationRecord config;
  CoignRuntime runtime(&system_, config);
  runtime.BeginScenario();
  ASSERT_TRUE(RunUi(2).ok());
  for (const auto& info : system_.LiveInstances()) {
    EXPECT_EQ(info.machine, kClientMachine);
  }
  EXPECT_EQ(runtime.remote_calls_observed(), 0u);
}

TEST_F(RteTest, DistributedModeRelocatesInstantiations) {
  // First profile to learn the classifications.
  ConfigurationRecord profiling;
  Distribution distribution;
  {
    CoignRuntime runtime(&system_, profiling);
    runtime.BeginScenario();
    ASSERT_TRUE(RunUi(3).ok());
    // Build a distribution by class name: Store and Worker to the server.
    const IccProfile profile = runtime.profiling_logger()->profile();
    for (const ClassificationInfo& info : profile.classifications()) {
      distribution.placement[info.id] =
          (info.class_name == "Mini.Ui") ? kClientMachine : kServerMachine;
    }
    system_.DestroyAll();
  }

  ConfigurationRecord light;
  light.mode = RuntimeMode::kDistributed;
  light.distribution = distribution;
  CoignRuntime runtime(&system_, light);
  runtime.BeginScenario();
  ASSERT_TRUE(RunUi(3).ok());

  EXPECT_EQ(runtime.mode(), RuntimeMode::kDistributed);
  EXPECT_EQ(runtime.profiling_logger(), nullptr);  // Null logger in place.
  int on_server = 0;
  for (const auto& info : system_.LiveInstances()) {
    if (info.machine == kServerMachine) {
      ++on_server;
      EXPECT_NE(info.class_name, "Mini.Ui");
    }
  }
  EXPECT_EQ(on_server, 2);  // Worker + Store.
  EXPECT_GT(runtime.remote_calls_observed(), 0u);

  // The client factory trapped the Ui-driver instantiation locally and
  // forwarded the Worker instantiation; the Store instantiation was
  // trapped on the server (by the Worker) and fulfilled there.
  EXPECT_EQ(runtime.client_factory().local_instantiations(), 1u);
  EXPECT_EQ(runtime.client_factory().forwarded_instantiations(), 1u);
  EXPECT_EQ(runtime.server_factory().local_instantiations(), 1u);
  EXPECT_EQ(runtime.server_factory().fulfilled_for_peer(), 1u);
}

TEST_F(RteTest, LoadFromImageRequiresInstrumentation) {
  ApplicationImage raw;
  raw.name = "mini.exe";
  raw.import_table = {"ole32.dll"};
  EXPECT_EQ(CoignRuntime::LoadFromImage(&system_, raw).status().code(),
            StatusCode::kFailedPrecondition);

  BinaryRewriter rewriter;
  Result<ApplicationImage> instrumented = rewriter.Instrument(raw, ConfigurationRecord());
  ASSERT_TRUE(instrumented.ok());
  Result<std::unique_ptr<CoignRuntime>> runtime =
      CoignRuntime::LoadFromImage(&system_, *instrumented);
  ASSERT_TRUE(runtime.ok());
  EXPECT_EQ((*runtime)->mode(), RuntimeMode::kProfiling);
}

TEST_F(RteTest, EventLoggerTracesEverything) {
  ConfigurationRecord config;
  CoignRuntime runtime(&system_, config);
  EventLogger events;
  runtime.AddLogger(&events);
  runtime.BeginScenario();
  ASSERT_TRUE(RunUi(1).ok());
  system_.DestroyAll();

  int instantiations = 0, destructions = 0, calls = 0, wraps = 0;
  for (const ProfileEvent& event : events.events()) {
    switch (event.kind) {
      case EventKind::kComponentInstantiation:
        ++instantiations;
        break;
      case EventKind::kComponentDestruction:
        ++destructions;
        break;
      case EventKind::kInterfaceCall:
        ++calls;
        break;
      case EventKind::kInterfaceInstantiation:
        ++wraps;
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(instantiations, 3);
  EXPECT_EQ(destructions, 3);
  EXPECT_EQ(calls, 3);  // Run + Run + 1 pull.
  EXPECT_GE(wraps, 3);
}

TEST_F(RteTest, EventLoggerBoundsMemory) {
  EventLogger bounded(/*max_events=*/2);
  ConfigurationRecord config;
  CoignRuntime runtime(&system_, config);
  runtime.AddLogger(&bounded);
  runtime.BeginScenario();
  ASSERT_TRUE(RunUi(5).ok());
  EXPECT_EQ(bounded.events().size(), 2u);
  EXPECT_GT(bounded.dropped_events(), 0u);
  bounded.Clear();
  EXPECT_TRUE(bounded.events().empty());
  EXPECT_EQ(bounded.dropped_events(), 0u);
}

TEST_F(RteTest, BeginScenarioResetsPerExecutionState) {
  ConfigurationRecord config;
  CoignRuntime runtime(&system_, config);
  runtime.BeginScenario();
  ASSERT_TRUE(RunUi(2).ok());
  const size_t classifications_after_first =
      runtime.classifier().classification_count();
  system_.DestroyAll();

  runtime.BeginScenario();
  ASSERT_TRUE(RunUi(2).ok());
  // Same scenario, same contexts: no new classifications.
  EXPECT_EQ(runtime.classifier().classification_count(), classifications_after_first);
  // Profile keeps accumulating across scenarios.
  EXPECT_EQ(runtime.profiling_logger()->profile().total_calls(), 8u);
}

TEST_F(RteTest, DetachOnDestructionStopsInterception) {
  {
    ConfigurationRecord config;
    CoignRuntime runtime(&system_, config);
    runtime.BeginScenario();
    ASSERT_TRUE(RunUi(1).ok());
  }
  // Runtime destroyed: the app still works, un-instrumented.
  ASSERT_TRUE(RunUi(1).ok());
}

}  // namespace
}  // namespace coign
