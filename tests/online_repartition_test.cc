// Tests for the online repartitioning subsystem: the sliding-window
// accountant, the rent-or-buy policy (hysteresis, migration-cost gates),
// the live migrator, migration-journal recovery across restarts, and the
// drift-detector edge cases the online loop depends on.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>

#include "src/apps/component_library.h"
#include "src/apps/octarine.h"
#include "src/fault/injector.h"
#include "src/net/network_model.h"
#include "src/online/circuit_breaker.h"
#include "src/online/measure_online.h"
#include "src/online/migration_journal.h"
#include "src/online/migrator.h"
#include "src/online/policy.h"
#include "src/online/window.h"
#include "src/runtime/drift.h"

namespace coign {
namespace {

CallKey KeyOf(ClassificationId src, ClassificationId dst, MethodIndex method = 0) {
  CallKey key;
  key.src = src;
  key.dst = dst;
  key.iid = Guid::FromName("iid:ITest");
  key.method = method;
  return key;
}

ClassificationInfo InfoOf(ClassificationId id, const std::string& name) {
  ClassificationInfo info;
  info.id = id;
  info.clsid = Guid::FromName("clsid:" + name);
  info.class_name = name;
  info.api_usage = kApiNone;
  info.instance_count = 1;
  return info;
}

// --- SlidingWindowGraph -----------------------------------------------------

TEST(SlidingWindowTest, EpochFoldAndExponentialDecay) {
  WindowOptions options;
  options.decay = 0.5;
  SlidingWindowGraph window(options);
  const CallKey key = KeyOf(1, 2);

  window.Record(key, 8);
  EXPECT_DOUBLE_EQ(window.WeightOf(key), 0.0);  // Current epoch not folded yet.
  window.AdvanceEpoch();
  EXPECT_DOUBLE_EQ(window.WeightOf(key), 8.0);

  window.AdvanceEpoch();  // No new traffic: decays.
  EXPECT_DOUBLE_EQ(window.WeightOf(key), 4.0);
  window.Record(key, 2);
  window.AdvanceEpoch();  // window = 0.5 * 4 + 2.
  EXPECT_DOUBLE_EQ(window.WeightOf(key), 4.0);
  EXPECT_EQ(window.epoch_count(), 3u);
}

TEST(SlidingWindowTest, PruningBoundsMemory) {
  WindowOptions options;
  options.decay = 0.5;
  SlidingWindowGraph window(options);
  window.Record(KeyOf(1, 2), 1);
  window.AdvanceEpoch();
  EXPECT_EQ(window.tracked_keys(), 1u);
  // 1 * 0.5^n falls below the 0.01 prune floor within 7 epochs; the key
  // must vanish.
  for (int i = 0; i < 8; ++i) {
    window.AdvanceEpoch();
  }
  EXPECT_EQ(window.tracked_keys(), 0u);
  EXPECT_DOUBLE_EQ(window.total_message_weight(), 0.0);
}

TEST(SlidingWindowTest, WindowedProfileScalesProfiledKeys) {
  IccProfileBuilder recording;
  recording.RecordClassification(InfoOf(1, "A"));
  recording.RecordClassification(InfoOf(2, "B"));
  const CallKey key = KeyOf(1, 2);
  for (int i = 0; i < 10; ++i) {
    recording.RecordCall(key, 100, 50, /*remotable=*/true);
  }
  const IccProfile base = recording.Build();

  SlidingWindowGraph window;
  window.Record(key, 20);  // Twice the profiled rate.
  window.AdvanceEpoch();

  const IccProfile windowed = window.WindowedProfile(base);
  const CallSummary* summary = windowed.FindCall(key);
  ASSERT_NE(summary, nullptr);
  EXPECT_EQ(summary->call_count(), 20u);
  // Size distribution preserved: 150 bytes round-trip per call.
  EXPECT_EQ(summary->total_bytes(), 20u * 150u);
}

TEST(SlidingWindowTest, UnprofiledKeysNeedLiveRegistry) {
  IccProfileBuilder recording;
  recording.RecordClassification(InfoOf(1, "A"));
  const IccProfile base = recording.Build();
  const CallKey key = KeyOf(1, 9);  // Classification 9 unknown to the profile.

  SlidingWindowGraph window;
  window.Record(key, 50, /*remotable=*/false);
  window.AdvanceEpoch();

  // Without metadata for 9 the key cannot be placed — it is dropped.
  EXPECT_TRUE(window.WindowedProfile(base).calls().empty());

  // With the live registry (classification first seen at run time) the key
  // is synthesized at the default message size, non-remotability preserved.
  std::unordered_map<ClassificationId, ClassificationInfo> live;
  live.emplace(9, InfoOf(9, "LiveOnly"));
  const IccProfile windowed = window.WindowedProfile(base, live);
  const CallSummary* summary = windowed.FindCall(key);
  ASSERT_NE(summary, nullptr);
  EXPECT_EQ(summary->call_count(), 50u);
  EXPECT_EQ(summary->non_remotable_calls, 50u);
  ASSERT_NE(windowed.FindClassification(9), nullptr);
  EXPECT_EQ(windowed.FindClassification(9)->class_name, "LiveOnly");
}

// --- RepartitionPolicy ------------------------------------------------------

// A profile with one hot pair: A (client) talking to B over the wire.
IccProfileBuilder HotPairRecording(uint64_t calls) {
  IccProfileBuilder profile;
  profile.RecordClassification(InfoOf(1, "A"));
  profile.RecordClassification(InfoOf(2, "B"));
  const CallKey key = KeyOf(1, 2);
  for (uint64_t i = 0; i < calls; ++i) {
    profile.RecordCall(key, 4096, 4096, /*remotable=*/true);
  }
  return profile;
}

IccProfile HotPairProfile(uint64_t calls) { return HotPairRecording(calls).Build(); }

Distribution SplitAB() {
  Distribution current;
  current.placement[1] = kClientMachine;
  current.placement[2] = kServerMachine;
  return current;
}

TEST(RepartitionPolicyTest, RejectsEmptyAndThinWindows) {
  const NetworkProfile network = NetworkProfile::Exact(NetworkModel::TenBaseT());
  RepartitionPolicy policy;

  Result<RepartitionDecision> empty =
      policy.Evaluate(IccProfile(), network, Distribution(), {});
  ASSERT_TRUE(empty.ok());
  EXPECT_FALSE(empty->adopt);
  EXPECT_EQ(empty->reject_cause, RejectCause::kEmptyWindow);

  Result<RepartitionDecision> thin =
      policy.Evaluate(HotPairProfile(3), network, SplitAB(), {});
  ASSERT_TRUE(thin.ok());
  EXPECT_FALSE(thin->adopt);
  EXPECT_EQ(thin->reject_cause, RejectCause::kInsufficientEvidence);
}

TEST(RepartitionPolicyTest, AcceptsColocationOfHotPair) {
  const NetworkProfile network = NetworkProfile::Exact(NetworkModel::TenBaseT());
  RepartitionPolicy policy;
  std::unordered_map<ClassificationId, uint64_t> live = {{1, 1}, {2, 1}};

  Result<RepartitionDecision> decision =
      policy.Evaluate(HotPairProfile(500), network, SplitAB(), live);
  ASSERT_TRUE(decision.ok());
  EXPECT_TRUE(decision->adopt) << decision->reason;
  // The bill (one instance's state) is far below a window of hot traffic,
  // so the policy moves live state eagerly rather than adopting lazily.
  EXPECT_TRUE(decision->migrate) << decision->reason;
  EXPECT_EQ(decision->reject_cause, RejectCause::kNone);
  // The proposed cut colocates the pair: no cross-machine traffic left.
  EXPECT_EQ(decision->proposed.MachineFor(1), decision->proposed.MachineFor(2));
  EXPECT_LT(decision->proposed_seconds, decision->current_seconds);
  EXPECT_GT(decision->instances_to_move, 0u);
}

TEST(RepartitionPolicyTest, HysteresisRejectsMarginalGains) {
  const NetworkProfile network = NetworkProfile::Exact(NetworkModel::TenBaseT());
  RepartitionConfig config;
  // A gain threshold no real cut can clear: relative gain is at most 100%.
  config.min_relative_gain = 1.5;
  RepartitionPolicy policy(config);
  std::unordered_map<ClassificationId, uint64_t> live = {{1, 1}, {2, 1}};

  Result<RepartitionDecision> decision =
      policy.Evaluate(HotPairProfile(500), network, SplitAB(), live);
  ASSERT_TRUE(decision.ok());
  EXPECT_FALSE(decision->adopt);
  EXPECT_EQ(decision->reject_cause, RejectCause::kHysteresis);
}

TEST(RepartitionPolicyTest, RentOrBuyAdoptsLazilyWhenMigrationIsExpensive) {
  const NetworkProfile network = NetworkProfile::Exact(NetworkModel::TenBaseT());
  RepartitionConfig config;
  config.state_bytes_per_instance = 64 * 1024 * 1024;  // Monstrous state.
  RepartitionPolicy policy(config);
  // Many live instances of the server-side classification.
  std::unordered_map<ClassificationId, uint64_t> live = {{1, 1}, {2, 1000}};

  Result<RepartitionDecision> decision =
      policy.Evaluate(HotPairProfile(500), network, SplitAB(), live);
  ASSERT_TRUE(decision.ok());
  // The better cut is still worth adopting — factories place future
  // instances per it for free — but moving 1000 instances of huge state is
  // not: live instances keep renting the old cut until they die.
  EXPECT_TRUE(decision->adopt) << decision->reason;
  EXPECT_FALSE(decision->migrate);
  EXPECT_EQ(decision->reject_cause, RejectCause::kNone);
  EXPECT_GT(decision->migration_seconds, 0.0);
}

TEST(RepartitionPolicyTest, RentOrBuyKeepsRentingOverAShortHorizon) {
  const NetworkProfile network = NetworkProfile::Exact(NetworkModel::TenBaseT());
  RepartitionConfig config;
  config.state_bytes_per_instance = 64 * 1024 * 1024;
  // One window of future: lazy adoption gains nothing (live instances rent
  // through it) and eager migration cannot amortize the bill.
  config.horizon_windows = 1.0;
  RepartitionPolicy policy(config);
  std::unordered_map<ClassificationId, uint64_t> live = {{1, 1}, {2, 1000}};

  Result<RepartitionDecision> decision =
      policy.Evaluate(HotPairProfile(500), network, SplitAB(), live);
  ASSERT_TRUE(decision.ok());
  EXPECT_FALSE(decision->adopt);
  EXPECT_FALSE(decision->migrate);
  EXPECT_EQ(decision->reject_cause, RejectCause::kMigrationCost);
}

TEST(RepartitionPolicyTest, IdleClassificationsKeepTheirPlacement) {
  const NetworkProfile network = NetworkProfile::Exact(NetworkModel::TenBaseT());
  // Window sees only the A-B pair; classification 3 exists in the profile
  // but has no traffic — a disconnected node the min cut would place
  // arbitrarily. The policy must keep it where it is (server).
  IccProfileBuilder recording = HotPairRecording(500);
  recording.RecordClassification(InfoOf(3, "Idle"));
  const IccProfile windowed = recording.Build();
  Distribution current = SplitAB();
  current.placement[3] = kServerMachine;

  RepartitionPolicy policy;
  std::unordered_map<ClassificationId, uint64_t> live = {{1, 1}, {2, 1}, {3, 4}};
  Result<RepartitionDecision> decision = policy.Evaluate(windowed, network, current, live);
  ASSERT_TRUE(decision.ok());
  EXPECT_EQ(decision->proposed.MachineFor(3), kServerMachine);
}

// --- LiveMigrator -----------------------------------------------------------

class MigratorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(system_.interfaces()
                    .Register(InterfaceBuilder("IEcho")
                                  .Method("Echo")
                                  .In("x", ValueKind::kInt32)
                                  .Out("x", ValueKind::kInt32)
                                  .Build())
                    .ok());
    iid_ = system_.interfaces().LookupByName("IEcho")->iid;
    handlers_.Set(iid_, 0,
                  [](ScriptedComponent& self, const Message& in, Message* out) {
                    (void)self;
                    out->Add("x", Value::FromInt32(in.Find("x")->AsInt32()));
                    return Status::Ok();
                  });
    ASSERT_TRUE(
        RegisterScriptedClass(&system_, "Echo", {iid_}, kApiNone, &handlers_).ok());
  }

  ObjectSystem system_;
  HandlerTable handlers_;
  InterfaceId iid_;
};

TEST_F(MigratorTest, MovesInstancesAcrossTheCutAndBillsState) {
  ASSERT_TRUE(system_.CreateInstanceByName("Echo", "IEcho").ok());
  ASSERT_TRUE(system_.CreateInstanceByName("Echo", "IEcho").ok());
  for (const auto& info : system_.LiveInstances()) {
    EXPECT_EQ(info.machine, kClientMachine);
  }

  Distribution target;
  target.placement[7] = kServerMachine;
  const NetworkProfile network = NetworkProfile::Exact(NetworkModel::TenBaseT());
  LiveMigrator migrator(MigrationOptions{.state_bytes_per_instance = 2048},
                        [](InstanceId) -> ClassificationId { return 7; });
  Result<MigrationReport> report = migrator.Migrate(system_, target, network);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->instances_moved, 2u);
  EXPECT_EQ(report->bytes_transferred, 2u * 2048u);
  EXPECT_GT(report->seconds, 0.0);
  for (const auto& info : system_.LiveInstances()) {
    EXPECT_EQ(info.machine, kServerMachine);
  }

  // Already in place: a second migration is a no-op.
  Result<MigrationReport> again = migrator.Migrate(system_, target, network);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->instances_moved, 0u);
}

TEST_F(MigratorTest, UnclassifiedInstancesStayPut) {
  ASSERT_TRUE(system_.CreateInstanceByName("Echo", "IEcho").ok());
  Distribution target;
  target.default_machine = kServerMachine;
  const NetworkProfile network = NetworkProfile::Exact(NetworkModel::TenBaseT());
  LiveMigrator migrator(MigrationOptions{.state_bytes_per_instance = 2048},
                        [](InstanceId) -> ClassificationId { return kNoClassification; });
  Result<MigrationReport> report = migrator.Migrate(system_, target, network);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->instances_moved, 0u);
  EXPECT_EQ(system_.LiveInstances()[0].machine, kClientMachine);
}

// --- Journal persistence across restarts (OnlineOptions::journal_path) ------

class JournalRestartTest : public MigratorTest {
 protected:
  // A distributed-mode runtime plus a repartitioner whose options point at
  // `path`, as a restarted process would build them.
  std::unique_ptr<OnlineRepartitioner> Restart(const std::string& path) {
    ConfigurationRecord config;
    config.mode = RuntimeMode::kDistributed;
    runtime_ = std::make_unique<CoignRuntime>(&system_, config);
    OnlineOptions options;
    options.journal_path = path;
    return std::make_unique<OnlineRepartitioner>(
        &system_, runtime_.get(), profile_,
        NetworkProfile::Exact(NetworkModel::TenBaseT()), options);
  }

  static bool FileExists(const std::string& path) {
    return std::ifstream(path).good();
  }

  IccProfile profile_;
  std::unique_ptr<CoignRuntime> runtime_;
};

TEST_F(JournalRestartTest, InFlightJournalIsResumedAtTheFirstEpoch) {
  // The previous process crashed mid-copy: its journal says the instance
  // was headed to the server, and the copy had already landed there.
  ASSERT_TRUE(system_.CreateInstanceByName("Echo", "IEcho").ok());
  const InstanceId instance = system_.LiveInstances()[0].id;
  ASSERT_TRUE(system_.MoveInstance(instance, kServerMachine).ok());
  MigrationJournal crashed;
  crashed.Append({MigrationPhase::kIntent, instance, kClientMachine, kServerMachine, 512});
  const std::string path = ::testing::TempDir() + "/coign_journal_resume.txt";
  ASSERT_TRUE(crashed.SaveToFile(path).ok());

  Transport transport(NetworkModel::TenBaseT());
  std::unique_ptr<OnlineRepartitioner> repartitioner = Restart(path);
  ASSERT_TRUE(repartitioner->has_pending_migration());
  ASSERT_EQ(repartitioner->pending_journal()->InFlight().size(), 1u);
  EXPECT_EQ(repartitioner->pending_journal()->InFlight()[0].instance, instance);

  // The first epoch boundary runs crash recovery: the in-flight copy is
  // rolled back to its source, the re-attempt has nothing left to move,
  // and the completed migration removes the snapshot file.
  repartitioner->SetMigrationTransport(&transport, nullptr);
  ASSERT_TRUE(repartitioner->EndEpoch().ok());
  EXPECT_EQ(repartitioner->stats().migration_resumes, 1u);
  EXPECT_EQ(repartitioner->stats().migration_rollbacks, 1u);
  EXPECT_EQ(system_.MachineOf(instance).value(), kClientMachine);
  EXPECT_FALSE(repartitioner->has_pending_migration());
  EXPECT_FALSE(FileExists(path));
}

TEST_F(JournalRestartTest, UnreadableJournalIsKeptAsideNotDeleted) {
  // A damaged header and an older-format (v1) journal both fail to parse.
  // Neither may be dropped unread: each is renamed to <path>.unreadable
  // with its bytes intact, and the run starts with no pending migration.
  const std::string path = ::testing::TempDir() + "/coign_journal_unreadable.txt";
  const std::string aside = path + ".unreadable";
  for (const std::string text :
       {"migration-journal v1\nrec intent 7 0 1 512\n", "migration-jXurnal v2\n"}) {
    std::remove(aside.c_str());
    std::ofstream(path) << text;
    std::unique_ptr<OnlineRepartitioner> repartitioner = Restart(path);
    EXPECT_FALSE(repartitioner->has_pending_migration());
    EXPECT_FALSE(FileExists(path));
    std::ifstream kept(aside);
    const std::string kept_text((std::istreambuf_iterator<char>(kept)),
                                std::istreambuf_iterator<char>());
    EXPECT_EQ(kept_text, text);
    ASSERT_TRUE(repartitioner->EndEpoch().ok());
    EXPECT_TRUE(FileExists(aside));
  }
  std::remove(aside.c_str());
}

// --- DetectDrift edge cases -------------------------------------------------

TEST(DriftEdgeCaseTest, EmptyWindowIsNotDrift) {
  IccProfile profile = HotPairProfile(100);
  DriftOptions options;
  options.min_messages = 0;  // Force a judgment on the empty window.
  const DriftReport report = DetectDrift(CountsFromProfile(profile), MessageCounts(), options);
  EXPECT_EQ(report.observed_messages, 0u);
  // Regression: this used to be 0/0 = NaN.
  EXPECT_DOUBLE_EQ(report.unprofiled_fraction, 0.0);
  EXPECT_FALSE(report.unprofiled_fraction != report.unprofiled_fraction);
}

TEST(DriftEdgeCaseTest, EmptyProfileFlagsAllTrafficAsUnprofiled) {
  MessageCounts observed;
  observed.Record(1, 2, 500);
  DriftOptions options;
  options.min_messages = 100;
  const DriftReport report = DetectDrift(CountsFromProfile(IccProfile()), observed, options);
  EXPECT_DOUBLE_EQ(report.unprofiled_fraction, 1.0);
  EXPECT_TRUE(report.reprofile_recommended);
}

TEST(DriftEdgeCaseTest, MatchingTrafficIsNotDrift) {
  IccProfile profile = HotPairProfile(100);
  MessageCounts observed;
  observed.Record(1, 2, 200);  // Same pair, scaled rate: same direction.
  const DriftReport report = DetectDrift(CountsFromProfile(profile), observed);
  EXPECT_GT(report.similarity, 0.99);
  EXPECT_FALSE(report.reprofile_recommended);
}

// --- Circuit breaker state machine -------------------------------------------

BreakerConfig TestBreakerConfig() {
  BreakerConfig config;
  config.enabled = true;
  config.trip_after = 2;
  config.open_epochs = 2;
  config.max_open_epochs = 8;
  return config;
}

constexpr BreakerSample kHealthyEpoch{/*calls=*/10, /*undelivered=*/0,
                                      /*corrupt_rejected=*/0};
constexpr BreakerSample kCorruptEpoch{/*calls=*/10, /*undelivered=*/0,
                                      /*corrupt_rejected=*/5};
constexpr BreakerSample kDeadEpoch{/*calls=*/10, /*undelivered=*/3,
                                   /*corrupt_rejected=*/0};

TEST(CircuitBreakerTest, TripsOnlyAfterConsecutiveBadEpochs) {
  CircuitBreaker breaker(TestBreakerConfig());
  breaker.Observe(kCorruptEpoch);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  breaker.Observe(kHealthyEpoch);  // A good epoch resets the streak.
  breaker.Observe(kCorruptEpoch);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  breaker.Observe(kDeadEpoch);  // Either threshold continues the streak.
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.trips(), 1u);
}

TEST(CircuitBreakerTest, QuietEpochsCastNoVote) {
  CircuitBreaker breaker(TestBreakerConfig());
  const BreakerSample quiet{/*calls=*/3, /*undelivered=*/3, /*corrupt_rejected=*/3};
  for (int i = 0; i < 10; ++i) {
    breaker.Observe(quiet);  // Below 4 calls: too little traffic to judge.
  }
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.trips(), 0u);
}

TEST(CircuitBreakerTest, HoldExpiresIntoHalfOpenAndHealthyProbeCloses) {
  CircuitBreaker breaker(TestBreakerConfig());
  breaker.Observe(kCorruptEpoch);
  breaker.Observe(kCorruptEpoch);
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_FALSE(breaker.WantsProbe());
  breaker.Observe(kCorruptEpoch);  // Hold 2 -> 1 (evidence ignored while open).
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  breaker.Observe(kCorruptEpoch);  // Hold 1 -> 0: probe time.
  ASSERT_TRUE(breaker.WantsProbe());
  breaker.OnProbeResult(true);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.probes(), 1u);
  EXPECT_EQ(breaker.reopens(), 0u);
}

TEST(CircuitBreakerTest, FailedProbesDoubleTheHoldUpToTheCap) {
  CircuitBreaker breaker(TestBreakerConfig());
  breaker.Observe(kCorruptEpoch);
  breaker.Observe(kCorruptEpoch);
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);
  // Walk open -> half-open -> failed probe cycles; the hold doubles
  // 2, 4, 8, 8 (capped at max_open_epochs).
  for (const int expected_hold : {2, 4, 8, 8}) {
    for (int i = 0; i < expected_hold; ++i) {
      EXPECT_FALSE(breaker.WantsProbe()) << "hold " << expected_hold << " epoch " << i;
      breaker.Observe(kHealthyEpoch);
    }
    ASSERT_TRUE(breaker.WantsProbe()) << "hold " << expected_hold;
    breaker.OnProbeResult(false);
  }
  EXPECT_EQ(breaker.trips(), 1u);
  EXPECT_EQ(breaker.reopens(), 4u);
  // A healthy probe resets the hold so the next trip starts over at 2.
  for (int i = 0; i < 8; ++i) {
    breaker.Observe(kHealthyEpoch);
  }
  breaker.OnProbeResult(true);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  breaker.Observe(kCorruptEpoch);
  breaker.Observe(kCorruptEpoch);
  breaker.Observe(kHealthyEpoch);
  breaker.Observe(kHealthyEpoch);
  EXPECT_TRUE(breaker.WantsProbe());
}

TEST(CircuitBreakerTest, MissingProbeVerdictKeepsItHalfOpen) {
  CircuitBreaker breaker(TestBreakerConfig());
  breaker.Observe(kDeadEpoch);
  breaker.Observe(kDeadEpoch);
  breaker.Observe(kHealthyEpoch);
  breaker.Observe(kHealthyEpoch);
  ASSERT_TRUE(breaker.WantsProbe());
  breaker.Observe(kHealthyEpoch);  // No verdict arrived; stay half-open.
  EXPECT_TRUE(breaker.WantsProbe());
  EXPECT_EQ(breaker.probes(), 0u);
}

// Delivers every attempt and records what it carried.
class RecordingFaultModel : public TransportFaultModel {
 public:
  struct Attempt {
    MachineId src;
    MachineId dst;
    uint64_t request_bytes;
    uint64_t reply_bytes;
  };

  AttemptPlan OnAttempt(MachineId src, MachineId dst, uint64_t request_bytes,
                        uint64_t reply_bytes, double /*expected_seconds*/) override {
    attempts.push_back({src, dst, request_bytes, reply_bytes});
    return AttemptPlan{};
  }
  void AdvanceClock(double /*seconds*/) override {}
  double JitterUnit() override { return 0.0; }

  std::vector<Attempt> attempts;
};

TEST_F(MigratorTest, HalfOpenBreakerProbesWithFourRoundTripsOf256Bytes) {
  // A repartitioner whose wire health is scripted: two dead epochs trip
  // the breaker, healthy epochs run the hold down, and the epoch that
  // ends it probes the migration transport, the only traffic on it here.
  ConfigurationRecord config;
  config.mode = RuntimeMode::kDistributed;
  CoignRuntime runtime(&system_, config);
  OnlineOptions options;
  options.breaker = TestBreakerConfig();
  OnlineRepartitioner repartitioner(&system_, &runtime, IccProfile(),
                                    NetworkProfile::Exact(NetworkModel::TenBaseT()), options);
  TransportHealth health;
  repartitioner.SetTransportProbe([&health] { return health; });
  Transport transport(NetworkModel::TenBaseT());
  RecordingFaultModel recorder;
  transport.AttachFaults(&recorder);
  repartitioner.SetMigrationTransport(&transport, nullptr);

  for (int epoch = 0; epoch < 2; ++epoch) {
    health.calls += kDeadEpoch.calls;
    health.undelivered += kDeadEpoch.undelivered;
    ASSERT_TRUE(repartitioner.EndEpoch().ok());
  }
  ASSERT_EQ(repartitioner.breaker().state(), BreakerState::kOpen);
  ASSERT_TRUE(repartitioner.safe_mode());
  EXPECT_TRUE(recorder.attempts.empty());
  for (int epoch = 0; epoch < 8 && repartitioner.breaker().probes() == 0; ++epoch) {
    health.calls += kHealthyEpoch.calls;
    ASSERT_TRUE(repartitioner.EndEpoch().ok());
  }
  ASSERT_EQ(repartitioner.breaker().probes(), 1u);
  EXPECT_EQ(repartitioner.breaker().state(), BreakerState::kClosed);
  EXPECT_FALSE(repartitioner.safe_mode());

  // kBreakerProbeCalls round trips of kBreakerProbeBytes each way.
  ASSERT_EQ(recorder.attempts.size(), 4u);
  for (const RecordingFaultModel::Attempt& attempt : recorder.attempts) {
    EXPECT_EQ(attempt.src, kClientMachine);
    EXPECT_EQ(attempt.dst, kServerMachine);
    EXPECT_EQ(attempt.request_bytes, 256u);
    EXPECT_EQ(attempt.reply_bytes, 256u);
  }
}

// --- End to end: the closed loop on a real application ----------------------

// Profiles octarine in process and analyzes a shipped distribution — the
// base fixture the end-to-end tests start from. `ok` is false when any
// setup step failed (assert on it first).
struct OnlineFixture {
  std::unique_ptr<Application> app;
  IccProfile profile;
  NetworkModel network = NetworkModel::TenBaseT();
  NetworkProfile fitted;
  ConfigurationRecord config;
  bool ok = false;
};

OnlineFixture MakeOnlineFixture() {
  OnlineFixture fixture;
  fixture.app = MakeOctarine();

  // Profile text usage only, in-process (profiling-mode runtime).
  ObjectSystem profiling_system;
  if (!fixture.app->Install(&profiling_system).ok()) {
    return fixture;
  }
  ConfigurationRecord profiling_config;
  profiling_config.mode = RuntimeMode::kProfiling;
  CoignRuntime profiling_runtime(&profiling_system, profiling_config);
  Rng rng(17);
  for (const char* id : {"o_oldwp0", "o_oldwp3"}) {
    Result<Scenario> scenario = fixture.app->FindScenario(id);
    if (!scenario.ok() || !(profiling_runtime.BeginScenario(),
                            scenario->run(profiling_system, rng).ok())) {
      return fixture;
    }
    profiling_system.DestroyAll();
  }
  fixture.profile = profiling_runtime.profiling_logger()->profile();

  fixture.fitted = NetworkProfile::Exact(fixture.network);
  ProfileAnalysisEngine engine;
  Result<AnalysisResult> analysis = engine.Analyze(fixture.profile, fixture.fitted);
  if (!analysis.ok()) {
    return fixture;
  }
  fixture.config.mode = RuntimeMode::kDistributed;
  fixture.config.classifier_table = profiling_runtime.classifier().ExportDescriptors();
  fixture.config.distribution = analysis->distribution;
  fixture.ok = true;
  return fixture;
}

TEST(OnlineRepartitionIntegrationTest, AdaptiveRunRepartitionsUnderDrift) {
  OnlineFixture fixture = MakeOnlineFixture();
  ASSERT_TRUE(fixture.ok);
  std::unique_ptr<Application>& app = fixture.app;
  const IccProfile& profile = fixture.profile;
  const ConfigurationRecord& config = fixture.config;

  OnlineMeasurementOptions options;
  options.network = fixture.network;
  options.fitted = fixture.fitted;
  options.online.policy.min_window_messages = 50.0;

  // Usage drifts to table-heavy documents the profile never saw.
  const std::vector<OnlinePhase> workload =
      CyclicWorkload({"o_oldwp3", "o_mixed9"}, /*repetitions=*/2, /*cycles=*/2);
  Result<OnlineRunResult> adaptive =
      MeasureOnlineRun(*app, workload, config, profile, options);
  ASSERT_TRUE(adaptive.ok());
  EXPECT_EQ(adaptive->online.epochs, 8u);
  EXPECT_GE(adaptive->online.drift_flags, 1u);
  EXPECT_GE(adaptive->online.repartitions, 1u);
  // Every repartition either migrated live state or adopted lazily.
  EXPECT_LE(adaptive->online.lazy_adoptions, adaptive->online.repartitions);

  // The same workload without adaptation pays more communication.
  OnlineMeasurementOptions static_options = options;
  static_options.adaptive = false;
  Result<OnlineRunResult> fixed =
      MeasureOnlineRun(*app, workload, config, profile, static_options);
  ASSERT_TRUE(fixed.ok());
  EXPECT_LT(adaptive->run.communication_seconds, fixed->run.communication_seconds);
}

TEST(OnlineRepartitionIntegrationTest, BreakerDegradesToLocalAndRepromotes) {
  OnlineFixture fixture = MakeOnlineFixture();
  ASSERT_TRUE(fixture.ok);

  OnlineMeasurementOptions options;
  options.network = fixture.network;
  options.fitted = fixture.fitted;
  options.online.policy.min_window_messages = 50.0;
  const std::vector<OnlinePhase> workload =
      CyclicWorkload({"o_oldwp3", "o_mixed9"}, /*repetitions=*/2, /*cycles=*/3);

  // The fault-free adaptive run sizes the horizon and fixes the partition
  // a poisoned wire must not be able to steer the run away from.
  Result<OnlineRunResult> clean =
      MeasureOnlineRun(*fixture.app, workload, fixture.config, fixture.profile, options);
  ASSERT_TRUE(clean.ok());
  const double horizon = clean->run.execution_seconds;

  // Heavy symmetric corruption over the middle of the run, with clean head
  // and tail stretches so both the trip and the re-promotion land inside.
  FaultEpisode burst;
  burst.kind = FaultKind::kCorruptBurst;
  burst.start_seconds = horizon * 0.1;
  burst.duration_seconds = horizon * 0.4;
  burst.gilbert = {0.0, 0.0, 0.9, 0.9};
  burst.magnitude = 0.9;
  FaultInjector injector(FaultSchedule::FromEpisodes({burst}), FaultRates{}, 5);

  OnlineMeasurementOptions faulted = options;
  faulted.faults = &injector;
  faulted.retry = SuggestedRetryPolicy(fixture.network);
  faulted.online.quarantine.enabled = true;
  faulted.online.breaker.enabled = true;
  // The scripted burst concentrates in few epochs, so trip on the first
  // bad one and probe after a single held epoch — the test exercises the
  // full trip -> degrade -> probe -> re-promote arc, not the default
  // tuning's patience.
  faulted.online.breaker.trip_after = 1;
  faulted.online.breaker.open_epochs = 3;
  Result<OnlineRunResult> hardened =
      MeasureOnlineRun(*fixture.app, workload, fixture.config, fixture.profile, faulted);
  ASSERT_TRUE(hardened.ok());

  // The checksummed wire bounced the poison instead of consuming it...
  EXPECT_GT(hardened->transport.corrupt_rejected, 0u);
  EXPECT_EQ(hardened->transport.corrupt_consumed, 0u);
  // ...the breaker opened, the run degraded to the all-local plan, and the
  // healed tail re-promoted the distributed plan.
  EXPECT_GE(hardened->online.breaker_trips, 1u);
  EXPECT_GE(hardened->online.safe_mode_entries, 1u);
  EXPECT_GE(hardened->online.safe_mode_exits, 1u);
  EXPECT_GT(hardened->online.safe_mode_epochs, 0u);
  // End-to-end integrity: the run ends on the same partition the
  // fault-free adaptive run ends on.
  EXPECT_EQ(hardened->final_distribution.placement,
            clean->final_distribution.placement);
  EXPECT_EQ(hardened->final_distribution.default_machine,
            clean->final_distribution.default_machine);
}

}  // namespace
}  // namespace coign
