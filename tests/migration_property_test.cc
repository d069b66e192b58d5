// Property tests for crash-consistent live migration: across 200+ seeded
// fault schedules and arbitrary crash interruption points, the journaled
// two-phase migrator plus crash recovery must keep every classified
// instance resident on exactly one machine — the machine the journal's
// last word for it names. Never double-resident, never lost, and a
// fault-free resume always finishes the job.
//
// Violations shrink along the schedule-episode axis (reusing the
// fault_generators shrinking harness; episode shrinking is heuristic, so
// candidates are re-verified) and print a minimal repro. A deliberately
// planted violation — a residency flip behind the journal's back, the
// exact bug the non-journaled migrator had — proves the checker and the
// shrinker actually fire.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/apps/component_library.h"
#include "src/com/object_system.h"
#include "src/fault/injector.h"
#include "src/graph/distribution.h"
#include "src/net/transport.h"
#include "src/online/migration_journal.h"
#include "src/online/migrator.h"
#include "src/support/rng.h"
#include "src/support/str_util.h"
#include "tests/fault_generators.h"

namespace coign {
namespace {

using testing::GenBackground;
using testing::GenFaultOptions;
using testing::GenRetryPolicy;
using testing::SmallestFailingPrefix;

// Instances cycle through three classifications; the resolver is pure so
// every run of a case sees identical move sets.
ClassificationId ClassOf(InstanceId id) {
  return static_cast<ClassificationId>(1 + (id % 3));
}

// A minimal live system: `count` scripted Echo instances, all born on the
// client machine (the fixture idiom of online_repartition_test.cc).
class EchoFixture {
 public:
  explicit EchoFixture(int count) {
    Status registered = system_.interfaces().Register(InterfaceBuilder("IEcho")
                                                          .Method("Echo")
                                                          .In("x", ValueKind::kInt32)
                                                          .Out("x", ValueKind::kInt32)
                                                          .Build());
    EXPECT_TRUE(registered.ok());
    const InterfaceId iid = system_.interfaces().LookupByName("IEcho")->iid;
    handlers_.Set(iid, 0, [](ScriptedComponent& self, const Message& in, Message* out) {
      (void)self;
      out->Add("x", Value::FromInt32(in.Find("x")->AsInt32()));
      return Status::Ok();
    });
    EXPECT_TRUE(RegisterScriptedClass(&system_, "Echo", {iid}, kApiNone, &handlers_).ok());
    for (int i = 0; i < count; ++i) {
      EXPECT_TRUE(system_.CreateInstanceByName("Echo", "IEcho").ok());
    }
  }

  ObjectSystem& system() { return system_; }

 private:
  ObjectSystem system_;
  HandlerTable handlers_;
};

// One generated migration-under-crash case, fully determined by (seed,
// episode_limit). episode_limit < 0 keeps the whole generated schedule;
// smaller values truncate it (the shrink axis).
struct MigrationCase {
  uint64_t seed = 0;
  int episode_limit = -1;
  // Test hook: after recovery, flip one instance's residency behind the
  // journal's back — the planted violation the checker must catch.
  bool plant_violation = false;
};

struct CaseOutcome {
  std::string violation;       // Empty = every invariant held.
  std::string journal_text;    // Serialized journal (replay comparisons).
  MachineId final_machine_of_first = kClientMachine;
  uint64_t wasted_bytes = 0;
  uint64_t duplicates_suppressed = 0;
  bool interrupted = false;
};

// Expected home of an instance after Migrate + Recover: the journal's
// last word, or the birth machine if it was never journaled.
MachineId ExpectedHome(const MigrationJournal& journal, InstanceId id) {
  const MigrationRecord* last = journal.LastFor(id);
  if (last == nullptr) {
    return kClientMachine;
  }
  return last->phase == MigrationPhase::kCommitted ? last->to : last->from;
}

CaseOutcome RunMigrationCase(const MigrationCase& c) {
  CaseOutcome outcome;
  Rng rng(c.seed * 0x9e3779b97f4a7c15ull + 1);

  // Generated environment: schedule (Gilbert-Elliott, asymmetric episodes,
  // partitions, crashes included by default), background loss, retries.
  RandomFaultOptions fault_options = GenFaultOptions(rng);
  FaultSchedule schedule = FaultSchedule::Random(fault_options, c.seed);
  if (c.episode_limit >= 0 &&
      c.episode_limit < static_cast<int>(schedule.episodes().size())) {
    std::vector<FaultEpisode> kept(schedule.episodes().begin(),
                                   schedule.episodes().begin() + c.episode_limit);
    schedule = FaultSchedule::FromEpisodes(std::move(kept));
  }
  const FaultRates background = GenBackground(rng);
  const NetworkModel model = NetworkModel::TenBaseT();
  RetryPolicy retry = GenRetryPolicy(rng, model);

  const int instance_count = static_cast<int>(rng.UniformInt(4, 10));
  Distribution target;
  for (ClassificationId cls = 1; cls <= 3; ++cls) {
    target.placement[cls] = rng.Bernoulli(0.6) ? kServerMachine : kClientMachine;
  }
  // The crash lands before an arbitrary protocol step (up to 4 gate
  // consultations per moved instance; larger = no crash at all).
  const int gate_step = static_cast<int>(rng.UniformInt(0, 4 * instance_count + 2));

  EchoFixture fixture(instance_count);
  ObjectSystem& system = fixture.system();

  FaultInjector injector(schedule, background, c.seed ^ 0x5bd1e995ull);
  Transport transport(model);
  transport.AttachFaults(&injector);
  transport.SetRetryPolicy(retry);

  MigrationOptions options;
  options.state_bytes_per_instance = 2048;
  LiveMigrator migrator(options, ClassOf);
  int steps = 0;
  bool fired = false;
  migrator.SetCrashGate([&]() {
    if (!fired && steps++ == gate_step) {
      fired = true;
      return true;
    }
    return false;
  });

  MigrationJournal journal;
  Result<MigrationReport> report =
      migrator.Migrate(system, target, journal, transport, nullptr);
  if (!report.ok()) {
    outcome.violation = "migrate error: " + report.status().ToString();
    return outcome;
  }
  outcome.interrupted = report->interrupted;
  outcome.wasted_bytes = report->wasted_bytes;
  outcome.duplicates_suppressed = report->duplicates_suppressed;
  outcome.journal_text = journal.Serialize();

  // Crash recovery from the journal, as a restarted coordinator would.
  Result<RecoveryReport> recovered = LiveMigrator::Recover(system, journal);
  if (!recovered.ok()) {
    outcome.violation = "recover error: " + recovered.status().ToString();
    return outcome;
  }
  outcome.wasted_bytes += recovered->wasted_bytes;

  if (c.plant_violation && !system.LiveInstances().empty()) {
    // The legacy bug, reintroduced deliberately: flip residency with no
    // journal record backing it.
    const ObjectSystem::InstanceInfo first = system.LiveInstances().front();
    const MachineId wrong =
        ExpectedHome(journal, first.id) == kClientMachine ? kServerMachine
                                                          : kClientMachine;
    (void)system.MoveInstance(first.id, wrong);
  }

  // Invariant 1: every instance sits on exactly the machine the journal's
  // last word names — committed => destination, anything else => source.
  for (const ObjectSystem::InstanceInfo& info : system.LiveInstances()) {
    if (info.machine != kClientMachine && info.machine != kServerMachine) {
      outcome.violation = StrFormat("instance %llu on invalid machine %d",
                                    static_cast<unsigned long long>(info.id),
                                    info.machine);
      return outcome;
    }
    const MachineId expected = ExpectedHome(journal, info.id);
    if (info.machine != expected) {
      const MigrationRecord* last = journal.LastFor(info.id);
      outcome.violation = StrFormat(
          "instance %llu resident on m%d but journal says m%d (last record: %s)",
          static_cast<unsigned long long>(info.id), info.machine, expected,
          last != nullptr ? last->ToString().c_str() : "none");
      return outcome;
    }
  }

  // Invariant 2: recovery is idempotent — a second crash-restart replaying
  // the same journal must not move anything.
  Result<RecoveryReport> again = LiveMigrator::Recover(system, journal);
  if (!again.ok()) {
    outcome.violation = "second recover error: " + again.status().ToString();
    return outcome;
  }
  for (const ObjectSystem::InstanceInfo& info : system.LiveInstances()) {
    if (info.machine != ExpectedHome(journal, info.id)) {
      outcome.violation = StrFormat("recover not idempotent for instance %llu",
                                    static_cast<unsigned long long>(info.id));
      return outcome;
    }
  }

  // Invariant 3: a fault-free resume finishes the job — every classified
  // instance ends at its target machine, none lost along the way.
  Transport clean(model);
  MigrationJournal resume_journal;
  LiveMigrator resume(options, ClassOf);
  Result<MigrationReport> finished =
      resume.Migrate(system, target, resume_journal, clean, nullptr);
  if (!finished.ok()) {
    outcome.violation = "fault-free resume error: " + finished.status().ToString();
    return outcome;
  }
  if (!finished->complete) {
    outcome.violation = "fault-free resume did not complete";
    return outcome;
  }
  for (const ObjectSystem::InstanceInfo& info : system.LiveInstances()) {
    const MachineId want = target.MachineFor(ClassOf(info.id));
    if (info.machine != want) {
      outcome.violation = StrFormat(
          "after fault-free resume instance %llu on m%d, target says m%d",
          static_cast<unsigned long long>(info.id), info.machine, want);
      return outcome;
    }
  }

  if (!system.LiveInstances().empty()) {
    outcome.final_machine_of_first = system.LiveInstances().front().machine;
  }
  return outcome;
}

// Shrinks a failing case along the episode axis and renders the minimal
// repro. Episode shrinking is heuristic (dropping later episodes changes
// what the survivors meet), so the candidate is re-verified and the full
// schedule kept if the truncation no longer fails.
std::string MinimalReproReport(const MigrationCase& failing) {
  Rng rng(failing.seed * 0x9e3779b97f4a7c15ull + 1);
  const FaultSchedule schedule =
      FaultSchedule::Random(GenFaultOptions(rng), failing.seed);
  const int episode_count = static_cast<int>(schedule.episodes().size());

  MigrationCase candidate = failing;
  if (episode_count > 0) {
    const int least = SmallestFailingPrefix(episode_count, [&](int n) {
      MigrationCase probe = failing;
      probe.episode_limit = n;
      return !RunMigrationCase(probe).violation.empty();
    });
    MigrationCase probe = failing;
    probe.episode_limit = least;
    if (!RunMigrationCase(probe).violation.empty()) {
      candidate = probe;
    }
  }

  const CaseOutcome outcome = RunMigrationCase(candidate);
  std::string report = StrFormat(
      "minimal repro: seed=%llu episodes=%d (of %d)\n  violation: %s\n",
      static_cast<unsigned long long>(candidate.seed),
      candidate.episode_limit < 0 ? episode_count : candidate.episode_limit,
      episode_count, outcome.violation.c_str());
  report += "  journal:\n";
  for (const std::string& line : {outcome.journal_text}) {
    report += "    " + line;
  }
  return report;
}

// --- The property: 210 seeded schedules, arbitrary interruption ------------

TEST(MigrationPropertyTest, ResidencyInvariantHoldsAcrossSeededCrashSchedules) {
  const int kSchedules = 210;
  int interrupted_cases = 0;
  uint64_t total_dedup = 0;
  for (uint64_t seed = 1; seed <= kSchedules; ++seed) {
    MigrationCase c;
    c.seed = seed;
    const CaseOutcome outcome = RunMigrationCase(c);
    if (!outcome.violation.empty()) {
      const std::string repro = MinimalReproReport(c);
      std::fprintf(stderr, "%s\n", repro.c_str());
      FAIL() << "seed " << seed << ": " << outcome.violation << "\n" << repro;
    }
    interrupted_cases += outcome.interrupted ? 1 : 0;
    total_dedup += outcome.duplicates_suppressed;
  }
  // The population must actually exercise the crash path, not skate by on
  // uninterrupted runs.
  EXPECT_GT(interrupted_cases, kSchedules / 10);
  // And the copy phase must have deduplicated at least some retries.
  EXPECT_GT(total_dedup, 0u);
}

TEST(MigrationPropertyTest, CasesReplayBitForBitPerSeed) {
  for (uint64_t seed : {3ull, 17ull, 101ull}) {
    MigrationCase c;
    c.seed = seed;
    const CaseOutcome a = RunMigrationCase(c);
    const CaseOutcome b = RunMigrationCase(c);
    EXPECT_EQ(a.journal_text, b.journal_text) << "seed " << seed;
    EXPECT_EQ(a.wasted_bytes, b.wasted_bytes) << "seed " << seed;
    EXPECT_EQ(a.final_machine_of_first, b.final_machine_of_first) << "seed " << seed;
  }
}

TEST(MigrationPropertyTest, PlantedViolationIsCaughtAndShrunk) {
  // Find a seed whose run interrupts mid-protocol, plant the unjournaled
  // flip, and demand the checker names it and the shrinker prints a
  // minimal repro — proof the harness detects the bug class it guards
  // against.
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    MigrationCase honest;
    honest.seed = seed;
    const CaseOutcome clean_run = RunMigrationCase(honest);
    if (clean_run.violation.empty() && !clean_run.interrupted) {
      continue;  // Want a case where the crash actually fired.
    }
    MigrationCase planted = honest;
    planted.plant_violation = true;
    const CaseOutcome outcome = RunMigrationCase(planted);
    ASSERT_FALSE(outcome.violation.empty())
        << "seed " << seed << ": unjournaled flip went undetected";
    EXPECT_NE(outcome.violation.find("journal says"), std::string::npos)
        << outcome.violation;
    const std::string repro = MinimalReproReport(planted);
    EXPECT_NE(repro.find("minimal repro"), std::string::npos);
    EXPECT_NE(repro.find("violation"), std::string::npos);
    std::printf("planted-violation repro (seed %llu):\n%s\n",
                static_cast<unsigned long long>(seed), repro.c_str());
    return;
  }
  FAIL() << "no seed in 1..64 produced an interrupted migration";
}

// --- Deterministic protocol-step coverage ----------------------------------

// With a clean wire and one instance to move, the gate consultations are:
// step 0 before the intent record, 1 before prepared, 2 before committed,
// 3 before the residency flip. Each landing point must recover to the
// phase-correct home.
struct StepCase {
  int gate_step;
  MachineId expected_home_after_recovery;
};

TEST(JournaledMigratorTest, EveryCrashPointRecoversToThePhaseCorrectHome) {
  const std::vector<StepCase> cases = {
      {0, kClientMachine},  // Nothing journaled: stays put.
      {1, kClientMachine},  // Intent only: rolled back.
      {2, kClientMachine},  // Prepared: copy acked but uncommitted — rolled back.
      {3, kServerMachine},  // Committed: crash before the flip — redone.
      {4, kServerMachine},  // No crash: moved normally.
  };
  for (const StepCase& step : cases) {
    EchoFixture fixture(1);
    ObjectSystem& system = fixture.system();
    Transport transport(NetworkModel::TenBaseT());
    Distribution target;
    for (ClassificationId cls = 1; cls <= 3; ++cls) {
      target.placement[cls] = kServerMachine;
    }
    LiveMigrator migrator(MigrationOptions{}, ClassOf);
    int steps = 0;
    migrator.SetCrashGate([&]() { return steps++ == step.gate_step; });

    MigrationJournal journal;
    Result<MigrationReport> report =
        migrator.Migrate(system, target, journal, transport, nullptr);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->interrupted, step.gate_step < 4) << "step " << step.gate_step;

    Result<RecoveryReport> recovered = LiveMigrator::Recover(system, journal);
    ASSERT_TRUE(recovered.ok());
    ASSERT_EQ(system.LiveInstances().size(), 1u);
    EXPECT_EQ(system.LiveInstances()[0].machine, step.expected_home_after_recovery)
        << "crash at gate step " << step.gate_step;
  }
}

TEST(JournaledMigratorTest, FaultFreeJournaledPathMatchesTheMoveSet) {
  EchoFixture fixture(6);
  ObjectSystem& system = fixture.system();
  Transport transport(NetworkModel::TenBaseT());
  Distribution target;
  target.placement[1] = kServerMachine;  // Instances with id % 3 == 0.
  target.placement[2] = kClientMachine;
  target.placement[3] = kServerMachine;

  MigrationOptions options;
  options.state_bytes_per_instance = 1024;
  LiveMigrator migrator(options, ClassOf);
  MigrationJournal journal;
  Result<MigrationReport> report =
      migrator.Migrate(system, target, journal, transport, nullptr);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->complete);
  EXPECT_FALSE(report->interrupted);
  EXPECT_EQ(report->wasted_bytes, 0u);
  EXPECT_EQ(report->bytes_transferred, report->instances_moved * 1024u);
  // Three journal records per moved instance: intent, prepared, committed.
  EXPECT_EQ(journal.size(), report->instances_moved * 3);
  EXPECT_TRUE(journal.InFlight().empty());
  for (const ObjectSystem::InstanceInfo& info : system.LiveInstances()) {
    EXPECT_EQ(info.machine, target.MachineFor(ClassOf(info.id)));
  }
}

// --- Journal unit coverage --------------------------------------------------

TEST(MigrationJournalTest, SerializeParseRoundTripsExactly) {
  MigrationJournal journal;
  MigrationRecord record;
  record.instance = 42;
  record.from = kClientMachine;
  record.to = kServerMachine;
  record.state_bytes = 4096;
  record.phase = MigrationPhase::kIntent;
  journal.Append(record);
  record.phase = MigrationPhase::kPrepared;
  journal.Append(record);
  record.instance = 7;
  record.phase = MigrationPhase::kRolledBack;
  journal.Append(record);

  const std::string text = journal.Serialize();
  Result<MigrationJournal> parsed = MigrationJournal::Parse(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Serialize(), text);
  ASSERT_EQ(parsed->size(), 3u);
  EXPECT_EQ(parsed->LastFor(42)->phase, MigrationPhase::kPrepared);
  EXPECT_EQ(parsed->LastFor(7)->phase, MigrationPhase::kRolledBack);

  EXPECT_FALSE(MigrationJournal::Parse("nonsense").ok());
  EXPECT_FALSE(MigrationJournal::Parse("migration-journal v1\nrec bogus 1 0 1 2\n").ok());
}

TEST(MigrationJournalTest, InFlightIsTheLastWordOnly) {
  MigrationJournal journal;
  MigrationRecord record;
  record.instance = 1;
  record.phase = MigrationPhase::kIntent;
  journal.Append(record);
  record.instance = 2;
  journal.Append(record);
  record.instance = 1;
  record.phase = MigrationPhase::kCommitted;
  journal.Append(record);

  const std::vector<MigrationRecord> in_flight = journal.InFlight();
  ASSERT_EQ(in_flight.size(), 1u);  // 1 committed; only 2 still in flight.
  EXPECT_EQ(in_flight[0].instance, 2u);
  EXPECT_EQ(journal.LastFor(1)->phase, MigrationPhase::kCommitted);
  EXPECT_EQ(journal.LastFor(99), nullptr);
}

}  // namespace
}  // namespace coign
