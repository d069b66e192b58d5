// Unit tests for the fault-injection layer: schedule queries and seeded
// generation, the injector's per-episode behaviors, and the hardened
// transport's retry/backoff/timeout accounting.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/fault/fault_schedule.h"
#include "src/fault/injector.h"
#include "src/net/transport.h"
#include "src/online/episode_detector.h"

namespace coign {
namespace {

FaultEpisode Episode(FaultKind kind, double start, double duration, double magnitude,
                     MachineId machine = kAnyMachine) {
  FaultEpisode episode;
  episode.kind = kind;
  episode.start_seconds = start;
  episode.duration_seconds = duration;
  episode.machine = machine;
  episode.magnitude = magnitude;
  return episode;
}

TEST(FaultScheduleTest, ActiveEpisodeRespectsTimeWindow) {
  FaultSchedule schedule = FaultSchedule::FromEpisodes(
      {Episode(FaultKind::kLatencySpike, 1.0, 2.0, 4.0)});
  EXPECT_EQ(schedule.ActiveEpisode(FaultKind::kLatencySpike, 0.5, 0, 1), nullptr);
  ASSERT_NE(schedule.ActiveEpisode(FaultKind::kLatencySpike, 1.5, 0, 1), nullptr);
  EXPECT_DOUBLE_EQ(
      schedule.ActiveEpisode(FaultKind::kLatencySpike, 1.5, 0, 1)->magnitude, 4.0);
  // End is exclusive.
  EXPECT_EQ(schedule.ActiveEpisode(FaultKind::kLatencySpike, 3.0, 0, 1), nullptr);
}

TEST(FaultScheduleTest, OverlappingEpisodesDegradeToStrongest) {
  FaultSchedule schedule = FaultSchedule::FromEpisodes(
      {Episode(FaultKind::kLatencySpike, 0.0, 10.0, 2.0),
       Episode(FaultKind::kLatencySpike, 1.0, 2.0, 6.0)});
  EXPECT_DOUBLE_EQ(
      schedule.ActiveEpisode(FaultKind::kLatencySpike, 1.5, 0, 1)->magnitude, 6.0);
  EXPECT_DOUBLE_EQ(
      schedule.ActiveEpisode(FaultKind::kLatencySpike, 5.0, 0, 1)->magnitude, 2.0);
}

TEST(FaultScheduleTest, MachineTargetingLimitsBlastRadius) {
  FaultSchedule schedule = FaultSchedule::FromEpisodes(
      {Episode(FaultKind::kPartition, 0.0, 5.0, 1.0, /*machine=*/1)});
  EXPECT_NE(schedule.ActiveEpisode(FaultKind::kPartition, 1.0, 0, 1), nullptr);
  EXPECT_NE(schedule.ActiveEpisode(FaultKind::kPartition, 1.0, 1, 2), nullptr);
  EXPECT_EQ(schedule.ActiveEpisode(FaultKind::kPartition, 1.0, 0, 2), nullptr);
}

TEST(FaultScheduleTest, RandomIsDeterministicPerSeed) {
  RandomFaultOptions options;
  options.horizon_seconds = 20.0;
  options.episodes_per_kind = 2.0;
  const FaultSchedule a = FaultSchedule::Random(options, 42);
  const FaultSchedule b = FaultSchedule::Random(options, 42);
  const FaultSchedule c = FaultSchedule::Random(options, 43);
  EXPECT_EQ(a.ToString(), b.ToString());
  EXPECT_NE(a.ToString(), c.ToString());
}

TEST(FaultScheduleTest, RandomEpisodesStayInHorizonSortedByStart) {
  RandomFaultOptions options;
  options.horizon_seconds = 10.0;
  options.episodes_per_kind = 3.0;
  const FaultSchedule schedule = FaultSchedule::Random(options, 7);
  double last_start = 0.0;
  for (const FaultEpisode& episode : schedule.episodes()) {
    EXPECT_GE(episode.start_seconds, 0.0);
    EXPECT_LE(episode.start_seconds, options.horizon_seconds);
    EXPECT_GE(episode.start_seconds, last_start);
    EXPECT_GT(episode.duration_seconds, 0.0);
    last_start = episode.start_seconds;
  }
}

TEST(FaultInjectorTest, BackgroundDropRateIsRoughlyHonored) {
  FaultRates background;
  background.drop = 0.25;
  FaultInjector injector(FaultSchedule(), background, 11);
  int drops = 0;
  const int kAttempts = 4000;
  for (int i = 0; i < kAttempts; ++i) {
    if (!injector.OnAttempt(0, 1, 100, 100, 0.0).delivered) {
      ++drops;
    }
  }
  EXPECT_NEAR(static_cast<double>(drops) / kAttempts, 0.25, 0.03);
  EXPECT_EQ(injector.stats().attempts, static_cast<uint64_t>(kAttempts));
  EXPECT_EQ(injector.stats().drops, static_cast<uint64_t>(drops));
}

TEST(FaultInjectorTest, PartitionDropsEverythingWhileActive) {
  FaultSchedule schedule = FaultSchedule::FromEpisodes(
      {Episode(FaultKind::kPartition, 0.0, 1.0, 1.0)});
  FaultInjector injector(schedule, FaultRates{}, 3);
  EXPECT_FALSE(injector.OnAttempt(0, 1, 10, 10, 0.0).delivered);
  injector.AdvanceClock(2.0);  // Past the episode.
  EXPECT_TRUE(injector.OnAttempt(0, 1, 10, 10, 0.0).delivered);
}

TEST(FaultInjectorTest, CrashChargesRestartPenaltyExactlyOnce) {
  FaultSchedule schedule = FaultSchedule::FromEpisodes(
      {Episode(FaultKind::kCrashRestart, 0.0, 1.0, 0.5, /*machine=*/1)});
  FaultInjector injector(schedule, FaultRates{}, 3);
  EXPECT_FALSE(injector.OnAttempt(0, 1, 10, 10, 0.0).delivered);  // Machine down.
  injector.AdvanceClock(2.0);
  const AttemptPlan first = injector.OnAttempt(0, 1, 10, 10, 0.0);
  EXPECT_TRUE(first.delivered);
  EXPECT_DOUBLE_EQ(first.extra_seconds, 0.5);  // Restart penalty, once.
  const AttemptPlan second = injector.OnAttempt(0, 1, 10, 10, 0.0);
  EXPECT_DOUBLE_EQ(second.extra_seconds, 0.0);
  EXPECT_EQ(injector.stats().restart_penalties, 1u);
}

TEST(FaultInjectorTest, ScalesComeFromActiveEpisodes) {
  FaultSchedule schedule = FaultSchedule::FromEpisodes(
      {Episode(FaultKind::kLatencySpike, 0.0, 1.0, 5.0),
       Episode(FaultKind::kBandwidthDrop, 0.0, 1.0, 3.0)});
  FaultInjector injector(schedule, FaultRates{}, 3);
  const AttemptPlan plan = injector.OnAttempt(0, 1, 10, 10, 0.0);
  EXPECT_DOUBLE_EQ(plan.latency_scale, 5.0);
  EXPECT_DOUBLE_EQ(plan.bandwidth_scale, 3.0);
  EXPECT_FALSE(plan.clean());
}

TEST(FaultScheduleTest, FaultKindNamesAreDistinctAndCoverEveryKind) {
  EXPECT_EQ(FaultKindName(FaultKind::kDropBurst), "drop-burst");
  EXPECT_EQ(FaultKindName(FaultKind::kGilbertElliott), "gilbert-elliott");
  EXPECT_EQ(FaultKindName(FaultKind::kCorruptBurst), "corrupt-burst");
  // An episode renders its chain parameters — corrupt bursts are bursty.
  FaultEpisode episode = Episode(FaultKind::kCorruptBurst, 0.0, 1.0, 0.5);
  EXPECT_NE(episode.ToString().find("corrupt-burst"), std::string::npos);
  EXPECT_NE(episode.ToString().find("ge{"), std::string::npos);
}

TEST(FaultScheduleTest, CrashStormCorruptionIsOptIn) {
  CrashStormOptions options;
  const FaultSchedule legacy = FaultSchedule::CrashStorm(options, 5);
  EXPECT_EQ(legacy.ToString().find("corrupt-burst"), std::string::npos);
  options.corruption_rate = 0.3;
  const FaultSchedule corrupt = FaultSchedule::CrashStorm(options, 5);
  EXPECT_NE(corrupt.ToString().find("corrupt-burst"), std::string::npos);
  // The corruption regimes extend the legacy schedule; they never perturb
  // the episodes older seeds already rely on.
  for (const FaultEpisode& episode : legacy.episodes()) {
    EXPECT_NE(corrupt.ToString().find(episode.ToString()), std::string::npos)
        << episode.ToString();
  }
}

// A corrupt episode that damages every covered attempt: both chain states
// corrupt at rate 1, so the Gilbert-Elliott walk cannot save a payload.
FaultEpisode AlwaysCorrupt(double start, double duration) {
  FaultEpisode episode = Episode(FaultKind::kCorruptBurst, start, duration, 1.0);
  episode.gilbert.loss_good = 1.0;
  episode.gilbert.loss_bad = 1.0;
  return episode;
}

TEST(ReliableRoundTripTest, ChecksummedWireRejectsEveryCorruptAttempt) {
  FaultSchedule schedule = FaultSchedule::FromEpisodes({AlwaysCorrupt(0.0, 100.0)});
  FaultInjector injector(schedule, FaultRates{}, 5);
  Transport transport(NetworkModel::TenBaseT());
  transport.AttachFaults(&injector);
  RetryPolicy policy;
  policy.max_attempts = 4;
  transport.SetRetryPolicy(policy);

  const DeliveryReceipt receipt = transport.ReliableRoundTrip(0, 1, 100, 100, nullptr);
  EXPECT_FALSE(receipt.delivered);
  EXPECT_TRUE(receipt.faulted);
  EXPECT_EQ(receipt.attempts, 4);
  EXPECT_EQ(receipt.corrupt_rejected, 4u);
  EXPECT_EQ(receipt.corrupt_consumed, 0u);
  // Detection is active: rejected attempts pay for crossed bytes, never
  // for a timeout.
  EXPECT_GT(receipt.payload_seconds, 0.0);
  EXPECT_LT(receipt.seconds, policy.timeout_seconds);
}

TEST(ReliableRoundTripTest, CorruptEpisodeEndHealsTheRetry) {
  // The episode is shorter than one rejected attempt's wire time, so the
  // first attempt is damaged and the retry lands after the burst.
  FaultSchedule schedule = FaultSchedule::FromEpisodes({AlwaysCorrupt(0.0, 1e-9)});
  FaultInjector injector(schedule, FaultRates{}, 5);
  Transport transport(NetworkModel::TenBaseT());
  transport.AttachFaults(&injector);

  const DeliveryReceipt receipt = transport.ReliableRoundTrip(0, 1, 100, 100, nullptr);
  EXPECT_TRUE(receipt.delivered);
  EXPECT_EQ(receipt.attempts, 2);
  EXPECT_EQ(receipt.corrupt_rejected, 1u);
  EXPECT_EQ(receipt.corrupt_consumed, 0u);
}

TEST(ReliableRoundTripTest, NaiveWireConsumesThePoison) {
  FaultSchedule schedule = FaultSchedule::FromEpisodes({AlwaysCorrupt(0.0, 100.0)});
  FaultInjector injector(schedule, FaultRates{}, 5);
  Transport transport(NetworkModel::TenBaseT());
  transport.AttachFaults(&injector);
  transport.SetChecksums(false);

  const DeliveryReceipt receipt = transport.ReliableRoundTrip(0, 1, 100, 100, nullptr);
  EXPECT_TRUE(receipt.delivered);  // "Delivered" — the caller got garbage.
  EXPECT_TRUE(receipt.faulted);
  EXPECT_EQ(receipt.attempts, 1);
  EXPECT_EQ(receipt.corrupt_consumed, 1u);
  EXPECT_EQ(receipt.corrupt_rejected, 0u);
}

TEST(ReliableRoundTripTest, CleanPathMatchesExpectedTime) {
  Transport transport(NetworkModel::TenBaseT());
  const DeliveryReceipt receipt = transport.ReliableRoundTrip(0, 1, 100, 200, nullptr);
  EXPECT_TRUE(receipt.delivered);
  EXPECT_FALSE(receipt.faulted);
  EXPECT_EQ(receipt.attempts, 1);
  EXPECT_DOUBLE_EQ(receipt.seconds, transport.ExpectedRoundTripSeconds(100, 200));
  EXPECT_DOUBLE_EQ(receipt.seconds,
                   receipt.latency_seconds + receipt.payload_seconds);
}

TEST(ReliableRoundTripTest, RetryBudgetBoundsAttempts) {
  FaultSchedule schedule = FaultSchedule::FromEpisodes(
      {Episode(FaultKind::kPartition, 0.0, 100.0, 1.0)});
  FaultInjector injector(schedule, FaultRates{}, 5);
  Transport transport(NetworkModel::TenBaseT());
  transport.AttachFaults(&injector);
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.timeout_seconds = 0.01;
  policy.backoff_initial_seconds = 0.002;
  policy.backoff_jitter = 0.0;
  transport.SetRetryPolicy(policy);

  const DeliveryReceipt receipt = transport.ReliableRoundTrip(0, 1, 100, 100, nullptr);
  EXPECT_FALSE(receipt.delivered);
  EXPECT_TRUE(receipt.faulted);
  EXPECT_EQ(receipt.attempts, 3);
  // 3 timeouts + 2 backoffs (0.002, then 0.004), no jitter.
  EXPECT_NEAR(receipt.seconds, 3 * 0.01 + 0.002 + 0.004, 1e-12);
  EXPECT_DOUBLE_EQ(receipt.payload_seconds, 0.0);  // Nothing was delivered.
}

TEST(ReliableRoundTripTest, BackoffIsCappedAndClockAdvances) {
  FaultSchedule schedule = FaultSchedule::FromEpisodes(
      {Episode(FaultKind::kPartition, 0.0, 100.0, 1.0)});
  FaultInjector injector(schedule, FaultRates{}, 5);
  Transport transport(NetworkModel::TenBaseT());
  transport.AttachFaults(&injector);
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.timeout_seconds = 0.01;
  policy.backoff_initial_seconds = 0.02;
  policy.backoff_multiplier = 10.0;
  policy.backoff_max_seconds = 0.05;  // Caps the 3rd/4th waits.
  policy.backoff_jitter = 0.0;
  transport.SetRetryPolicy(policy);

  const DeliveryReceipt receipt = transport.ReliableRoundTrip(0, 1, 100, 100, nullptr);
  EXPECT_EQ(receipt.attempts, 5);
  // 5 timeouts + waits 0.02, then capped 0.05 x3.
  EXPECT_NEAR(receipt.seconds, 5 * 0.01 + 0.02 + 3 * 0.05, 1e-12);
  // The injector's clock saw every modeled second.
  EXPECT_NEAR(injector.now_seconds(), receipt.seconds, 1e-12);
}

TEST(ReliableRoundTripTest, LatencySpikeScalesOnlyTheLatencyShare) {
  FaultSchedule schedule = FaultSchedule::FromEpisodes(
      {Episode(FaultKind::kLatencySpike, 0.0, 100.0, 4.0)});
  FaultInjector injector(schedule, FaultRates{}, 5);
  NetworkModel model = NetworkModel::TenBaseT();
  model.jitter_fraction = 0.0;
  Transport transport(model);
  transport.AttachFaults(&injector);

  const DeliveryReceipt receipt =
      transport.ReliableRoundTrip(0, 1, 1000, 1000, nullptr);
  EXPECT_TRUE(receipt.delivered);
  EXPECT_TRUE(receipt.faulted);
  EXPECT_NEAR(receipt.latency_seconds, 4.0 * 2.0 * model.per_message_seconds, 1e-12);
  EXPECT_NEAR(receipt.payload_seconds, 2000.0 / model.bytes_per_second, 1e-12);
}

TEST(ReliableRoundTripTest, SameSeedReplaysByteForByte) {
  RandomFaultOptions options;
  options.horizon_seconds = 1.0;
  options.episodes_per_kind = 2.0;
  options.mean_duration_seconds = 0.1;
  const FaultSchedule schedule = FaultSchedule::Random(options, 99);
  FaultRates background;
  background.drop = 0.1;
  background.duplicate = 0.05;
  background.reorder = 0.05;

  auto run = [&]() {
    FaultInjector injector(schedule, background, 1234);
    Transport transport(NetworkModel::TenBaseT());
    transport.AttachFaults(&injector);
    double total = 0.0;
    for (int i = 0; i < 200; ++i) {
      total += transport.ReliableRoundTrip(0, 1, 64 * (i % 7), 128, nullptr).seconds;
    }
    return total;
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

TEST(SuggestedRetryPolicyTest, ScalesWithTheNetworkModel) {
  const RetryPolicy lan = SuggestedRetryPolicy(NetworkModel::TenBaseT());
  const RetryPolicy wan = SuggestedRetryPolicy(NetworkModel::Isdn());
  EXPECT_GT(wan.timeout_seconds, lan.timeout_seconds);
  EXPECT_GT(lan.max_attempts, 1);
  EXPECT_GT(lan.backoff_max_seconds, lan.backoff_initial_seconds);
}

// --- Gilbert-Elliott two-state loss ---------------------------------------

FaultEpisode GilbertEpisode(double start, double duration, GilbertElliottParams params,
                            MachineId machine = kAnyMachine,
                            FaultDirection direction = FaultDirection::kBoth) {
  FaultEpisode episode;
  episode.kind = FaultKind::kGilbertElliott;
  episode.start_seconds = start;
  episode.duration_seconds = duration;
  episode.gilbert = params;
  episode.magnitude = params.loss_bad;
  episode.machine = machine;
  episode.direction = direction;
  return episode;
}

TEST(GilbertElliottTest, LossIsBurstyNotIndependent) {
  // loss_good = 0: every drop happens inside a bad stretch, so the drop
  // fraction must match the chain's stationary bad probability and drops
  // must clump in runs roughly 1/p_bad_to_good long — the burstiness an
  // independent Bernoulli of the same rate cannot produce.
  GilbertElliottParams params;
  params.p_good_to_bad = 0.05;
  params.p_bad_to_good = 0.3;
  params.loss_good = 0.0;
  params.loss_bad = 1.0;
  FaultSchedule schedule =
      FaultSchedule::FromEpisodes({GilbertEpisode(0.0, 1000.0, params)});
  FaultInjector injector(schedule, FaultRates{}, 21);

  const int kAttempts = 20000;
  int drops = 0, runs = 0;
  bool in_run = false;
  for (int i = 0; i < kAttempts; ++i) {
    const bool dropped = !injector.OnAttempt(0, 1, 100, 100, 0.0).delivered;
    if (dropped) {
      ++drops;
      if (!in_run) {
        ++runs;
      }
    }
    in_run = dropped;
  }
  // Stationary P(bad) = p01 / (p01 + p10) = 0.05 / 0.35.
  EXPECT_NEAR(static_cast<double>(drops) / kAttempts, 0.05 / 0.35, 0.02);
  EXPECT_EQ(injector.stats().ge_drops, static_cast<uint64_t>(drops));
  ASSERT_GT(runs, 0);
  // Mean run length ~ 1/0.3 = 3.3; independent loss at this rate gives 1.17.
  EXPECT_GT(static_cast<double>(drops) / runs, 2.0);
}

TEST(GilbertElliottTest, ChainWalkIsDeterministicPerSeed) {
  GilbertElliottParams params;
  params.p_good_to_bad = 0.1;
  params.p_bad_to_good = 0.2;
  params.loss_good = 0.02;
  params.loss_bad = 0.7;
  FaultSchedule schedule =
      FaultSchedule::FromEpisodes({GilbertEpisode(0.0, 1000.0, params)});

  auto trace = [&](uint64_t seed) {
    FaultInjector injector(schedule, FaultRates{}, seed);
    std::string bits;
    for (int i = 0; i < 500; ++i) {
      bits += injector.OnAttempt(0, 1, 64, 64, 0.0).delivered ? '1' : '0';
    }
    return bits;
  };
  EXPECT_EQ(trace(7), trace(7));
  EXPECT_NE(trace(7), trace(8));
}

TEST(GilbertElliottTest, InboundDirectionOnlyHitsTrafficTowardTheMachine) {
  // An inbound-only GE episode at machine 1 with certain loss: traffic
  // toward machine 1 dies, traffic from machine 1 sails through — the
  // per-direction asymmetric episode the symmetric kinds cannot express.
  GilbertElliottParams params;
  params.loss_good = 1.0;
  params.loss_bad = 1.0;
  FaultSchedule schedule = FaultSchedule::FromEpisodes({GilbertEpisode(
      0.0, 100.0, params, /*machine=*/1, FaultDirection::kInbound)});
  FaultInjector injector(schedule, FaultRates{}, 3);
  EXPECT_FALSE(injector.OnAttempt(0, 1, 10, 10, 0.0).delivered);  // dst == 1.
  EXPECT_TRUE(injector.OnAttempt(1, 0, 10, 10, 0.0).delivered);   // src == 1.
  EXPECT_TRUE(injector.OnAttempt(2, 0, 10, 10, 0.0).delivered);   // Uninvolved.
}

TEST(GilbertElliottTest, OutboundDirectionMirrorsInbound) {
  GilbertElliottParams params;
  params.loss_good = 1.0;
  params.loss_bad = 1.0;
  FaultSchedule schedule = FaultSchedule::FromEpisodes({GilbertEpisode(
      0.0, 100.0, params, /*machine=*/1, FaultDirection::kOutbound)});
  FaultInjector injector(schedule, FaultRates{}, 3);
  EXPECT_TRUE(injector.OnAttempt(0, 1, 10, 10, 0.0).delivered);
  EXPECT_FALSE(injector.OnAttempt(1, 0, 10, 10, 0.0).delivered);
}

TEST(FaultScheduleTest, RandomSchedulesIncludeGilbertAndAsymmetricEpisodes) {
  RandomFaultOptions options;
  options.horizon_seconds = 50.0;
  options.episodes_per_kind = 2.0;
  int gilbert = 0, asymmetric = 0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const FaultSchedule schedule = FaultSchedule::Random(options, seed);
    for (const FaultEpisode& episode : schedule.episodes()) {
      if (episode.kind == FaultKind::kGilbertElliott) {
        ++gilbert;
      }
      if (episode.direction != FaultDirection::kBoth) {
        ++asymmetric;
        EXPECT_NE(episode.machine, kAnyMachine);  // Direction needs a target.
      }
    }
  }
  EXPECT_GT(gilbert, 0);
  EXPECT_GT(asymmetric, 0);
}

TEST(FaultScheduleTest, CrashStormIsDeterministicAndCrashHeavy) {
  CrashStormOptions options;
  options.horizon_seconds = 10.0;
  const FaultSchedule a = FaultSchedule::CrashStorm(options, 5);
  const FaultSchedule b = FaultSchedule::CrashStorm(options, 5);
  EXPECT_EQ(a.ToString(), b.ToString());
  EXPECT_NE(a.ToString(), FaultSchedule::CrashStorm(options, 6).ToString());
  int crashes = 0, gilbert = 0;
  for (const FaultEpisode& episode : a.episodes()) {
    crashes += episode.kind == FaultKind::kCrashRestart;
    gilbert += episode.kind == FaultKind::kGilbertElliott;
  }
  EXPECT_EQ(crashes, kCrashStormCrashes);
  EXPECT_GT(gilbert, 0);
}

// --- Crash semantics for in-flight transfers -------------------------------

TEST(FaultInjectorTest, CrashOnsetVoidsInFlightTransfers) {
  FaultSchedule schedule = FaultSchedule::FromEpisodes(
      {Episode(FaultKind::kCrashRestart, 1.0, 1.0, 0.0, /*machine=*/1)});
  FaultInjector injector(schedule, FaultRates{}, 3);
  injector.AdvanceClock(0.5);
  // Round trip that would finish before the crash onset: unharmed.
  EXPECT_TRUE(injector.OnAttempt(0, 1, 10, 10, /*expected_seconds=*/0.4).delivered);
  // Round trip still on the wire when machine 1 dies at t=1.0: the
  // receiver dies holding un-acked state, the delivery is void.
  EXPECT_FALSE(injector.OnAttempt(0, 1, 10, 10, /*expected_seconds=*/1.0).delivered);
  EXPECT_EQ(injector.stats().voided_inflight, 1u);
  // Traffic not involving machine 1 is untouched.
  EXPECT_TRUE(injector.OnAttempt(0, 2, 10, 10, /*expected_seconds=*/1.0).delivered);
}

// --- At-most-once delivery: idempotency-token dedup (satellite) ------------

// Scripts the fate of successive attempts, so dedup accounting can be
// asserted exactly rather than statistically.
class ScriptedFaultModel : public TransportFaultModel {
 public:
  explicit ScriptedFaultModel(std::vector<AttemptPlan> plans)
      : plans_(std::move(plans)) {}
  AttemptPlan OnAttempt(MachineId, MachineId, uint64_t, uint64_t, double) override {
    return next_ < plans_.size() ? plans_[next_++] : AttemptPlan{};
  }
  void AdvanceClock(double) override {}
  double JitterUnit() override { return 0.5; }

 private:
  std::vector<AttemptPlan> plans_;
  size_t next_ = 0;
};

TEST(ReliableRoundTripTest, ReplyLegLossMakesTheRetryADuplicate) {
  // Attempt 1: request crosses, receiver executes, reply lost. Attempt 2:
  // delivered — but the receiver saw this token already, so it suppresses
  // the re-execution. At-most-once: one execution, one dedup event.
  AttemptPlan reply_lost;
  reply_lost.delivered = false;
  reply_lost.request_reached = true;
  ScriptedFaultModel model({reply_lost, AttemptPlan{}});
  Transport transport(NetworkModel::TenBaseT());
  transport.AttachFaults(&model);

  const DeliveryReceipt receipt = transport.ReliableRoundTrip(0, 1, 100, 100, nullptr);
  EXPECT_TRUE(receipt.delivered);
  EXPECT_EQ(receipt.attempts, 2);
  EXPECT_EQ(receipt.duplicates_suppressed, 1u);
}

TEST(ReliableRoundTripTest, EveryExtraExecutionIsSuppressedExactlyOnce) {
  // Two consecutive reply-leg losses then a delivery: the receiver
  // executed on attempt 1; attempts 2 and 3 both arrive as duplicates.
  AttemptPlan reply_lost;
  reply_lost.delivered = false;
  reply_lost.request_reached = true;
  ScriptedFaultModel model({reply_lost, reply_lost, AttemptPlan{}});
  Transport transport(NetworkModel::TenBaseT());
  transport.AttachFaults(&model);

  const DeliveryReceipt receipt = transport.ReliableRoundTrip(0, 1, 100, 100, nullptr);
  EXPECT_TRUE(receipt.delivered);
  EXPECT_EQ(receipt.attempts, 3);
  EXPECT_EQ(receipt.duplicates_suppressed, 2u);
}

TEST(ReliableRoundTripTest, RequestLegLossIsNotADuplicate) {
  // The request never reached the receiver: the retry is the first
  // execution, nothing to suppress.
  AttemptPlan request_lost;
  request_lost.delivered = false;
  ScriptedFaultModel model({request_lost, AttemptPlan{}});
  Transport transport(NetworkModel::TenBaseT());
  transport.AttachFaults(&model);

  const DeliveryReceipt receipt = transport.ReliableRoundTrip(0, 1, 100, 100, nullptr);
  EXPECT_TRUE(receipt.delivered);
  EXPECT_EQ(receipt.attempts, 2);
  EXPECT_EQ(receipt.duplicates_suppressed, 0u);
}

TEST(ReliableRoundTripTest, WireDuplicatesCountAsSuppressed) {
  AttemptPlan duplicated;
  duplicated.duplicated = true;
  ScriptedFaultModel model({duplicated});
  Transport transport(NetworkModel::TenBaseT());
  transport.AttachFaults(&model);

  const DeliveryReceipt receipt = transport.ReliableRoundTrip(0, 1, 100, 100, nullptr);
  EXPECT_TRUE(receipt.delivered);
  EXPECT_EQ(receipt.duplicate_messages, 1u);
  EXPECT_EQ(receipt.duplicates_suppressed, 1u);
}

TEST(ReliableRoundTripTest, DedupCountersMatchInjectorReplyDrops) {
  // Statistical cross-check against the real injector: with generous
  // retries every reply-leg loss is followed by another execution, so the
  // suppressed count must be reply drops plus wire duplicates.
  FaultRates background;
  background.drop = 0.3;
  background.duplicate = 0.05;
  FaultInjector injector(FaultSchedule(), background, 77);
  Transport transport(NetworkModel::TenBaseT());
  transport.AttachFaults(&injector);
  RetryPolicy policy = SuggestedRetryPolicy(NetworkModel::TenBaseT());
  policy.max_attempts = 12;  // Effectively always delivers eventually.
  transport.SetRetryPolicy(policy);

  uint64_t suppressed = 0, undelivered = 0;
  for (int i = 0; i < 500; ++i) {
    const DeliveryReceipt receipt = transport.ReliableRoundTrip(0, 1, 128, 64, nullptr);
    suppressed += receipt.duplicates_suppressed;
    undelivered += receipt.delivered ? 0 : 1;
  }
  ASSERT_EQ(undelivered, 0u);
  EXPECT_GT(injector.stats().reply_drops, 0u);
  EXPECT_EQ(suppressed, injector.stats().reply_drops + injector.stats().duplicates);
}

// --- FaultEpisodeDetector: the quarantine rule in isolation ---------------

// A healthy epoch: 1000 calls, 1% faulted, 1 ms/call latency, 1 us/byte.
EpochHealthSample HealthyEpoch() {
  EpochHealthSample epoch;
  epoch.calls = 1000;
  epoch.faulted_calls = 10;
  epoch.wire_bytes = 1000000;
  epoch.latency_seconds = 1.0;
  epoch.payload_seconds = 1.0;
  return epoch;
}

TEST(EpisodeDetectorTest, FaultBurstQuarantinesAndHoldExpires) {
  QuarantineConfig config;
  config.hold_epochs = 1;
  FaultEpisodeDetector detector(config);

  EXPECT_FALSE(detector.Observe(HealthyEpoch()).quarantine);  // Primes.
  EXPECT_FALSE(detector.Observe(HealthyEpoch()).quarantine);

  EpochHealthSample burst = HealthyEpoch();
  burst.faulted_calls = 300;  // 30% >> 5% + 3 * 1% baseline.
  const FaultEpisodeDetector::Verdict fired = detector.Observe(burst);
  EXPECT_EQ(fired.episode, FaultEpisodeDetector::Trigger::kFaultedFraction);
  EXPECT_TRUE(fired.quarantine);

  // The hold distrusts the tail, then a healthy epoch clears.
  const FaultEpisodeDetector::Verdict held = detector.Observe(HealthyEpoch());
  EXPECT_EQ(held.episode, FaultEpisodeDetector::Trigger::kNone);
  EXPECT_TRUE(held.quarantine);
  EXPECT_FALSE(detector.Observe(HealthyEpoch()).quarantine);
}

TEST(EpisodeDetectorTest, SilentLatencySlowdownQuarantines) {
  FaultEpisodeDetector detector(QuarantineConfig{});
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(detector.Observe(HealthyEpoch()).quarantine);
  }

  // The wire slows 5x but not one call is marked faulted: the pre-slowdown
  // detector (faulted fraction only) would happily feed this epoch to the
  // window and the live estimator.
  EpochHealthSample congested = HealthyEpoch();
  congested.faulted_calls = 10;
  congested.latency_seconds = 5.0;
  const FaultEpisodeDetector::Verdict verdict = detector.Observe(congested);
  EXPECT_EQ(verdict.episode, FaultEpisodeDetector::Trigger::kLatencySlowdown);
  EXPECT_TRUE(verdict.quarantine);
}

TEST(EpisodeDetectorTest, SilentPayloadSlowdownQuarantines) {
  FaultEpisodeDetector detector(QuarantineConfig{});
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(detector.Observe(HealthyEpoch()).quarantine);
  }
  EpochHealthSample squeezed = HealthyEpoch();
  squeezed.payload_seconds = 4.0;  // Per-byte time 4x baseline.
  const FaultEpisodeDetector::Verdict verdict = detector.Observe(squeezed);
  EXPECT_EQ(verdict.episode, FaultEpisodeDetector::Trigger::kPayloadSlowdown);
  EXPECT_TRUE(verdict.quarantine);
}

TEST(EpisodeDetectorTest, SteadyDegradationBecomesTheBaseline) {
  QuarantineConfig config;
  config.hold_epochs = 0;
  FaultEpisodeDetector detector(config);
  detector.Observe(HealthyEpoch());

  // A permanently slower link: 2.5x latency every epoch, under the 3x
  // trigger. No epoch may quarantine and the baseline must converge to the
  // new normal — steady slow is the network, not an endless episode.
  EpochHealthSample slow = HealthyEpoch();
  slow.latency_seconds = 2.5;
  int quarantined_tail = 0;
  for (int i = 0; i < 30; ++i) {
    const bool quarantined = detector.Observe(slow).quarantine;
    if (i >= 20 && quarantined) {
      ++quarantined_tail;
    }
  }
  EXPECT_EQ(quarantined_tail, 0);
  EXPECT_NEAR(detector.latency_baseline(), 2.5e-3, 2.5e-4);
}

TEST(EpisodeDetectorTest, QuarantinedEpochsDoNotPoisonTheBaselines) {
  QuarantineConfig config;
  config.hold_epochs = 0;
  FaultEpisodeDetector detector(config);
  detector.Observe(HealthyEpoch());
  detector.Observe(HealthyEpoch());
  const double before = detector.latency_baseline();

  // A 10x episode, many epochs long: every epoch quarantines and the
  // baseline must not learn it.
  EpochHealthSample episode = HealthyEpoch();
  episode.latency_seconds = 10.0;
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(detector.Observe(episode).quarantine) << i;
  }
  EXPECT_DOUBLE_EQ(detector.latency_baseline(), before);
  EXPECT_FALSE(detector.Observe(HealthyEpoch()).quarantine);
}

TEST(EpisodeDetectorTest, IdleEpochsLeaveRateBaselinesAlone) {
  FaultEpisodeDetector detector(QuarantineConfig{});
  detector.Observe(HealthyEpoch());
  detector.Observe(HealthyEpoch());
  const double latency = detector.latency_baseline();
  const double payload = detector.payload_baseline();
  detector.Observe(EpochHealthSample{});  // Nothing on the wire.
  EXPECT_DOUBLE_EQ(detector.latency_baseline(), latency);
  EXPECT_DOUBLE_EQ(detector.payload_baseline(), payload);
}

}  // namespace
}  // namespace coign
