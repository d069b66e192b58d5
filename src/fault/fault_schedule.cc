#include "src/fault/fault_schedule.h"

#include <algorithm>

#include "src/support/str_util.h"

namespace coign {

std::string_view FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDropBurst:
      return "drop-burst";
    case FaultKind::kDuplicateBurst:
      return "duplicate-burst";
    case FaultKind::kReorderBurst:
      return "reorder-burst";
    case FaultKind::kLatencySpike:
      return "latency-spike";
    case FaultKind::kBandwidthDrop:
      return "bandwidth-drop";
    case FaultKind::kPartition:
      return "partition";
    case FaultKind::kCrashRestart:
      return "crash-restart";
    case FaultKind::kGilbertElliott:
      return "gilbert-elliott";
    case FaultKind::kCorruptBurst:
      return "corrupt-burst";
  }
  return "unknown";
}

std::string FaultEpisode::ToString() const {
  std::string target =
      machine == kAnyMachine ? std::string("*") : StrFormat("m%d", machine);
  if (machine != kAnyMachine && direction != FaultDirection::kBoth) {
    target += direction == FaultDirection::kInbound ? "<-" : "->";
  }
  std::string out =
      StrFormat("%s[%s] %.3fs..%.3fs x%.3f", std::string(FaultKindName(kind)).c_str(),
                target.c_str(), start_seconds, end_seconds(), magnitude);
  if (kind == FaultKind::kGilbertElliott || kind == FaultKind::kCorruptBurst) {
    out += StrFormat(" ge{p01=%.3f, p10=%.3f, loss=%.3f/%.3f}", gilbert.p_good_to_bad,
                     gilbert.p_bad_to_good, gilbert.loss_good, gilbert.loss_bad);
  }
  return out;
}

FaultSchedule FaultSchedule::FromEpisodes(std::vector<FaultEpisode> episodes) {
  FaultSchedule schedule;
  schedule.episodes_ = std::move(episodes);
  std::sort(schedule.episodes_.begin(), schedule.episodes_.end(),
            [](const FaultEpisode& a, const FaultEpisode& b) {
              return a.start_seconds < b.start_seconds;
            });
  return schedule;
}

namespace {

// Upper ends of the drawn Gilbert-Elliott chain odds and bad-state loss.
constexpr double kGilbertGoodToBadMax = 0.25;
constexpr double kGilbertBadToGoodMax = 0.5;
constexpr double kGilbertLossBadMax = 0.8;
// Probability that a drawn drop/GE/latency episode targets one machine
// in one direction instead of all traffic symmetrically.
constexpr double kAsymmetricProbability = 0.35;

// Each crash of a crash storm lasts this fraction of the horizon.
constexpr double kCrashStormDurationFraction = 0.05;
constexpr double kCrashStormRestartPenaltySeconds = 0.2;

// With probability `p`, point the episode at one machine in one direction.
void MaybeAsymmetric(FaultEpisode& episode, double p, Rng& rng) {
  if (!rng.Bernoulli(p)) {
    return;
  }
  episode.machine = rng.Bernoulli(0.5) ? kServerMachine : kClientMachine;
  episode.direction =
      rng.Bernoulli(0.5) ? FaultDirection::kInbound : FaultDirection::kOutbound;
}

// Draws one episode of `kind` somewhere inside the horizon.
FaultEpisode DrawEpisode(FaultKind kind, const RandomFaultOptions& options, Rng& rng) {
  FaultEpisode episode;
  episode.kind = kind;
  episode.start_seconds = rng.UniformDouble(0.0, options.horizon_seconds);
  episode.duration_seconds = std::min(rng.Exponential(options.mean_duration_seconds),
                                      options.horizon_seconds * 0.25);
  switch (kind) {
    case FaultKind::kDropBurst:
      episode.magnitude = rng.UniformDouble(0.05, options.drop_burst_max);
      break;
    case FaultKind::kDuplicateBurst:
      episode.magnitude = rng.UniformDouble(0.05, options.duplicate_burst_max);
      break;
    case FaultKind::kReorderBurst:
      episode.magnitude = rng.UniformDouble(0.05, options.reorder_burst_max);
      break;
    case FaultKind::kLatencySpike:
      episode.magnitude = rng.UniformDouble(2.0, options.latency_spike_max);
      break;
    case FaultKind::kBandwidthDrop:
      episode.magnitude = rng.UniformDouble(2.0, options.bandwidth_drop_max);
      break;
    case FaultKind::kPartition:
      episode.magnitude = 1.0;
      episode.machine = rng.Bernoulli(0.5)
                            ? kAnyMachine
                            : (rng.Bernoulli(0.5) ? kServerMachine : kClientMachine);
      break;
    case FaultKind::kCrashRestart:
      episode.magnitude = options.restart_penalty_seconds;
      episode.machine = rng.Bernoulli(0.5) ? kServerMachine : kClientMachine;
      break;
    case FaultKind::kGilbertElliott:
      episode.gilbert.p_good_to_bad = rng.UniformDouble(0.01, kGilbertGoodToBadMax);
      episode.gilbert.p_bad_to_good = rng.UniformDouble(0.05, kGilbertBadToGoodMax);
      episode.gilbert.loss_good = rng.UniformDouble(0.0, 0.05);
      episode.gilbert.loss_bad = rng.UniformDouble(0.2, kGilbertLossBadMax);
      episode.magnitude = episode.gilbert.loss_bad;
      MaybeAsymmetric(episode, kAsymmetricProbability, rng);
      break;
    case FaultKind::kCorruptBurst:
      // Same bursty chain as Gilbert-Elliott, but the bad state flips
      // payload bits instead of losing messages (the good state is clean).
      episode.gilbert.p_good_to_bad = rng.UniformDouble(0.01, kGilbertGoodToBadMax);
      episode.gilbert.p_bad_to_good = rng.UniformDouble(0.05, kGilbertBadToGoodMax);
      episode.gilbert.loss_good = 0.0;
      episode.gilbert.loss_bad = rng.UniformDouble(0.1, options.corrupt_burst_max);
      episode.magnitude = episode.gilbert.loss_bad;
      MaybeAsymmetric(episode, kAsymmetricProbability, rng);
      break;
  }
  return episode;
}

}  // namespace

FaultSchedule FaultSchedule::Random(const RandomFaultOptions& options, uint64_t seed) {
  Rng rng(seed);
  std::vector<FaultEpisode> episodes;
  const auto draw_kind = [&](FaultKind kind) {
    const int64_t cap = static_cast<int64_t>(2.0 * options.episodes_per_kind);
    const int64_t count = cap <= 0 ? 0 : rng.UniformInt(0, cap);
    for (int64_t i = 0; i < count; ++i) {
      episodes.push_back(DrawEpisode(kind, options, rng));
    }
  };
  draw_kind(FaultKind::kDropBurst);
  draw_kind(FaultKind::kDuplicateBurst);
  draw_kind(FaultKind::kReorderBurst);
  draw_kind(FaultKind::kLatencySpike);
  draw_kind(FaultKind::kBandwidthDrop);
  if (options.include_partitions) {
    draw_kind(FaultKind::kPartition);
  }
  if (options.include_crashes) {
    draw_kind(FaultKind::kCrashRestart);
  }
  // New kinds draw after every legacy kind: a given seed's schedule keeps
  // its old episodes as a prefix and only gains episodes at the tail.
  draw_kind(FaultKind::kGilbertElliott);
  // Direction-targeted drop bursts on top of the symmetric population.
  const int64_t cap = static_cast<int64_t>(2.0 * options.episodes_per_kind);
  const int64_t count = cap <= 0 ? 0 : rng.UniformInt(0, cap);
  for (int64_t i = 0; i < count; ++i) {
    FaultEpisode episode = DrawEpisode(FaultKind::kDropBurst, options, rng);
    MaybeAsymmetric(episode, 1.0, rng);
    episodes.push_back(episode);
  }
  // Corruption draws last — after the asymmetric drop block — so every
  // older seed's episode prefix survives unchanged.
  if (options.include_corrupt_bursts) {
    draw_kind(FaultKind::kCorruptBurst);
  }
  return FromEpisodes(std::move(episodes));
}

FaultSchedule FaultSchedule::CrashStorm(const CrashStormOptions& options, uint64_t seed) {
  Rng rng(seed);
  std::vector<FaultEpisode> episodes;
  const double horizon = options.horizon_seconds;
  const double crash_len = horizon * kCrashStormDurationFraction;
  for (int i = 0; i < kCrashStormCrashes; ++i) {
    FaultEpisode crash;
    crash.kind = FaultKind::kCrashRestart;
    // Evenly spread with a jittered offset, alternating victims, so
    // crashes land across the whole run rather than clumping at one end.
    const double slot = horizon / (kCrashStormCrashes + 1);
    crash.start_seconds = slot * (i + 1) + rng.UniformDouble(-0.3, 0.3) * slot;
    crash.start_seconds = std::clamp(crash.start_seconds, 0.0, horizon - crash_len);
    crash.duration_seconds = crash_len;
    crash.machine = (i % 2 == 0) ? kServerMachine : kClientMachine;
    crash.magnitude = kCrashStormRestartPenaltySeconds;
    episodes.push_back(crash);
  }
  // One bursty loss regime per direction, each with its own chain odds:
  // the server-bound path degrades harder than the client-bound path.
  FaultEpisode loss_to_server;
  loss_to_server.kind = FaultKind::kGilbertElliott;
  loss_to_server.start_seconds = 0.0;
  loss_to_server.duration_seconds = horizon;
  loss_to_server.machine = kServerMachine;
  loss_to_server.direction = FaultDirection::kInbound;
  loss_to_server.gilbert = {0.12, 0.25, 0.01, 0.6};
  loss_to_server.magnitude = loss_to_server.gilbert.loss_bad;
  episodes.push_back(loss_to_server);

  FaultEpisode loss_to_client;
  loss_to_client.kind = FaultKind::kGilbertElliott;
  loss_to_client.start_seconds = 0.0;
  loss_to_client.duration_seconds = horizon;
  loss_to_client.machine = kClientMachine;
  loss_to_client.direction = FaultDirection::kInbound;
  loss_to_client.gilbert = {0.05, 0.4, 0.005, 0.35};
  loss_to_client.magnitude = loss_to_client.gilbert.loss_bad;
  episodes.push_back(loss_to_client);

  FaultEpisode partition;
  partition.kind = FaultKind::kPartition;
  partition.start_seconds = horizon * rng.UniformDouble(0.4, 0.6);
  partition.duration_seconds = horizon * 0.04;
  partition.machine = kAnyMachine;
  episodes.push_back(partition);

  if (options.corruption_rate > 0.0) {
    // Per-direction corruption regimes over the middle of the horizon —
    // the server-bound leg corrupts at the full rate, the client-bound
    // leg lighter — leaving clean head and tail stretches so the circuit
    // breaker's open and re-promote transitions both happen inside the run.
    FaultEpisode toward_server;
    toward_server.kind = FaultKind::kCorruptBurst;
    toward_server.start_seconds = horizon * 0.25;
    toward_server.duration_seconds = horizon * 0.45;
    toward_server.machine = kServerMachine;
    toward_server.direction = FaultDirection::kInbound;
    toward_server.gilbert = {0.2, 0.15, 0.0, options.corruption_rate};
    toward_server.magnitude = toward_server.gilbert.loss_bad;
    episodes.push_back(toward_server);

    FaultEpisode toward_client;
    toward_client.kind = FaultKind::kCorruptBurst;
    toward_client.start_seconds = horizon * 0.3;
    toward_client.duration_seconds = horizon * 0.35;
    toward_client.machine = kClientMachine;
    toward_client.direction = FaultDirection::kInbound;
    toward_client.gilbert = {0.1, 0.3, 0.0, options.corruption_rate * 0.6};
    toward_client.magnitude = toward_client.gilbert.loss_bad;
    episodes.push_back(toward_client);
  }
  return FromEpisodes(std::move(episodes));
}

const FaultEpisode* FaultSchedule::ActiveEpisode(FaultKind kind, double now, MachineId src,
                                                 MachineId dst) const {
  const FaultEpisode* best = nullptr;
  for (const FaultEpisode& episode : episodes_) {
    if (episode.kind != kind || !episode.ActiveAt(now) || !episode.Covers(src, dst)) {
      continue;
    }
    if (best == nullptr || episode.magnitude > best->magnitude) {
      best = &episode;
    }
  }
  return best;
}

bool FaultSchedule::AnyActiveAt(double now) const {
  for (const FaultEpisode& episode : episodes_) {
    if (episode.ActiveAt(now)) {
      return true;
    }
  }
  return false;
}

double FaultSchedule::HorizonSeconds() const {
  double horizon = 0.0;
  for (const FaultEpisode& episode : episodes_) {
    horizon = std::max(horizon, episode.end_seconds());
  }
  return horizon;
}

std::string FaultSchedule::ToString() const {
  if (episodes_.empty()) {
    return "fault-schedule{}";
  }
  std::string out = "fault-schedule{";
  for (size_t i = 0; i < episodes_.size(); ++i) {
    if (i > 0) {
      out += "; ";
    }
    out += episodes_[i].ToString();
  }
  out += "}";
  return out;
}

}  // namespace coign
