#include "src/online/repartitioner.h"

#include <cassert>
#include <cstdio>

#include "src/graph/distribution.h"
#include "src/support/log.h"
#include "src/support/str_util.h"

namespace coign {
namespace {

// Synthetic round trips per half-open breaker probe and their payload size.
constexpr int kBreakerProbeCalls = 4;
constexpr uint64_t kBreakerProbeBytes = 256;

}  // namespace

std::string OnlineStats::ToString() const {
  std::string out = StrFormat(
      "online{epochs=%llu, drift=%llu, evals=%llu, repartitions=%llu (lazy %llu), "
      "hysteresis_rej=%llu, cost_rej=%llu, moved=%llu, migration_bytes=%llu, "
      "migration_s=%.4f, fault_episodes=%llu, quarantined=%llu, slowdown=%.2fx",
      static_cast<unsigned long long>(epochs), static_cast<unsigned long long>(drift_flags),
      static_cast<unsigned long long>(evaluations),
      static_cast<unsigned long long>(repartitions),
      static_cast<unsigned long long>(lazy_adoptions),
      static_cast<unsigned long long>(hysteresis_rejections),
      static_cast<unsigned long long>(cost_rejections),
      static_cast<unsigned long long>(instances_moved),
      static_cast<unsigned long long>(migration_bytes), migration_seconds,
      static_cast<unsigned long long>(fault_episodes),
      static_cast<unsigned long long>(quarantined_epochs), live_slowdown);
  if (interrupted_migrations > 0 || migration_resumes > 0 || migration_rollbacks > 0 ||
      migration_wasted_bytes > 0 || duplicates_suppressed > 0) {
    out += StrFormat(
        ", interrupted=%llu, resumes=%llu, rollbacks=%llu, wasted=%lluB, dedup=%llu",
        static_cast<unsigned long long>(interrupted_migrations),
        static_cast<unsigned long long>(migration_resumes),
        static_cast<unsigned long long>(migration_rollbacks),
        static_cast<unsigned long long>(migration_wasted_bytes),
        static_cast<unsigned long long>(duplicates_suppressed));
  }
  if (breaker_trips > 0 || safe_mode_entries > 0) {
    out += StrFormat(
        ", breaker_trips=%llu, breaker_reopens=%llu, safe_mode_entries=%llu, "
        "safe_mode_exits=%llu, safe_mode_epochs=%llu",
        static_cast<unsigned long long>(breaker_trips),
        static_cast<unsigned long long>(breaker_reopens),
        static_cast<unsigned long long>(safe_mode_entries),
        static_cast<unsigned long long>(safe_mode_exits),
        static_cast<unsigned long long>(safe_mode_epochs));
  }
  out += "}";
  return out;
}

OnlineRepartitioner::OnlineRepartitioner(ObjectSystem* system, CoignRuntime* runtime,
                                         const IccProfile& base_profile,
                                         NetworkProfile network, OnlineOptions options)
    : system_(system),
      runtime_(runtime),
      base_profile_(base_profile),
      base_counts_(CountsFromProfile(base_profile)),
      network_(std::move(network)),
      options_(options),
      window_(options.window),
      policy_(options.policy, options.analysis),
      episode_detector_(options.quarantine),
      breaker_(options.breaker) {
  assert(system_ != nullptr && runtime_ != nullptr);
  // A journal file left by a previous process means that process died with
  // a migration in flight: pick it up as the pending migration so the first
  // healthy epoch boundary runs crash recovery against it. A file that
  // exists but cannot be read is moved aside, never left where the next
  // persisted snapshot (or its removal) would destroy it unread.
  if (!options_.journal_path.empty()) {
    Result<MigrationJournal> loaded =
        MigrationJournal::LoadFromFile(options_.journal_path);
    if (!loaded.ok() && loaded.status().code() != StatusCode::kNotFound) {
      const std::string aside = options_.journal_path + ".unreadable";
      const bool moved = std::rename(options_.journal_path.c_str(), aside.c_str()) == 0;
      COIGN_LOG(kWarning, "journal %s is unreadable (%s); %s %s",
                options_.journal_path.c_str(), loaded.status().ToString().c_str(),
                moved ? "kept it aside as" : "could not move it aside to", aside.c_str());
    } else if (loaded.ok() && !loaded->empty()) {
      if (loaded->recovered_torn_tail()) {
        COIGN_LOG(kWarning, "journal %s had a torn tail; dropped the partial record",
                  options_.journal_path.c_str());
      }
      if (loaded->corrupt_skipped() > 0) {
        COIGN_LOG(kWarning, "journal %s had %zu corrupt record(s); skipped them",
                  options_.journal_path.c_str(), loaded->corrupt_skipped());
      }
      PendingMigration pending;
      pending.journal = std::move(*loaded);
      pending_ = std::move(pending);
    }
  }
  system_->AddInterceptor(this);
}

OnlineRepartitioner::~OnlineRepartitioner() { system_->RemoveInterceptor(this); }

void OnlineRepartitioner::SetObservability(Observability* obs) {
  obs_ = obs;
  if (obs_ == nullptr) {
    return;
  }
  // Register the solver-work counters up front so they appear (at zero) in
  // metrics dumps and trace exports even before the first evaluation —
  // trace_lint --require checks for their presence on every online run.
  obs_->metrics().GetCounter("mincut.pushes");
  obs_->metrics().GetCounter("mincut.relabels");
  obs_->metrics().GetCounter("mincut.global_relabels");
}

void OnlineRepartitioner::SetTransportProbe(TransportProbeFn probe) {
  probe_ = std::move(probe);
  if (probe_) {
    estimator_ = std::make_unique<LiveNetworkEstimator>(network_);
    call_health_ = probe_();
    epoch_health_ = call_health_;
  } else {
    estimator_.reset();
  }
}

ClassificationId OnlineRepartitioner::ClassificationOf(InstanceId instance) const {
  const Result<ClassificationId> classification =
      runtime_->classifier().ClassificationOf(instance);
  return classification.ok() ? *classification : kNoClassification;
}

LiveMigrator OnlineRepartitioner::MakeJournaledMigrator() const {
  MigrationOptions options;
  options.state_bytes_per_instance = options_.policy.state_bytes_per_instance;
  LiveMigrator migrator(options, [this](InstanceId id) { return ClassificationOf(id); });
  if (crash_gate_) {
    migrator.SetCrashGate(crash_gate_);
  }
  // Per-instance state from profiled allocations — the same source the
  // policy priced the migration bill with. 0 = no data, migrator falls
  // back to the flat configured size.
  migrator.SetStateSizeResolver([this](InstanceId id) -> uint64_t {
    const ClassificationId classification = ClassificationOf(id);
    if (classification == kNoClassification) {
      return 0;
    }
    const ClassificationInfo* info = base_profile_.FindClassification(classification);
    if (info == nullptr) {
      auto it = live_registry_.find(classification);
      info = it != live_registry_.end() ? &it->second : nullptr;
    }
    return ProfiledStateBytes(info, 0);
  });
  migrator.SetObservability(obs_);
  return migrator;
}

void OnlineRepartitioner::PersistPendingJournal() const {
  if (options_.journal_path.empty()) {
    return;
  }
  if (!pending_) {
    std::remove(options_.journal_path.c_str());
    return;
  }
  const Status saved = pending_->journal.SaveToFile(options_.journal_path);
  if (!saved.ok()) {
    COIGN_LOG(kWarning, "journal snapshot to %s failed: %s",
              options_.journal_path.c_str(), saved.ToString().c_str());
  }
}

void OnlineRepartitioner::AbandonPendingMigration() {
  pending_.reset();
  cooldown_remaining_ = options_.cooldown_epochs;
  PersistPendingJournal();  // Removes the snapshot file.
  if (obs_ != nullptr) {
    obs_->metrics().GetCounter("online.migrations_abandoned")->Add(1);
    obs_->tracer().Instant("migration-abandoned", "online", kTrackMigration,
                           {{"epoch", Tracer::ArgUint(stats_.epochs)}});
    obs_->Dump("migration-abandoned");
  }
}

void OnlineRepartitioner::AbsorbMigrationReport(const MigrationReport& report) {
  stats_.instances_moved += report.instances_moved;
  stats_.migration_bytes += report.bytes_transferred;
  stats_.migration_seconds += report.seconds;
  stats_.migration_wasted_bytes += report.wasted_bytes;
  stats_.duplicates_suppressed += report.duplicates_suppressed;
  if (report.interrupted) {
    ++stats_.interrupted_migrations;
  }
  if (charge_) {
    // Committed state plus every retransmitted/abandoned copy went over
    // the wire; the run pays for all of it.
    charge_(report.bytes_transferred + report.wasted_bytes, report.seconds);
  }
}

Status OnlineRepartitioner::ResumePendingMigration() {
  PendingMigration& pending = *pending_;
  ++pending.resumes;
  ++stats_.migration_resumes;
  if (obs_ != nullptr) {
    obs_->metrics().GetCounter("online.migration_resumes")->Add(1);
    obs_->tracer().Instant("migration-resume", "online", kTrackMigration,
                           {{"epoch", Tracer::ArgUint(stats_.epochs)},
                            {"resumes", Tracer::ArgUint(pending.resumes)}});
  }
  // Crash recovery from the journal: redo committed flips, roll in-flight
  // copies back. After this every journaled instance has one home again,
  // and the journal is checkpointed (cleared) for the re-attempt.
  Result<RecoveryReport> recovered = LiveMigrator::Recover(*system_, pending.journal);
  if (!recovered.ok()) {
    return recovered.status();
  }
  stats_.migration_rollbacks += recovered->instances_rolled_back;
  stats_.migration_wasted_bytes += recovered->wasted_bytes;
  pending.journal.Clear();
  if (pending.resumes > kMaxMigrationResumes) {
    // Give up: residency is consistent, stragglers rent the old placement
    // at their source until the next accepted repartition moves them.
    AbandonPendingMigration();
    return Status::Ok();
  }
  // Re-attempt toward the already-adopted distribution. Rolled-back
  // stragglers still sit on the wrong machine, so the migrator naturally
  // picks exactly them up.
  LiveMigrator migrator = MakeJournaledMigrator();
  Result<MigrationReport> moved = migrator.Migrate(
      *system_, distribution(), pending.journal, *migration_transport_, migration_jitter_);
  if (!moved.ok()) {
    return moved.status();
  }
  AbsorbMigrationReport(*moved);
  if (moved->complete) {
    pending_.reset();
    cooldown_remaining_ = options_.cooldown_epochs;
  }
  PersistPendingJournal();
  return Status::Ok();
}

bool OnlineRepartitioner::RunBreakerProbe(const BreakerSample& sample) {
  if (migration_transport_ == nullptr) {
    // No hardened wire to probe synthetically: judge by the epoch's own
    // traffic (live instances renting the distributed cut keep the wire
    // evidence flowing even while safe mode holds the all-local plan).
    return sample.calls > 0 && sample.undelivered == 0 &&
           sample.corrupt_rejected == 0;
  }
  uint64_t bad = 0;
  for (int i = 0; i < kBreakerProbeCalls; ++i) {
    const DeliveryReceipt receipt = migration_transport_->ReliableRoundTrip(
        kClientMachine, kServerMachine, kBreakerProbeBytes, kBreakerProbeBytes,
        migration_jitter_);
    if (!receipt.delivered || receipt.corrupt_rejected > 0) {
      ++bad;
    }
  }
  return bad == 0;
}

void OnlineRepartitioner::EnterSafeMode() {
  safe_mode_ = true;
  ++stats_.safe_mode_entries;
  // Park the distributed plan and lazily adopt the all-local cut: future
  // placements stop crossing the sick wire immediately, and no state is
  // copied over it to get there. Live remote instances rent their seats
  // until the plan is re-promoted (or they die).
  saved_distribution_ = distribution();
  runtime_->AdoptDistribution(EverythingOn(kClientMachine));
  if (obs_ != nullptr) {
    obs_->metrics().GetCounter("safe_mode.entered")->Add(1);
    obs_->tracer().Instant("safe-mode-enter", "online", kTrackOnline,
                           {{"epoch", Tracer::ArgUint(stats_.epochs)}});
    obs_->Dump("safe-mode");
  }
}

void OnlineRepartitioner::ExitSafeMode() {
  safe_mode_ = false;
  ++stats_.safe_mode_exits;
  runtime_->AdoptDistribution(saved_distribution_);
  // Anti-thrash: the re-promoted plan gets the same quiet period an
  // accepted repartition would.
  cooldown_remaining_ = options_.cooldown_epochs;
  if (obs_ != nullptr) {
    obs_->metrics().GetCounter("safe_mode.exited")->Add(1);
    obs_->tracer().Instant("safe-mode-exit", "online", kTrackOnline,
                           {{"epoch", Tracer::ArgUint(stats_.epochs)}});
  }
}

void OnlineRepartitioner::BreakerTick(const BreakerSample& sample) {
  const BreakerState before = breaker_.state();
  breaker_.Observe(sample);
  if (breaker_.WantsProbe()) {
    breaker_.OnProbeResult(RunBreakerProbe(sample));
  }
  const BreakerState after = breaker_.state();
  stats_.breaker_trips = breaker_.trips();
  stats_.breaker_reopens = breaker_.reopens();
  if (obs_ != nullptr) {
    // Gauge sampled onto the counter track each epoch: 0 closed, 1 open,
    // 2 half-open (half-open is only visible here when a probe could not
    // run this epoch).
    obs_->metrics().GetGauge("breaker.state")
        ->Set(after == BreakerState::kClosed ? 0.0
              : after == BreakerState::kOpen ? 1.0
                                             : 2.0);
    if (after != before) {
      obs_->tracer().Instant(
          "breaker-transition", "online", kTrackOnline,
          {{"epoch", Tracer::ArgUint(stats_.epochs)},
           {"from", Tracer::ArgString(BreakerStateName(before))},
           {"to", Tracer::ArgString(BreakerStateName(after))}});
    }
  }
  if (after == BreakerState::kClosed && safe_mode_) {
    ExitSafeMode();
  } else if (after != BreakerState::kClosed && !safe_mode_) {
    EnterSafeMode();
  }
}

void OnlineRepartitioner::OnInstantiated(const ClassDesc& cls, InstanceId id,
                                         InstanceId creator) {
  (void)creator;
  // The classifier binds the classification before placement, so it is
  // already known here. Classifications the base profile covers need no
  // registration; the others are exactly the §6 case — usage the profiling
  // scenarios never saw — and the re-cut needs their metadata (clsid, name,
  // api_usage for constraint pinning) to place them deliberately.
  const ClassificationId classification = ClassificationOf(id);
  if (classification == kNoClassification ||
      base_profile_.FindClassification(classification) != nullptr) {
    return;
  }
  ClassificationInfo& info = live_registry_[classification];
  if (info.id == kNoClassification) {
    info.id = classification;
    info.clsid = cls.clsid;
    info.class_name = cls.name;
    info.api_usage = cls.api_usage;
  }
  ++info.instance_count;
}

void OnlineRepartitioner::OnCallEnd(const ObjectSystem::CallEvent& event,
                                    const Status& status) {
  if (!status.ok()) {
    return;  // Failed calls carry no communication.
  }
  CallKey key;
  key.src = ClassificationOf(event.caller);
  key.dst = ClassificationOf(event.target.instance);
  key.iid = event.target.iid;
  key.method = event.method;
  // The same cheap remotability check the profiling informer uses:
  // interface metadata plus an opaque-parameter scan of the live messages.
  bool remotable = true;
  const InterfaceDesc* iface = system_->interfaces().Lookup(event.target.iid);
  if (iface != nullptr && !iface->remotable) {
    remotable = false;
  }
  if (remotable && event.in != nullptr && event.in->ContainsOpaque()) {
    remotable = false;
  }
  if (remotable && event.out != nullptr && event.out->ContainsOpaque()) {
    remotable = false;
  }
  // With a transport probe, wire reality weights the window: a call the
  // hardened transport had to retry put that many extra round trips on the
  // wire, and the lightweight runtime counts messages, not intents. (Calls
  // are sequential in the simulator, so the probe delta is this call's.)
  uint64_t wire_calls = 1;
  if (probe_) {
    const TransportHealth now = probe_();
    wire_calls += now.retries - call_health_.retries;
    call_health_ = now;
  }
  window_.Record(key, wire_calls, remotable);
}

void OnlineRepartitioner::OnCompute(InstanceId instance, double seconds) {
  window_.RecordCompute(ClassificationOf(instance), seconds);
}

Status OnlineRepartitioner::EndEpoch() {
  ++stats_.epochs;
  Tracer* tracer = obs_ != nullptr ? &obs_->tracer() : nullptr;
  TraceSpan epoch_span(tracer, "epoch", "online", kTrackOnline);
  epoch_span.AddArg("epoch", stats_.epochs);
  if (obs_ != nullptr) {
    obs_->metrics().GetCounter("online.epochs")->Add(1);
    // Periodic counter-sample track: every metric series gets one "C"
    // event per epoch boundary, so exported traces carry value-over-time
    // graphs (calls, retries, quarantines) aligned with the epoch spans.
    obs_->SampleCounters();
  }

  // Fault-episode screening: an epoch whose transport visibly fought the
  // network (timeouts, exhausted budgets, spiked round trips) is not
  // evidence about the application. Quarantine discards it wholesale.
  if (probe_) {
    const TransportHealth now = probe_();
    const uint64_t epoch_calls = now.calls - epoch_health_.calls;
    const uint64_t epoch_faulted = now.faulted_calls - epoch_health_.faulted_calls;
    const uint64_t epoch_bytes = now.wire_bytes - epoch_health_.wire_bytes;
    const uint64_t epoch_undelivered = now.undelivered - epoch_health_.undelivered;
    const uint64_t epoch_corrupt =
        now.corrupt_rejected - epoch_health_.corrupt_rejected;
    const double epoch_latency =
        now.wire_latency_seconds - epoch_health_.wire_latency_seconds;
    const double epoch_payload =
        now.wire_payload_seconds - epoch_health_.wire_payload_seconds;
    epoch_health_ = now;
    call_health_ = now;
    // The breaker judges every epoch — quarantined ones included: an
    // epoch too sick to be evidence for the estimator is exactly the
    // evidence the breaker exists for. (Half-open probes may put extra
    // round trips on the wire; the cursors above were already advanced,
    // so the next epoch's deltas absorb them.)
    if (options_.breaker.enabled) {
      BreakerSample sample;
      sample.calls = epoch_calls;
      sample.undelivered = epoch_undelivered;
      sample.corrupt_rejected = epoch_corrupt;
      BreakerTick(sample);
    }
    if (options_.quarantine.enabled) {
      EpochHealthSample sample;
      sample.calls = epoch_calls;
      sample.faulted_calls = epoch_faulted;
      sample.wire_bytes = epoch_bytes;
      sample.latency_seconds = epoch_latency;
      sample.payload_seconds = epoch_payload;
      const FaultEpisodeDetector::Verdict verdict = episode_detector_.Observe(sample);
      if (verdict.episode != FaultEpisodeDetector::Trigger::kNone) {
        ++stats_.fault_episodes;
        if (obs_ != nullptr) {
          obs_->metrics().GetCounter("online.fault_episodes")->Add(1);
        }
      }
      if (verdict.quarantine) {
        ++stats_.quarantined_epochs;
        window_.DiscardEpoch();
        epoch_span.AddArg("outcome", "quarantined");
        if (obs_ != nullptr) {
          obs_->metrics().GetCounter("online.quarantined_epochs")->Add(1);
          obs_->tracer().Instant("quarantine", "online", kTrackOnline,
                                 {{"epoch", Tracer::ArgUint(stats_.epochs)}});
          if (!in_quarantine_) {
            // First quarantined epoch of an episode: the retained tail of
            // the trace ring is exactly the evidence that led here.
            obs_->Dump("quarantine");
          }
        }
        in_quarantine_ = true;
        return Status::Ok();
      }
    }
    if (estimator_ != nullptr) {
      estimator_->ObserveEpoch(epoch_calls, epoch_bytes, epoch_latency, epoch_payload);
      stats_.live_slowdown = estimator_->slowdown();
    }
  }

  if (in_quarantine_) {
    in_quarantine_ = false;
    if (obs_ != nullptr) {
      obs_->tracer().Instant("quarantine-exit", "online", kTrackOnline,
                             {{"epoch", Tracer::ArgUint(stats_.epochs)}});
    }
  }

  window_.AdvanceEpoch();

  if (safe_mode_) {
    // Safe mode owns the loop: no evaluations and no migrations over a
    // wire the breaker declared sick — the all-local plan needs neither.
    // The window keeps advancing so evidence stays fresh for the
    // re-promoted plan.
    ++stats_.safe_mode_epochs;
    epoch_span.AddArg("outcome", "safe-mode");
    return Status::Ok();
  }

  last_drift_ = DetectDrift(base_counts_, window_.WindowMessageCounts());
  if (last_drift_.reprofile_recommended) {
    ++stats_.drift_flags;
    if (obs_ != nullptr) {
      obs_->metrics().GetCounter("online.drift_flags")->Add(1);
    }
  }

  // An interrupted migration owns the loop until it completes or is
  // abandoned: recover from its journal and re-attempt before any new
  // evaluation. (Quarantined epochs returned above — recovery waits for a
  // healthy wire rather than re-copying state into a fault episode.)
  if (pending_) {
    if (migration_transport_ == nullptr) {
      // A journal recovered from disk, but this run has no hardened wire
      // to resume over: repair residency and give the migration up —
      // stragglers rent whatever placement recovery left them with.
      Result<RecoveryReport> recovered =
          LiveMigrator::Recover(*system_, pending_->journal);
      if (recovered.ok()) {
        stats_.migration_rollbacks += recovered->instances_rolled_back;
        stats_.migration_wasted_bytes += recovered->wasted_bytes;
      }
      AbandonPendingMigration();
      return Status::Ok();
    }
    return ResumePendingMigration();
  }

  if (cooldown_remaining_ > 0) {
    --cooldown_remaining_;
    return Status::Ok();
  }
  if (!last_drift_.reprofile_recommended) {
    return Status::Ok();
  }

  // Live instance census: what an accepted cut would have to migrate.
  std::unordered_map<ClassificationId, uint64_t> live;
  for (const ObjectSystem::InstanceInfo& info : system_->LiveInstances()) {
    const ClassificationId classification = ClassificationOf(info.id);
    if (classification != kNoClassification) {
      ++live[classification];
    }
  }

  const IccProfile windowed = window_.WindowedProfile(base_profile_, live_registry_);
  // Cut pricing uses the live network estimate when one is maintained —
  // the adaptive loop reacting to measurements, which is precisely what
  // quarantine protects from fault-poisoned epochs.
  const NetworkProfile& pricing = estimator_ != nullptr ? estimator_->live() : network_;
  Result<RepartitionDecision> decision =
      policy_.Evaluate(windowed, pricing, distribution(), live);
  if (!decision.ok()) {
    return decision.status();
  }
  last_decision_ = *decision;
  ++stats_.evaluations;
  if (obs_ != nullptr) {
    obs_->metrics().GetCounter("online.evaluations")->Add(1);
    // Solver-work deltas since the last sync: the policy session's stats
    // are cumulative, the counters are monotone, so each evaluation adds
    // exactly the work this evaluation performed.
    const MinCutSolveStats& cut = policy_.cut_stats();
    obs_->metrics().GetCounter("mincut.pushes")->Add(cut.pushes - sampled_cut_stats_.pushes);
    obs_->metrics()
        .GetCounter("mincut.relabels")
        ->Add(cut.relabels - sampled_cut_stats_.relabels);
    obs_->metrics()
        .GetCounter("mincut.global_relabels")
        ->Add(cut.global_relabels - sampled_cut_stats_.global_relabels);
    sampled_cut_stats_ = cut;
    obs_->tracer().Instant(
        "recut-decision", "online", kTrackOnline,
        {{"epoch", Tracer::ArgUint(stats_.epochs)},
         {"adopt", decision->adopt ? "true" : "false"},
         {"migrate", decision->migrate ? "true" : "false"},
         {"gain_s", Tracer::ArgDouble(decision->gain_seconds())},
         {"move_instances", Tracer::ArgUint(decision->instances_to_move)},
         {"reason", Tracer::ArgString(decision->reason)}});
  }
  COIGN_LOG(kDebug,
            "epoch %llu: %s | current %.4fs proposed %.4fs move %.4fs (%llu instances)",
            static_cast<unsigned long long>(stats_.epochs), decision->reason.c_str(),
            decision->current_seconds, decision->proposed_seconds,
            decision->migration_seconds,
            static_cast<unsigned long long>(decision->instances_to_move));

  if (!decision->adopt) {
    if (decision->reject_cause == RejectCause::kHysteresis) {
      ++stats_.hysteresis_rejections;
    } else if (decision->reject_cause == RejectCause::kMigrationCost) {
      ++stats_.cost_rejections;
    }
    return Status::Ok();
  }

  if (decision->migrate) {
    if (migration_transport_ != nullptr) {
      // Journaled two-phase path: adopt first (the journal's target is the
      // adopted distribution, so resumes after a crash aim at the same
      // cut), then push state through the faulted wire.
      runtime_->AdoptDistribution(decision->proposed);
      PendingMigration pending;
      LiveMigrator migrator = MakeJournaledMigrator();
      Result<MigrationReport> moved =
          migrator.Migrate(*system_, decision->proposed, pending.journal,
                           *migration_transport_, migration_jitter_);
      if (!moved.ok()) {
        return moved.status();
      }
      AbsorbMigrationReport(*moved);
      if (!moved->complete) {
        pending_ = std::move(pending);  // Resume at the next healthy epoch.
      }
      PersistPendingJournal();
    } else {
      // Same migrator construction as the journaled path so both price
      // state from profiled allocations; the model-priced overload simply
      // never consults the journal knobs.
      LiveMigrator migrator = MakeJournaledMigrator();
      Result<MigrationReport> moved =
          migrator.Migrate(*system_, decision->proposed, network_);
      if (!moved.ok()) {
        return moved.status();
      }
      if (charge_) {
        charge_(moved->bytes_transferred, moved->seconds);
      }
      stats_.instances_moved += moved->instances_moved;
      stats_.migration_bytes += moved->bytes_transferred;
      stats_.migration_seconds += moved->seconds;
      runtime_->AdoptDistribution(decision->proposed);
    }
  } else {
    ++stats_.lazy_adoptions;  // Live instances rent the old cut until death.
    runtime_->AdoptDistribution(decision->proposed);
    if (obs_ != nullptr) {
      obs_->metrics().GetCounter("online.lazy_adoptions")->Add(1);
    }
  }
  ++stats_.repartitions;
  cooldown_remaining_ = options_.cooldown_epochs;
  if (obs_ != nullptr) {
    obs_->metrics().GetCounter("online.repartitions")->Add(1);
  }
  epoch_span.AddArg("outcome", "repartitioned");
  return Status::Ok();
}

}  // namespace coign
