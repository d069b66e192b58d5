// The online repartitioner: closes the loop the paper's §6 leaves open.
//
// Attached beside a distributed-mode CoignRuntime, it watches every
// inter-component call (MessageCounts-style, O(1) per call) through the
// sliding-window accountant. At each epoch boundary it runs the drift
// detector against the profile the current distribution was computed from;
// when drift fires, it re-runs the analysis engine over the windowed graph
// and asks the rent-or-buy policy whether the better cut is worth the
// migration bill. Accepted cuts are realized immediately: live instances
// are moved by the migrator (state bytes charged to the network) and the
// runtime adopts the new distribution so its component factories place
// future instances per the new cut.

#ifndef COIGN_SRC_ONLINE_REPARTITIONER_H_
#define COIGN_SRC_ONLINE_REPARTITIONER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "src/com/object_system.h"
#include "src/net/network_profiler.h"
#include "src/net/transport.h"
#include "src/online/circuit_breaker.h"
#include "src/online/episode_detector.h"
#include "src/online/migrator.h"
#include "src/online/net_estimator.h"
#include "src/online/policy.h"
#include "src/online/window.h"
#include "src/runtime/drift.h"
#include "src/runtime/rte.h"

namespace coign {

// Epoch boundaries an interrupted/incomplete migration may resume at
// before recovery abandons it (stragglers rent the old placement).
inline constexpr uint64_t kMaxMigrationResumes = 8;

struct OnlineOptions {
  WindowOptions window;
  RepartitionConfig policy;
  AnalysisOptions analysis;
  // Ignored: re-cuts are drift-driven only. Kept because the benchmark
  // (coignbench/workload_online.cc) still sets it.
  uint64_t epochs_per_recut = 0;
  // Epochs to sit still after an accepted repartition (anti-thrash).
  uint64_t cooldown_epochs = 1;
  // Fault-episode quarantine (only effective with a transport probe set).
  QuarantineConfig quarantine;
  // Per-link circuit breaker + degrade-to-local safe mode (only effective
  // with a transport probe set; off by default). While the breaker is
  // open the repartitioner lazily adopts the all-local plan — zero remote
  // ICC, the one cut that needs no healthy wire — and skips evaluations
  // and migration resumes; half-open probes re-promote the saved
  // distributed plan once the link heals.
  BreakerConfig breaker;
  // Non-empty: the pending migration journal is snapshotted to this file
  // after every journaled step, an existing file is recovered from at
  // construction (torn tails tolerated), and the file is removed when the
  // migration completes or is abandoned. An existing file that cannot be
  // parsed (damaged header, unsupported version) is logged and renamed to
  // `<journal_path>.unreadable` for inspection instead of being dropped.
  std::string journal_path;
};

struct OnlineStats {
  uint64_t epochs = 0;
  uint64_t drift_flags = 0;     // Epochs where DetectDrift recommended action.
  uint64_t evaluations = 0;     // Policy evaluations (cut re-runs).
  uint64_t repartitions = 0;    // Accepted, applied repartitions (any kind).
  uint64_t lazy_adoptions = 0;  // Repartitions applied without migrating live state.
  uint64_t hysteresis_rejections = 0;
  uint64_t cost_rejections = 0;  // Rent-or-buy kept the current cut.
  uint64_t instances_moved = 0;
  uint64_t migration_bytes = 0;
  double migration_seconds = 0.0;
  uint64_t fault_episodes = 0;      // Epochs where the fault detector fired.
  uint64_t quarantined_epochs = 0;  // Epochs discarded by the quarantine rule.
  // Journaled-migration path (transport-backed migrations only).
  uint64_t interrupted_migrations = 0;  // Crash-gate hits mid-protocol.
  uint64_t migration_resumes = 0;       // Epoch boundaries that re-entered one.
  uint64_t migration_rollbacks = 0;     // In-flight instances rolled back.
  uint64_t migration_wasted_bytes = 0;  // Retransmitted/discarded state bytes.
  uint64_t duplicates_suppressed = 0;   // Copy retries deduped at the receiver.
  // Circuit-breaker / safe-mode path (only with options.breaker.enabled).
  uint64_t breaker_trips = 0;       // closed -> open transitions.
  uint64_t breaker_reopens = 0;     // Half-open probes that failed.
  uint64_t safe_mode_entries = 0;   // Degrades to the all-local plan.
  uint64_t safe_mode_exits = 0;     // Distributed-plan re-promotions.
  uint64_t safe_mode_epochs = 0;    // Epochs spent degraded.
  // Final live-estimate / fitted per-message ratio (1.0 without a probe).
  double live_slowdown = 1.0;

  std::string ToString() const;
};

class OnlineRepartitioner : public ObjectSystem::Interceptor {
 public:
  // Charged once per applied migration (e.g. into the NetworkAccountant so
  // measured runs pay for their own adaptation).
  using MigrationChargeFn = std::function<void(uint64_t bytes, double seconds)>;

  // `runtime` must be a distributed-mode runtime attached to `system`;
  // `base_profile` is the profile its distribution was computed from. All
  // pointers/references must outlive the repartitioner, and the base
  // profile must not change while it lives: its message counts, which
  // every epoch's drift check compares against, are taken once here.
  // Attaches as an interceptor on construction.
  OnlineRepartitioner(ObjectSystem* system, CoignRuntime* runtime,
                      const IccProfile& base_profile, NetworkProfile network,
                      OnlineOptions options = {});
  ~OnlineRepartitioner() override;

  OnlineRepartitioner(const OnlineRepartitioner&) = delete;
  OnlineRepartitioner& operator=(const OnlineRepartitioner&) = delete;

  void SetMigrationCharge(MigrationChargeFn charge) { charge_ = std::move(charge); }

  // Cumulative transport health, polled per call and per epoch (the network
  // accountant's health() is the canonical source). Setting a probe turns
  // on the fault-aware path: retry-inflated wire traffic weights the
  // window, epochs are screened by the quarantine rule, and cut pricing
  // switches to a live network estimate fed by healthy epochs.
  using TransportProbeFn = std::function<TransportHealth()>;
  void SetTransportProbe(TransportProbeFn probe);

  // Null until a transport probe is set.
  const LiveNetworkEstimator* net_estimator() const { return estimator_.get(); }

  // Switches migration to the journaled two-phase path through `transport`
  // (both must outlive the repartitioner; `jitter_rng` may be null): state
  // copies travel the hardened wire, every step is write-ahead journaled,
  // and an interrupted migration re-enters the policy loop — each healthy
  // epoch boundary runs crash recovery from the journal and re-attempts
  // the stragglers, up to kMaxMigrationResumes. Quarantined epochs do not
  // resume: recovery too waits out detected fault episodes.
  void SetMigrationTransport(Transport* transport, Rng* jitter_rng) {
    migration_transport_ = transport;
    migration_jitter_ = jitter_rng;
  }

  // Simulated coordinator crash for chaos runs: forwarded to the migrator
  // on every journaled migration (see LiveMigrator::CrashGate).
  void SetMigrationCrashGate(LiveMigrator::CrashGate gate) {
    crash_gate_ = std::move(gate);
  }

  // Epoch spans, recut-decision/quarantine instants, migration counters,
  // mincut.* solver-work counters, and flight-recorder dumps on quarantine
  // entry and migration abandonment. `obs` is not owned; null disables
  // instrumentation.
  void SetObservability(Observability* obs);

  // Breaker state for reports and tests; safe_mode() is true while the
  // all-local degraded plan is adopted.
  const CircuitBreaker& breaker() const { return breaker_; }
  bool safe_mode() const { return safe_mode_; }

  bool has_pending_migration() const { return pending_.has_value(); }
  // The pending migration's journal; null when none is in flight.
  const MigrationJournal* pending_journal() const {
    return pending_ ? &pending_->journal : nullptr;
  }

  // Marks an epoch boundary: folds the window, runs drift detection, and
  // repartitions if the policy accepts. Call while the epoch's instances
  // are still live so migration has real state to move.
  Status EndEpoch();

  const OnlineStats& stats() const { return stats_; }
  const DriftReport& last_drift() const { return last_drift_; }
  const RepartitionDecision& last_decision() const { return last_decision_; }
  const Distribution& distribution() const { return runtime_->config().distribution; }
  const SlidingWindowGraph& window() const { return window_; }

  // Classifications observed live that the base profile never saw —
  // the §6 case: usage differing from the profiled scenarios.
  const std::unordered_map<ClassificationId, ClassificationInfo>& live_classifications()
      const {
    return live_registry_;
  }

  // --- ObjectSystem::Interceptor -------------------------------------------
  void OnInstantiated(const ClassDesc& cls, InstanceId id, InstanceId creator) override;
  void OnCallEnd(const ObjectSystem::CallEvent& event, const Status& status) override;
  void OnCompute(InstanceId instance, double seconds) override;

 private:
  ClassificationId ClassificationOf(InstanceId instance) const;
  LiveMigrator MakeJournaledMigrator() const;
  // Folds one journaled migration report into stats and the charge hook.
  void AbsorbMigrationReport(const MigrationReport& report);
  // Recovery + re-attempt of the pending migration at an epoch boundary.
  Status ResumePendingMigration();
  // Snapshots (or removes, when none is pending) the journal file.
  void PersistPendingJournal() const;
  // Gives up on the pending migration: stragglers rent the old placement.
  void AbandonPendingMigration();
  // One breaker epoch: feeds the sample, runs a half-open probe when the
  // breaker asks for one, and moves safe mode to match the state.
  void BreakerTick(const BreakerSample& sample);
  // Half-open probe: synthetic round trips through the migration
  // transport when one is attached, else this epoch's sample verdict.
  bool RunBreakerProbe(const BreakerSample& sample);
  void EnterSafeMode();
  void ExitSafeMode();

  ObjectSystem* system_;
  CoignRuntime* runtime_;
  const IccProfile& base_profile_;
  const MessageCounts base_counts_;  // CountsFromProfile(base_profile_).
  NetworkProfile network_;
  OnlineOptions options_;
  SlidingWindowGraph window_;
  RepartitionPolicy policy_;
  // Metadata (clsid, name, api_usage) for classifications first seen live,
  // registered at instantiation so re-cuts can place and constrain them.
  std::unordered_map<ClassificationId, ClassificationInfo> live_registry_;
  MigrationChargeFn charge_;
  TransportProbeFn probe_;
  std::unique_ptr<LiveNetworkEstimator> estimator_;
  // Probe cursors: per-call (weights retries into the window) and
  // per-epoch (fault detection + estimator feed).
  TransportHealth call_health_;
  TransportHealth epoch_health_;
  OnlineStats stats_;
  DriftReport last_drift_;
  RepartitionDecision last_decision_;
  uint64_t cooldown_remaining_ = 0;
  // Journaled migration path.
  Transport* migration_transport_ = nullptr;  // Not owned; null = model-priced.
  Rng* migration_jitter_ = nullptr;           // Not owned.
  LiveMigrator::CrashGate crash_gate_;
  struct PendingMigration {
    MigrationJournal journal;
    uint64_t resumes = 0;
  };
  std::optional<PendingMigration> pending_;
  // Screens epochs for fault episodes (visible faults and silent
  // latency/payload slowdown) against healthy-epoch baselines.
  FaultEpisodeDetector episode_detector_;
  // Per-link breaker + the distributed plan parked while safe mode holds
  // the all-local cut.
  CircuitBreaker breaker_;
  bool safe_mode_ = false;
  Distribution saved_distribution_;
  Observability* obs_ = nullptr;  // Not owned.
  bool in_quarantine_ = false;    // For quarantine-exit instants.
  // Snapshot of the policy session's cumulative solver stats at the last
  // metrics sync; each evaluation adds the delta to the mincut.* counters.
  MinCutSolveStats sampled_cut_stats_;
};

}  // namespace coign

#endif  // COIGN_SRC_ONLINE_REPARTITIONER_H_
