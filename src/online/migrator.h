// The live migrator: relocates running component instances between
// machines inside the ObjectSystem to realize a newly adopted distribution.
//
// The paper's component factories place instances at *instantiation* time;
// adapting a running application additionally requires moving instances
// that already exist. The migrator walks the live instance table (sorted
// by id, so runs are deterministic) and moves every instance whose
// classification landed on the other side of the new cut.
//
// Two migration paths:
//
//  - The model-priced path bills each move one state message priced by a
//    NetworkProfile. The wire is assumed perfect; this is the fault-free
//    planning estimate.
//
//  - The journaled two-phase path pushes each instance's state through
//    the hardened net::Transport — so drops, Gilbert-Elliott bursts,
//    partitions, and crashes hit the copy — and write-ahead journals
//    every step:   intent -> (copy acked) prepared -> committed.
//    The committed journal record is the commit point; only after it is
//    durable does the migrator flip residency in the ObjectSystem. A
//    crash at ANY point (simulated by the CrashGate firing) leaves a
//    journal from which Recover() restores the one-home-per-instance
//    invariant: committed records are redone (flip to destination),
//    in-flight intent/prepared records are rolled back (stay at source,
//    destination copy discarded). Never double-resident, never lost.

#ifndef COIGN_SRC_ONLINE_MIGRATOR_H_
#define COIGN_SRC_ONLINE_MIGRATOR_H_

#include <cstdint>
#include <functional>
#include <string>

#include "src/com/object_system.h"
#include "src/graph/distribution.h"
#include "src/net/network_profiler.h"
#include "src/net/transport.h"
#include "src/obs/obs.h"
#include "src/online/migration_journal.h"
#include "src/support/rng.h"
#include "src/support/status.h"

namespace coign {

struct MigrationOptions {
  // Modeled serialized state per instance, shipped in one request message.
  // The fallback when no per-instance state-size resolver is set (or the
  // resolver has no allocation data for an instance's classification).
  uint64_t state_bytes_per_instance = 4096;
};

struct MigrationReport {
  uint64_t instances_moved = 0;
  uint64_t bytes_transferred = 0;  // State bytes that reached committed moves.
  double seconds = 0.0;
  // Journaled-path accounting.
  uint64_t instances_deferred = 0;     // Copy exhausted its budget; rolled back.
  uint64_t wasted_bytes = 0;           // Retransmitted or abandoned state bytes.
  uint64_t copy_rpcs = 0;              // Transport round trips issued.
  uint64_t duplicates_suppressed = 0;  // Receiver-side dedup of copy retries.
  bool complete = true;    // Every wanted move committed (none deferred).
  bool interrupted = false;  // The crash gate fired mid-protocol.

  std::string ToString() const;
};

// What crash recovery did with a journal.
struct RecoveryReport {
  uint64_t instances_redone = 0;       // Committed: residency flip re-applied.
  uint64_t instances_rolled_back = 0;  // In flight: source stays authoritative.
  uint64_t wasted_bytes = 0;           // State bytes of discarded in-flight copies.

  std::string ToString() const;
};

class LiveMigrator {
 public:
  // Maps a live instance to its classification; return kNoClassification
  // for unclassified instances (they stay put — nothing is known of them).
  using ClassificationResolver = std::function<ClassificationId(InstanceId)>;

  // Simulated coordinator crash: consulted once before every journal
  // append and every residency flip. Returning true abandons the
  // migration at exactly that point — journal and ObjectSystem are left
  // as a real crash would leave them, for Recover() to repair.
  using CrashGate = std::function<bool()>;

  LiveMigrator(const MigrationOptions& options, ClassificationResolver resolver)
      : options_(options), resolver_(std::move(resolver)) {}

  // Serialized state size of one live instance, in bytes. Profiled
  // allocation drives this (heterogeneous components ship heterogeneous
  // state); returning 0 falls back to options().state_bytes_per_instance.
  using StateSizeResolver = std::function<uint64_t(InstanceId)>;

  const MigrationOptions& options() const { return options_; }
  void SetCrashGate(CrashGate gate) { gate_ = std::move(gate); }
  void SetStateSizeResolver(StateSizeResolver resolver) {
    state_size_ = std::move(resolver);
  }
  // Per-phase journal instants, per-instance copy spans, and migration
  // counters. `obs` is not owned; null disables instrumentation.
  void SetObservability(Observability* obs) { obs_ = obs; }

  // Model-priced path: moves every live instance whose classification's
  // machine under `target` differs from where the instance currently
  // runs. Charges each move one state message priced by `network`.
  Result<MigrationReport> Migrate(ObjectSystem& system, const Distribution& target,
                                  const NetworkProfile& network) const;

  // Journaled two-phase path: same move set, but each copy travels
  // through `transport` (faults and retries included) and every protocol
  // step is journaled first. Appends to `journal` (callers keep it across
  // resumes); instances whose last journal record is already committed or
  // rolled-back are *not* re-examined here — run Recover() first, then a
  // fresh Migrate() naturally re-attempts rolled-back stragglers because
  // they still sit on the wrong machine. Returns with interrupted=true
  // the moment the crash gate fires.
  Result<MigrationReport> Migrate(ObjectSystem& system, const Distribution& target,
                                  MigrationJournal& journal, Transport& transport,
                                  Rng* jitter_rng) const;

  // Crash recovery from a journal: redo committed flips, roll in-flight
  // instances back to their source. Idempotent — recovering twice leaves
  // residency identical. After Recover() every journaled instance has
  // exactly one home.
  static Result<RecoveryReport> Recover(ObjectSystem& system,
                                        const MigrationJournal& journal);

 private:
  uint64_t StateBytesFor(InstanceId instance) const;

  MigrationOptions options_;
  ClassificationResolver resolver_;
  CrashGate gate_;
  StateSizeResolver state_size_;
  Observability* obs_ = nullptr;  // Not owned.
};

}  // namespace coign

#endif  // COIGN_SRC_ONLINE_MIGRATOR_H_
