#include "src/online/migrator.h"

#include "src/support/str_util.h"

namespace coign {
namespace {

// Destination's copy-ack reply size.
constexpr uint64_t kCopyAckBytes = 64;
// Transport round trips the copy phase may spend per instance before the
// move is journaled rolled-back and deferred (each round trip already
// retries internally under the transport's RetryPolicy).
constexpr int kCopyAttemptsPerInstance = 2;

}  // namespace

std::string MigrationReport::ToString() const {
  std::string out = StrFormat("migration{instances=%llu, bytes=%llu, seconds=%.4f",
                              static_cast<unsigned long long>(instances_moved),
                              static_cast<unsigned long long>(bytes_transferred), seconds);
  if (copy_rpcs > 0 || instances_deferred > 0 || interrupted) {
    out += StrFormat(", rpcs=%llu, wasted=%lluB, deferred=%llu, dedup=%llu%s%s",
                     static_cast<unsigned long long>(copy_rpcs),
                     static_cast<unsigned long long>(wasted_bytes),
                     static_cast<unsigned long long>(instances_deferred),
                     static_cast<unsigned long long>(duplicates_suppressed),
                     complete ? "" : ", incomplete", interrupted ? ", interrupted" : "");
  }
  out += "}";
  return out;
}

std::string RecoveryReport::ToString() const {
  return StrFormat("recovery{redone=%llu, rolled_back=%llu, wasted=%lluB}",
                   static_cast<unsigned long long>(instances_redone),
                   static_cast<unsigned long long>(instances_rolled_back),
                   static_cast<unsigned long long>(wasted_bytes));
}

uint64_t LiveMigrator::StateBytesFor(InstanceId instance) const {
  if (state_size_) {
    const uint64_t bytes = state_size_(instance);
    if (bytes > 0) {
      return bytes;
    }
  }
  return options_.state_bytes_per_instance;
}

Result<MigrationReport> LiveMigrator::Migrate(ObjectSystem& system,
                                              const Distribution& target,
                                              const NetworkProfile& network) const {
  MigrationReport report;
  for (const ObjectSystem::InstanceInfo& info : system.LiveInstances()) {
    const ClassificationId classification = resolver_(info.id);
    if (classification == kNoClassification) {
      continue;
    }
    const MachineId destination = target.MachineFor(classification);
    if (destination == info.machine) {
      continue;
    }
    COIGN_RETURN_IF_ERROR(system.MoveInstance(info.id, destination));
    const uint64_t state_bytes = StateBytesFor(info.id);
    report.instances_moved += 1;
    report.bytes_transferred += state_bytes;
    report.seconds += network.TrafficSeconds(1, state_bytes);
  }
  return report;
}

Result<MigrationReport> LiveMigrator::Migrate(ObjectSystem& system,
                                              const Distribution& target,
                                              MigrationJournal& journal,
                                              Transport& transport,
                                              Rng* jitter_rng) const {
  MigrationReport report;
  // The gate models the coordinator crashing: every journal append and
  // every residency flip is a step the crash can land in front of.
  auto crashed = [&]() {
    if (gate_ && gate_()) {
      report.interrupted = true;
      report.complete = false;
      if (obs_ != nullptr) {
        obs_->metrics().GetCounter("migration.interrupted")->Add();
        obs_->tracer().Instant("migration-crash-gate", "migration",
                               kTrackMigration);
      }
      return true;
    }
    return false;
  };
  // One instant per journal append mirrors the write-ahead protocol into
  // the trace: intent -> prepared -> committed / rolled-back.
  auto note_phase = [&](const MigrationRecord& record) {
    if (obs_ == nullptr) {
      return;
    }
    obs_->tracer().Instant(
        std::string("journal-") + std::string(MigrationPhaseName(record.phase)),
        "migration", kTrackMigration,
        {{"instance", Tracer::ArgUint(record.instance)},
         {"from", Tracer::ArgInt(record.from)},
         {"to", Tracer::ArgInt(record.to)},
         {"bytes", Tracer::ArgUint(record.state_bytes)}});
  };

  for (const ObjectSystem::InstanceInfo& info : system.LiveInstances()) {
    const ClassificationId classification = resolver_(info.id);
    if (classification == kNoClassification) {
      continue;
    }
    const MachineId destination = target.MachineFor(classification);
    if (destination == info.machine) {
      continue;
    }
    // A record already terminal for this instance in this journal belongs
    // to a run that was not recovered yet; leave it to Recover().
    if (const MigrationRecord* last = journal.LastFor(info.id)) {
      if (last->phase == MigrationPhase::kIntent ||
          last->phase == MigrationPhase::kPrepared) {
        return InternalError("journaled migrate over unrecovered in-flight instance " +
                             std::to_string(info.id));
      }
    }

    if (crashed()) {
      return report;
    }
    const uint64_t state_bytes = StateBytesFor(info.id);
    TraceSpan span(obs_ != nullptr ? &obs_->tracer() : nullptr,
                   "migrate-instance", "migration", kTrackMigration);
    span.AddArg("instance", static_cast<uint64_t>(info.id));
    span.AddArg("bytes", state_bytes);
    MigrationRecord record;
    record.instance = info.id;
    record.from = info.machine;
    record.to = destination;
    record.state_bytes = state_bytes;
    record.phase = MigrationPhase::kIntent;
    journal.Append(record);
    note_phase(record);

    // Copy phase: ship the state through the faulted transport until one
    // round trip is acked or the per-instance budget runs out.
    bool copied = false;
    double copy_seconds = 0.0;
    for (int attempt = 0; attempt < kCopyAttemptsPerInstance; ++attempt) {
      const DeliveryReceipt receipt = transport.ReliableRoundTrip(
          info.machine, destination, state_bytes, kCopyAckBytes, jitter_rng);
      report.copy_rpcs += 1;
      report.seconds += receipt.seconds;
      copy_seconds += receipt.seconds;
      report.duplicates_suppressed += receipt.duplicates_suppressed;
      // Every attempt beyond the one that landed re-shipped the state.
      const uint64_t shipped = static_cast<uint64_t>(receipt.attempts);
      report.wasted_bytes += state_bytes * (shipped - (receipt.delivered ? 1 : 0));
      if (receipt.delivered) {
        copied = true;
        break;
      }
    }
    if (!copied) {
      record.phase = MigrationPhase::kRolledBack;
      journal.Append(record);
      note_phase(record);
      report.instances_deferred += 1;
      report.complete = false;
      if (obs_ != nullptr) {
        obs_->metrics().GetCounter("migration.instances_deferred")->Add();
      }
      span.AddArg("outcome", "deferred");
      span.End(copy_seconds);
      continue;
    }

    if (crashed()) {
      span.AddArg("outcome", "interrupted");
      span.End(copy_seconds);
      return report;
    }
    record.phase = MigrationPhase::kPrepared;
    journal.Append(record);
    note_phase(record);

    if (crashed()) {
      span.AddArg("outcome", "interrupted");
      span.End(copy_seconds);
      return report;
    }
    // Commit point: once this record is journaled the destination is
    // authoritative, crash or no crash.
    record.phase = MigrationPhase::kCommitted;
    journal.Append(record);
    note_phase(record);

    if (crashed()) {
      span.AddArg("outcome", "interrupted");
      span.End(copy_seconds);
      return report;
    }
    COIGN_RETURN_IF_ERROR(system.MoveInstance(info.id, destination));
    report.instances_moved += 1;
    report.bytes_transferred += state_bytes;
    if (obs_ != nullptr) {
      obs_->metrics().GetCounter("migration.instances_committed")->Add();
      obs_->metrics().GetCounter("migration.state_bytes")->Add(state_bytes);
    }
    span.AddArg("outcome", "committed");
    span.End(copy_seconds);
  }
  if (obs_ != nullptr && report.wasted_bytes > 0) {
    obs_->metrics().GetCounter("migration.wasted_bytes")->Add(report.wasted_bytes);
  }
  return report;
}

Result<RecoveryReport> LiveMigrator::Recover(ObjectSystem& system,
                                             const MigrationJournal& journal) {
  RecoveryReport report;
  const std::vector<MigrationRecord>& records = journal.records();
  for (const MigrationRecord& record : records) {
    if (journal.LastFor(record.instance) != &record) {
      continue;  // Superseded by a later record for the same instance.
    }
    Result<MachineId> machine = system.MachineOf(record.instance);
    if (!machine.ok()) {
      continue;  // Instance destroyed since; nothing to repair.
    }
    switch (record.phase) {
      case MigrationPhase::kCommitted:
        // Redo: the flip is a fact the moment the record was journaled.
        if (*machine != record.to) {
          COIGN_RETURN_IF_ERROR(system.MoveInstance(record.instance, record.to));
        }
        report.instances_redone += 1;
        break;
      case MigrationPhase::kIntent:
      case MigrationPhase::kPrepared:
        // Roll back: discard the in-flight copy, source stays home.
        if (*machine != record.from) {
          COIGN_RETURN_IF_ERROR(system.MoveInstance(record.instance, record.from));
        }
        report.instances_rolled_back += 1;
        report.wasted_bytes += record.state_bytes;
        break;
      case MigrationPhase::kRolledBack:
        break;  // Already consistent: the move never happened.
    }
  }
  return report;
}

}  // namespace coign
