// The migration write-ahead journal: the durable record the two-phase
// live migrator appends to before every state change it makes.
//
// One migration writes, per moved instance, the sequence
//   intent -> prepared -> committed
// where `prepared` means the destination acked the state copy and
// `committed` is the commit point: once the committed record is journaled,
// the residency flip is a fact and crash recovery redoes it; before that
// record, recovery rolls the instance back to its source and the copy at
// the destination is discarded. A copy that exhausted its retries is
// journaled `rolled-back` immediately — the instance never left its
// source. An instance therefore can never end up double-resident or lost:
// the journal's last record for it names exactly one authoritative home.
//
// The journal serializes to a line-oriented text form (Serialize/Parse
// round-trip exactly) so a service can persist it across restarts; the
// simulation keeps it in memory and "crashes" by abandoning the migrator
// mid-protocol, which leaves precisely the state a real crash would.

#ifndef COIGN_SRC_ONLINE_MIGRATION_JOURNAL_H_
#define COIGN_SRC_ONLINE_MIGRATION_JOURNAL_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/com/types.h"
#include "src/support/status.h"

namespace coign {

enum class MigrationPhase {
  kIntent,     // Move decided; copy not yet acked.
  kPrepared,   // Destination acked the state copy.
  kCommitted,  // Commit point: the destination is authoritative.
  kRolledBack, // Copy abandoned; the source is (still) authoritative.
};

std::string_view MigrationPhaseName(MigrationPhase phase);

struct MigrationRecord {
  MigrationPhase phase = MigrationPhase::kIntent;
  InstanceId instance = kNoInstance;
  MachineId from = kClientMachine;
  MachineId to = kServerMachine;
  uint64_t state_bytes = 0;

  std::string ToString() const;
};

class MigrationJournal {
 public:
  void Append(const MigrationRecord& record);
  void Clear();

  const std::vector<MigrationRecord>& records() const { return records_; }
  bool empty() const { return records_.empty(); }
  size_t size() const { return records_.size(); }

  // The last journaled record for `instance`, or null if never journaled.
  const MigrationRecord* LastFor(InstanceId instance) const;

  // Records that are an instance's *last* word and still in flight
  // (intent/prepared) — what crash recovery must roll back. Append order.
  std::vector<MigrationRecord> InFlight() const;

  // Exact text round-trip for durability across restarts, in the v2
  // format: every record line carries a trailing CRC32C of its own text.
  // Parse tolerates a torn tail — a crash mid-append leaves bytes after
  // the final newline or a truncated final record, and either is dropped
  // (it was never durably written); recovered_torn_tail() reports whether
  // a tail was dropped. Mid-file damage is localized: exactly the records
  // whose CRC or fields no longer check out are skipped and counted in
  // corrupt_skipped() — the caller decides whether to quarantine. A
  // journal in the older v1 format (no CRCs) is rejected with
  // InvalidArgument naming the version found.
  std::string Serialize() const;
  static Result<MigrationJournal> Parse(const std::string& text);

  // Snapshot persistence across process restarts (plan-cache pattern):
  // SaveToFile writes Serialize() atomically enough for the simulator;
  // LoadFromFile parses with torn-tail tolerance.
  Status SaveToFile(const std::string& path) const;
  static Result<MigrationJournal> LoadFromFile(const std::string& path);

  bool recovered_torn_tail() const { return recovered_torn_tail_; }
  // Records dropped by the loader because their checksum (or their
  // contents under a valid checksum) no longer verified.
  size_t corrupt_skipped() const { return corrupt_skipped_; }

  std::string ToString() const;

 private:
  std::vector<MigrationRecord> records_;
  // Instance -> index of its last record, for O(1) outcome queries.
  std::unordered_map<InstanceId, size_t> last_index_;
  bool recovered_torn_tail_ = false;
  size_t corrupt_skipped_ = 0;
};

}  // namespace coign

#endif  // COIGN_SRC_ONLINE_MIGRATION_JOURNAL_H_
