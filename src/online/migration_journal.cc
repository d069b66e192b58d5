#include "src/online/migration_journal.h"

#include <sstream>

#include "src/support/crc32c.h"
#include "src/support/file_io.h"
#include "src/support/str_util.h"

namespace coign {

std::string_view MigrationPhaseName(MigrationPhase phase) {
  switch (phase) {
    case MigrationPhase::kIntent:
      return "intent";
    case MigrationPhase::kPrepared:
      return "prepared";
    case MigrationPhase::kCommitted:
      return "committed";
    case MigrationPhase::kRolledBack:
      return "rolled-back";
  }
  return "unknown";
}

namespace {

// The header is "migration-journal v2", the only format this build reads
// and writes.
constexpr char kHeaderTag[] = "migration-journal ";
constexpr char kVersion[] = "v2";

Result<MigrationPhase> PhaseByName(const std::string& name) {
  if (name == "intent") {
    return MigrationPhase::kIntent;
  }
  if (name == "prepared") {
    return MigrationPhase::kPrepared;
  }
  if (name == "committed") {
    return MigrationPhase::kCommitted;
  }
  if (name == "rolled-back") {
    return MigrationPhase::kRolledBack;
  }
  return InvalidArgumentError("unknown migration phase: " + name);
}

}  // namespace

std::string MigrationRecord::ToString() const {
  return StrFormat("%s inst=%llu m%d->m%d %lluB",
                   std::string(MigrationPhaseName(phase)).c_str(),
                   static_cast<unsigned long long>(instance), from, to,
                   static_cast<unsigned long long>(state_bytes));
}

void MigrationJournal::Append(const MigrationRecord& record) {
  last_index_[record.instance] = records_.size();
  records_.push_back(record);
}

void MigrationJournal::Clear() {
  records_.clear();
  last_index_.clear();
}

const MigrationRecord* MigrationJournal::LastFor(InstanceId instance) const {
  auto it = last_index_.find(instance);
  return it == last_index_.end() ? nullptr : &records_[it->second];
}

std::vector<MigrationRecord> MigrationJournal::InFlight() const {
  std::vector<MigrationRecord> in_flight;
  for (size_t i = 0; i < records_.size(); ++i) {
    const MigrationRecord& record = records_[i];
    auto it = last_index_.find(record.instance);
    if (it == last_index_.end() || it->second != i) {
      continue;  // Superseded by a later record.
    }
    if (record.phase == MigrationPhase::kIntent ||
        record.phase == MigrationPhase::kPrepared) {
      in_flight.push_back(record);
    }
  }
  return in_flight;
}

std::string MigrationJournal::Serialize() const {
  // Each record line ends with the CRC32C of its own body, so the loader
  // can localize mid-file damage to single records instead of rejecting
  // the whole journal.
  std::string out = StrFormat("%s%s\n", kHeaderTag, kVersion);
  for (const MigrationRecord& record : records_) {
    const std::string body =
        StrFormat("rec %s %llu %d %d %llu",
                  std::string(MigrationPhaseName(record.phase)).c_str(),
                  static_cast<unsigned long long>(record.instance), record.from,
                  record.to, static_cast<unsigned long long>(record.state_bytes));
    out += body;
    out += StrFormat(" %08x\n", Crc32c(body));
  }
  return out;
}

namespace {

// Parses one record body ("rec <phase> <instance> <from> <to> <bytes>").
Result<MigrationRecord> ParseRecordLine(const std::string& line) {
  std::istringstream fields(line);
  std::string tag, phase_name;
  MigrationRecord record;
  unsigned long long instance = 0, bytes = 0;
  if (!(fields >> tag >> phase_name >> instance >> record.from >> record.to >> bytes) ||
      tag != "rec") {
    return InvalidArgumentError("migration journal: bad record: " + line);
  }
  Result<MigrationPhase> phase = PhaseByName(phase_name);
  if (!phase.ok()) {
    return phase.status();
  }
  record.phase = *phase;
  record.instance = static_cast<InstanceId>(instance);
  record.state_bytes = static_cast<uint64_t>(bytes);
  return record;
}

}  // namespace

Result<MigrationJournal> MigrationJournal::Parse(const std::string& text) {
  // Durability boundary: a record exists only once its terminating newline
  // is on disk. A crash mid-append leaves a torn tail — bytes after the
  // last newline, or a final terminated line whose CRC field was cut
  // short — and recovery must treat exactly that suffix as never written.
  // Earlier records are covered by later newlines, so damage there is
  // corruption, not tearing.
  const size_t last_newline = text.find_last_of('\n');
  bool torn = last_newline == std::string::npos || last_newline + 1 < text.size();
  const std::string body =
      last_newline == std::string::npos ? "" : text.substr(0, last_newline + 1);

  std::istringstream in(body);
  std::string line;
  if (!std::getline(in, line) || !StartsWith(line, kHeaderTag)) {
    return InvalidArgumentError("migration journal: bad header");
  }
  const std::string version = line.substr(std::string_view(kHeaderTag).size());
  if (version != kVersion) {
    return InvalidArgumentError(
        StrFormat("migration journal: unsupported version %s (this build reads %s)",
                  version.c_str(), kVersion));
  }
  std::vector<std::string> lines;
  while (std::getline(in, line)) {
    if (!line.empty()) {
      lines.push_back(line);
    }
  }
  MigrationJournal journal;
  for (size_t i = 0; i < lines.size(); ++i) {
    // Verify the trailing CRC before trusting a word of the record. A
    // final line whose CRC field never finished is a torn append; any
    // earlier line that fails to verify — or parses to garbage under a
    // valid checksum — is corruption, skipped and counted so the caller
    // can quarantine instead of losing the whole journal.
    const size_t space = lines[i].find_last_of(' ');
    uint64_t expected = 0;
    if (space == std::string::npos ||
        !ParseLowerHex(std::string_view(lines[i]).substr(space + 1), 8, &expected)) {
      if (i + 1 == lines.size()) {
        torn = true;
        break;
      }
      ++journal.corrupt_skipped_;
      continue;
    }
    const std::string record_body = lines[i].substr(0, space);
    if (Crc32c(record_body) != expected) {
      ++journal.corrupt_skipped_;
      continue;
    }
    Result<MigrationRecord> record = ParseRecordLine(record_body);
    if (!record.ok()) {
      ++journal.corrupt_skipped_;
      continue;
    }
    journal.Append(*record);
  }
  journal.recovered_torn_tail_ = torn;
  return journal;
}

Status MigrationJournal::SaveToFile(const std::string& path) const {
  return WriteFile(path, Serialize(), "migration journal");
}

Result<MigrationJournal> MigrationJournal::LoadFromFile(const std::string& path) {
  Result<std::string> text = ReadFile(path, "migration journal");
  if (!text.ok()) {
    return text.status();
  }
  return Parse(*text);
}

std::string MigrationJournal::ToString() const {
  std::string out = StrFormat("journal{%zu records", records_.size());
  const std::vector<MigrationRecord> in_flight = InFlight();
  if (!in_flight.empty()) {
    out += StrFormat(", %zu in flight", in_flight.size());
  }
  if (corrupt_skipped_ > 0) {
    out += StrFormat(", %zu corrupt skipped", corrupt_skipped_);
  }
  out += "}";
  return out;
}

}  // namespace coign
