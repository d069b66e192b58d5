#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "src/online/migration_journal.h"

namespace coign {
namespace {

MigrationJournal TestJournal() {
  MigrationJournal journal;
  journal.Append({MigrationPhase::kIntent, 7, kClientMachine, kServerMachine, 512});
  journal.Append({MigrationPhase::kPrepared, 7, kClientMachine, kServerMachine, 512});
  journal.Append({MigrationPhase::kCommitted, 7, kClientMachine, kServerMachine, 512});
  journal.Append({MigrationPhase::kIntent, 9, kServerMachine, kClientMachine, 64});
  journal.Append({MigrationPhase::kRolledBack, 9, kServerMachine, kClientMachine, 64});
  journal.Append({MigrationPhase::kIntent, 11, kClientMachine, kServerMachine, 2048});
  return journal;
}

void ExpectSameRecords(const MigrationJournal& a, const MigrationJournal& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.records()[i].ToString(), b.records()[i].ToString()) << "record " << i;
  }
}

TEST(MigrationJournalPersistTest, SaveLoadRoundTripsExactly) {
  const MigrationJournal journal = TestJournal();
  const std::string path = ::testing::TempDir() + "/coign_journal_roundtrip.txt";
  ASSERT_TRUE(journal.SaveToFile(path).ok());
  Result<MigrationJournal> loaded = MigrationJournal::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameRecords(journal, *loaded);
  EXPECT_FALSE(loaded->recovered_torn_tail());
  // Recovery semantics survive the round trip: instance 11 is still the
  // only one in flight.
  const std::vector<MigrationRecord> in_flight = loaded->InFlight();
  ASSERT_EQ(in_flight.size(), 1u);
  EXPECT_EQ(in_flight[0].instance, 11u);
  EXPECT_EQ(loaded->Serialize(), journal.Serialize());
  std::remove(path.c_str());
}

TEST(MigrationJournalPersistTest, LoadMissingFileIsNotFound) {
  Result<MigrationJournal> loaded =
      MigrationJournal::LoadFromFile(::testing::TempDir() + "/coign_no_such_journal");
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(MigrationJournalPersistTest, BytesAfterFinalNewlineAreDroppedAsTorn) {
  const MigrationJournal journal = TestJournal();
  // A crash mid-append: the new record's bytes made it to disk but not its
  // terminating newline. Those bytes were never durably written.
  const std::string text = journal.Serialize() + "rec intent 13 0 1 99";
  Result<MigrationJournal> parsed = MigrationJournal::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->recovered_torn_tail());
  ExpectSameRecords(journal, *parsed);
  EXPECT_EQ(parsed->LastFor(13), nullptr);
}

TEST(MigrationJournalPersistTest, TruncatedFinalRecordIsDroppedAsTorn) {
  const MigrationJournal journal = TestJournal();
  // The final line has its newline but lost half its fields.
  const std::string text = journal.Serialize() + "rec prepared 13\n";
  Result<MigrationJournal> parsed = MigrationJournal::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->recovered_torn_tail());
  ExpectSameRecords(journal, *parsed);
}

TEST(MigrationJournalPersistTest, DamageBeforeTheTailIsSkippedAndCounted) {
  const MigrationJournal journal = TestJournal();
  std::string text = journal.Serialize();
  // Mangle the first record line: it is covered by later newlines, so this
  // is corruption, not tearing. The v2 CRC localizes it — exactly that
  // record is dropped and counted, the rest of the journal survives.
  const size_t first_rec = text.find("rec intent");
  ASSERT_NE(first_rec, std::string::npos);
  text.replace(first_rec, 10, "rec mangle");
  Result<MigrationJournal> parsed = MigrationJournal::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->corrupt_skipped(), 1u);
  EXPECT_EQ(parsed->size(), journal.size() - 1);
  EXPECT_FALSE(parsed->recovered_torn_tail());
}

// Strips the v2 CRC fields off a serialized journal, producing the older
// v1 form.
std::string ToV1(const MigrationJournal& journal) {
  std::istringstream in(journal.Serialize());
  std::string line;
  std::getline(in, line);  // Header.
  std::string out = "migration-journal v1\n";
  while (std::getline(in, line)) {
    out += line.substr(0, line.find_last_of(' '));
    out += '\n';
  }
  return out;
}

TEST(MigrationJournalPersistTest, V1JournalsAreRejectedByName) {
  // Only v2 (per-record CRCs) parses. A v1 journal is an InvalidArgument
  // that names the version found and the version this build reads — never
  // an empty journal, which would silently drop its in-flight records.
  Result<MigrationJournal> parsed = MigrationJournal::Parse(ToV1(TestJournal()));
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("unsupported version v1"), std::string::npos)
      << parsed.status().ToString();
  EXPECT_NE(parsed.status().message().find("reads v2"), std::string::npos)
      << parsed.status().ToString();
  EXPECT_FALSE(MigrationJournal::Parse("migration-journal v1\n").ok());
  EXPECT_FALSE(MigrationJournal::Parse("not a journal\n").ok());
}

TEST(MigrationJournalPersistTest, FlippedCrcDigitDropsOnlyThatRecord) {
  const MigrationJournal journal = TestJournal();
  std::string text = journal.Serialize();
  // Flip one digit of the second record's CRC field: the record body is
  // intact but no longer proves itself, so it is dropped and counted.
  const size_t second_line_end = text.find('\n', text.find("rec prepared"));
  ASSERT_NE(second_line_end, std::string::npos);
  char& digit = text[second_line_end - 1];
  digit = digit == '0' ? '1' : '0';
  Result<MigrationJournal> parsed = MigrationJournal::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->corrupt_skipped(), 1u);
  EXPECT_EQ(parsed->size(), journal.size() - 1);
  EXPECT_EQ(parsed->LastFor(7)->phase, MigrationPhase::kCommitted);
}

TEST(MigrationJournalPersistTest, EmptyJournalRoundTrips) {
  const MigrationJournal journal;
  Result<MigrationJournal> parsed = MigrationJournal::Parse(journal.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->empty());
  EXPECT_FALSE(parsed->recovered_torn_tail());
}

}  // namespace
}  // namespace coign
