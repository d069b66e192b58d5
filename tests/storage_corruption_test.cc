// Disk-corruption fuzz sweep over the checksummed migration journal (v2).
//
// The storage-integrity contract: a journal snapshot damaged on disk must
// never crash the loader and must never be consumed as garbage. Damage is localized — a single flipped bit loses
// at most the records it touches (skipped and counted), a truncated tail
// is recovered as a torn append — and anything the loader cannot use at
// all (a wrecked header) comes back as a Status like civilized code. The
// exhaustive sweeps run every single-bit flip and every truncation point;
// the seeded random sweep adds byte overwrites and multi-bit damage. Run
// under ASan/UBSan in CI, this is the "never crash, never lie" proof for
// the storage layer.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/online/migration_journal.h"
#include "src/support/rng.h"
#include "src/support/str_util.h"

namespace coign {
namespace {

TEST(StorageCorruptionTest, JournalV2SurvivesEverySingleBitFlipInTheBody) {
  MigrationJournal journal;
  for (InstanceId instance = 1; instance <= 4; ++instance) {
    journal.Append({MigrationPhase::kIntent, instance, kClientMachine,
                    kServerMachine, 64 * instance});
    journal.Append({MigrationPhase::kCommitted, instance, kClientMachine,
                    kServerMachine, 64 * instance});
  }
  const std::string pristine = journal.Serialize();
  const size_t body_start = pristine.find('\n') + 1;

  for (size_t bit = body_start * 8; bit < pristine.size() * 8; ++bit) {
    std::string damaged = pristine;
    damaged[bit / 8] = static_cast<char>(damaged[bit / 8] ^ (1u << (bit % 8)));
    Result<MigrationJournal> parsed = MigrationJournal::Parse(damaged);
    ASSERT_TRUE(parsed.ok()) << "bit " << bit << ": " << parsed.status().ToString();
    EXPECT_GE(parsed->size() + 2, journal.size()) << "bit " << bit;
    // Every surviving record is pristine: its serialized line must appear
    // in the undamaged journal.
    const std::string reserialized = parsed->Serialize();
    for (const std::string& line : SplitString(reserialized, '\n')) {
      if (!line.empty() && line.compare(0, 4, "rec ") == 0) {
        EXPECT_NE(pristine.find(line + "\n"), std::string::npos)
            << "bit " << bit << ": loader invented record: " << line;
      }
    }
  }
}

TEST(StorageCorruptionTest, JournalTruncationIsTearing) {
  MigrationJournal journal;
  for (InstanceId instance = 1; instance <= 3; ++instance) {
    journal.Append({MigrationPhase::kPrepared, instance, kClientMachine,
                    kServerMachine, 128});
  }
  const std::string text = journal.Serialize();
  const size_t body_start = text.find('\n') + 1;
  for (size_t keep = body_start; keep <= text.size(); ++keep) {
    Result<MigrationJournal> parsed = MigrationJournal::Parse(text.substr(0, keep));
    ASSERT_TRUE(parsed.ok())
        << "keep " << keep << ": " << parsed.status().ToString();
    EXPECT_EQ(parsed->corrupt_skipped(), 0u) << "keep " << keep;
    EXPECT_LE(parsed->size(), journal.size()) << "keep " << keep;
    if (keep < text.size()) {
      EXPECT_TRUE(parsed->recovered_torn_tail() || parsed->size() < journal.size() ||
                  keep + 1 == text.size())
          << "keep " << keep;
    }
  }
}

// Damage anywhere — the header included — may fail a load outright, but
// it must fail with a Status, never crash, whatever bytes the disk serves.
// Seeded random damage: bit flips, byte overwrites, truncations, and
// combinations.
TEST(StorageCorruptionTest, RandomDamageNeverCrashesALoader) {
  MigrationJournal journal;
  for (InstanceId instance = 1; instance <= 4; ++instance) {
    journal.Append({MigrationPhase::kIntent, instance, kClientMachine,
                    kServerMachine, 256});
    journal.Append({MigrationPhase::kRolledBack, instance, kClientMachine,
                    kServerMachine, 256});
  }
  const std::string journal_snapshot = journal.Serialize();

  Rng rng(2026);
  const auto damage = [&rng](std::string text) {
    const int rounds = static_cast<int>(rng.UniformInt(1, 3));
    for (int round = 0; round < rounds && !text.empty(); ++round) {
      switch (rng.UniformInt(0, 2)) {
        case 0: {  // Single-bit flip anywhere, header included.
          const size_t bit = static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(text.size()) * 8 - 1));
          text[bit / 8] = static_cast<char>(text[bit / 8] ^ (1u << (bit % 8)));
          break;
        }
        case 1: {  // Byte overwrite with an arbitrary value.
          text[static_cast<size_t>(rng.UniformInt(
              0, static_cast<int64_t>(text.size()) - 1))] =
              static_cast<char>(rng.UniformInt(0, 255));
          break;
        }
        default:  // Truncation.
          text.resize(static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(text.size()))));
      }
    }
    return text;
  };

  for (int trial = 0; trial < 400; ++trial) {
    Result<MigrationJournal> parsed = MigrationJournal::Parse(damage(journal_snapshot));
    if (parsed.ok()) {
      (void)parsed->InFlight();
      (void)parsed->Serialize();
    }
  }
}

}  // namespace
}  // namespace coign
