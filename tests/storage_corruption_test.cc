// Disk-corruption fuzz sweep over the checksummed persistence formats.
//
// The storage-integrity contract: a plan-cache (v4) or migration-journal
// (v2) snapshot damaged on disk must never crash the loader and must never
// be consumed as garbage. Damage is localized — a single flipped bit loses
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

#include "src/fleet/plan_cache.h"
#include "src/online/migration_journal.h"
#include "src/support/rng.h"
#include "src/support/str_util.h"

namespace coign {
namespace {

AnalysisResult FuzzPlan(double seconds) {
  AnalysisResult plan;
  plan.predicted_comm_seconds = seconds;
  plan.total_comm_seconds = seconds * 3.0 + 0.1;
  plan.client_classifications = 2;
  plan.server_classifications = 1;
  plan.client_instances = 6;
  plan.server_instances = 1;
  plan.non_remotable_pairs = 1;
  plan.distribution.default_machine = kClientMachine;
  plan.distribution.placement[0] = kClientMachine;
  plan.distribution.placement[1] = kServerMachine;
  CutEdgeReport edge;
  edge.client_side = 1;
  edge.server_side = 2;
  edge.seconds = seconds / 7.0;
  plan.cut_edges.push_back(edge);
  return plan;
}

// A populated v4 snapshot with several records (placement and edge lines
// included), the base artifact every sweep damages.
std::string CacheSnapshotV4(size_t entries) {
  PlanCache cache(entries);
  for (size_t i = 0; i < entries; ++i) {
    cache.Insert(PlanCacheKey{10 + i, CohortKey{static_cast<int32_t>(i), 1}},
                 FuzzPlan(0.125 * (i + 1)));
  }
  return cache.Serialize();
}

// Record blocks (record lines + their crc line) of a v4 snapshot — the
// units a loader is allowed to keep or drop, never to alter.
std::vector<std::string> V4Blocks(const std::string& snapshot) {
  std::vector<std::string> blocks;
  std::string block;
  for (const std::string& line : SplitString(snapshot, '\n')) {
    if (line.empty() || line.compare(0, 11, "plan-cache ") == 0) {
      continue;
    }
    block += line;
    block += '\n';
    if (line.compare(0, 4, "crc ") == 0) {
      blocks.push_back(block);
      block.clear();
    }
  }
  return blocks;
}

// The "never lie" oracle: every record a damaged load kept must be byte
// identical to a record of the pristine snapshot.
void ExpectSurvivorsArePristine(PlanCache& reloaded, const std::string& pristine,
                                const std::string& context) {
  for (const std::string& block : V4Blocks(reloaded.Serialize())) {
    EXPECT_NE(pristine.find(block), std::string::npos)
        << context << ": loader invented record:\n" << block;
  }
}

TEST(StorageCorruptionTest, CacheV4SurvivesEverySingleBitFlipInTheBody) {
  const std::string pristine = CacheSnapshotV4(4);
  const size_t body_start = pristine.find('\n') + 1;
  const size_t records = V4Blocks(pristine).size();
  ASSERT_EQ(records, 4u);

  for (size_t bit = body_start * 8; bit < pristine.size() * 8; ++bit) {
    std::string damaged = pristine;
    damaged[bit / 8] = static_cast<char>(damaged[bit / 8] ^ (1u << (bit % 8)));
    PlanCache cache(8);
    const Status status = cache.Load(damaged);
    ASSERT_TRUE(status.ok()) << "bit " << bit << ": " << status.ToString();
    const uint64_t skipped = cache.stats().corrupt_skipped;
    // One flipped bit damages at most two records (a destroyed newline or
    // crc line merges neighbors); everything else loads untouched.
    EXPECT_GE(cache.size() + 2, records) << "bit " << bit;
    EXPECT_LE(skipped, 2u) << "bit " << bit;
    EXPECT_GE(cache.size() + skipped + 1, records) << "bit " << bit;
    ExpectSurvivorsArePristine(cache, pristine, StrFormat("bit %zu", bit));
  }
}

TEST(StorageCorruptionTest, CacheV4SurvivesEveryTruncationPoint) {
  const std::string pristine = CacheSnapshotV4(4);
  const size_t body_start = pristine.find('\n') + 1;
  const size_t records = V4Blocks(pristine).size();

  for (size_t keep = body_start; keep <= pristine.size(); ++keep) {
    PlanCache cache(8);
    const Status status = cache.Load(pristine.substr(0, keep));
    ASSERT_TRUE(status.ok()) << "keep " << keep << ": " << status.ToString();
    // Truncation is tearing, not corruption: complete blocks load, the
    // cut-off tail is dropped without a corruption count.
    EXPECT_EQ(cache.stats().corrupt_skipped, 0u) << "keep " << keep;
    EXPECT_LE(cache.size(), records) << "keep " << keep;
    ExpectSurvivorsArePristine(cache, pristine, StrFormat("keep %zu", keep));
  }
}

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
  const std::string cache_snapshot = CacheSnapshotV4(4);

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
    PlanCache cache(8);
    if (cache.Load(damage(cache_snapshot)).ok()) {
      (void)cache.Serialize();  // A surviving cache must still function.
    }
    Result<MigrationJournal> parsed = MigrationJournal::Parse(damage(journal_snapshot));
    if (parsed.ok()) {
      (void)parsed->InFlight();
      (void)parsed->Serialize();
    }
  }
}

}  // namespace
}  // namespace coign
