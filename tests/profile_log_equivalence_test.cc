// Differential test of the one-pass profile log codec against its oracle,
// the stream-and-printf codec it replaced (tests/oracles).
//
// On every scenario log of the three applications, the multi-scenario sets
// and the hand-built sample, the codec must write the oracle's bytes, and
// its parse must re-serialize to the bytes of the oracle's parse (which
// pins calls() order too). On damaged logs the property is one-sided: the
// codec may reject more, but whatever it accepts the oracle accepts, and
// the two parses re-serialize to the same bytes.

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "bench/harness.h"
#include "src/apps/octarine.h"
#include "src/apps/suite.h"
#include "src/profile/log_file.h"
#include "src/support/rng.h"
#include "src/support/str_util.h"
#include "tests/oracles/profile_log_oracle.h"
#include "tests/sample_profile.h"

namespace coign {
namespace {

struct NamedProfile {
  std::string name;
  IccProfile profile;
};

IccProfile Profiled(Application& app, const std::vector<std::string>& ids) {
  Result<IccProfile> profile = ProfileScenarios(app, ids);
  EXPECT_TRUE(profile.ok()) << JoinStrings(ids, "+") << ": " << profile.status().ToString();
  return profile.ok() ? *profile : IccProfile();
}

// The sample with an alloc record and a driver call, so the small log has
// every record kind.
IccProfile SmallProfile() {
  IccProfile profile = SampleProfile();
  profile.RecordAllocation(3, 4096);
  CallKey key;
  key.src = kNoClassification;
  key.dst = 0;
  key.iid = Guid::FromName("iid:IOpen");
  key.method = 1;
  profile.RecordCall(key, 40, 8, true);
  return profile;
}

std::vector<NamedProfile> BuildCorpus() {
  std::vector<NamedProfile> corpus;
  for (const std::unique_ptr<Application>& app : BuildApplicationSuite()) {
    for (const Scenario& scenario : app->Scenarios()) {
      corpus.push_back({scenario.id, Profiled(*app, {scenario.id})});
    }
  }
  std::unique_ptr<Application> octarine = MakeOctarine();
  for (const std::vector<std::string>& set : std::vector<std::vector<std::string>>{
           {"o_oldwp0", "o_oldwp3", "o_oldwp7"}, {"o_oldwp7", "o_mixed9"},
           {"o_newdoc", "o_oldwp3"}}) {
    corpus.push_back({JoinStrings(set, "+"), Profiled(*octarine, set)});
  }
  IccProfile merged;
  for (const char* id : {"o_oldwp0", "o_oldwp3", "o_oldwp7"}) {
    merged.Merge(Profiled(*octarine, {id}));
  }
  corpus.push_back({"merge(o_oldwp0,o_oldwp3,o_oldwp7)", std::move(merged)});
  corpus.push_back({"sample", SampleProfile()});
  corpus.push_back({"small", SmallProfile()});
  return corpus;
}

// Every scenario of the three applications, the multi-scenario sets the
// CLI examples profile (one runtime each, as `coign profile` does), one
// merge of separately profiled logs, and the small sample.
const std::vector<NamedProfile>& Corpus() {
  static const std::vector<NamedProfile> corpus = BuildCorpus();
  return corpus;
}

const IccProfile& CorpusProfile(std::string_view name) {
  for (const NamedProfile& entry : Corpus()) {
    if (entry.name == name) {
      return entry.profile;
    }
  }
  ADD_FAILURE() << "no corpus profile " << name;
  static const IccProfile empty;
  return empty;
}

TEST(ProfileLogEquivalenceTest, CorpusCoversEveryScenario) {
  EXPECT_EQ(Corpus().size(), 25u + 4u + 2u);
  for (const NamedProfile& entry : Corpus()) {
    EXPECT_FALSE(entry.profile.empty()) << entry.name;
  }
}

TEST(ProfileLogEquivalenceTest, SerializerWritesTheOracleBytes) {
  for (const NamedProfile& entry : Corpus()) {
    EXPECT_EQ(SerializeProfile(entry.profile), profile_log_oracle::SerializeProfile(entry.profile))
        << entry.name;
  }
}

TEST(ProfileLogEquivalenceTest, ParseReserializesLikeTheOracle) {
  for (const NamedProfile& entry : Corpus()) {
    const std::string log = SerializeProfile(entry.profile);
    Result<IccProfile> fresh = ParseProfile(log);
    Result<IccProfile> reference = profile_log_oracle::ParseProfile(log);
    ASSERT_TRUE(fresh.ok()) << entry.name << ": " << fresh.status().ToString();
    ASSERT_TRUE(reference.ok()) << entry.name << ": " << reference.status().ToString();
    EXPECT_EQ(SerializeProfile(*fresh), profile_log_oracle::SerializeProfile(*reference))
        << entry.name;
  }
}

// The one-sided property on one (possibly damaged) log. Returns whether
// the codec accepted it.
bool ExpectAgreement(const std::string& text, const std::string& what) {
  Result<IccProfile> fresh = ParseProfile(text);
  if (!fresh.ok()) {
    EXPECT_EQ(fresh.status().code(), StatusCode::kInvalidArgument) << what;
    const std::string& message = fresh.status().message();
    EXPECT_TRUE(StartsWith(message, "profile line ") ||
                message == "missing profile magic header")
        << what << ": " << message;
    return false;
  }
  Result<IccProfile> reference = profile_log_oracle::ParseProfile(text);
  EXPECT_TRUE(reference.ok()) << what << ": the codec accepts what the oracle rejects";
  if (reference.ok()) {
    const std::string written = SerializeProfile(*fresh);
    EXPECT_EQ(written, profile_log_oracle::SerializeProfile(*reference)) << what;
    EXPECT_EQ(written, profile_log_oracle::SerializeProfile(*fresh)) << what;
  }
  return true;
}

// Replacement and insertion bytes: separators, signs, line ends, NUL,
// digits and letters.
const std::string& DamageBytes() {
  static const std::string bytes =
      std::string("-+ \t:;\r\n") + std::string(1, '\0') +
      "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";
  return bytes;
}

// Offsets just past each '\n', plus 0 and the end.
std::vector<size_t> LineBoundaries(const std::string& text) {
  std::vector<size_t> out = {0};
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n') {
      out.push_back(i + 1);
    }
  }
  if (out.back() != text.size()) {
    out.push_back(text.size());
  }
  return out;
}

struct Tally {
  int accepted = 0;
  int rejected = 0;
  void Count(bool ok) { ++(ok ? accepted : rejected); }
};

TEST(ProfileLogEquivalenceTest, EverySmallLogDamageAgrees) {
  const std::string log = SerializeProfile(SmallProfile());
  Tally tally;
  for (size_t i = 0; i < log.size(); ++i) {
    for (const char c : DamageBytes()) {
      std::string substituted = log;
      substituted[i] = c;
      tally.Count(ExpectAgreement(substituted, "substitute byte " + std::to_string(i)));
      std::string inserted = log;
      inserted.insert(i, 1, c);
      tally.Count(ExpectAgreement(inserted, "insert at " + std::to_string(i)));
    }
    std::string deleted = log;
    deleted.erase(i, 1);
    tally.Count(ExpectAgreement(deleted, "delete byte " + std::to_string(i)));
  }
  const std::vector<size_t> boundaries = LineBoundaries(log);
  for (size_t b = 0; b + 1 < boundaries.size(); ++b) {
    const size_t start = boundaries[b];
    const std::string line = log.substr(start, boundaries[b + 1] - start);
    tally.Count(ExpectAgreement(log.substr(0, start), "truncate at line " + std::to_string(b)));
    tally.Count(ExpectAgreement(log.substr(0, start) + line + log.substr(start),
                                "duplicate line " + std::to_string(b)));
  }
  EXPECT_GT(tally.accepted, 100);
  EXPECT_GT(tally.rejected, 1000);
}

// One seeded damage: substitution, deletion, insertion, a duplicated line,
// or truncation at a line boundary.
std::string Damage(std::string text, Rng& rng, std::string* what) {
  const auto pick = [&rng](size_t n) {
    return static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(n) - 1));
  };
  const char c = DamageBytes()[pick(DamageBytes().size())];
  const size_t at = pick(text.size() + 1);
  switch (rng.UniformInt(0, 4)) {
    case 0:
      if (at < text.size()) {
        text[at] = c;
      }
      *what += " sub@" + std::to_string(at);
      break;
    case 1:
      if (at < text.size()) {
        text.erase(at, 1);
      }
      *what += " del@" + std::to_string(at);
      break;
    case 2:
      text.insert(at, 1, c);
      *what += " ins@" + std::to_string(at);
      break;
    case 3: {
      const std::vector<size_t> boundaries = LineBoundaries(text);
      if (boundaries.size() < 2) {
        break;  // Truncated to nothing: no line to duplicate.
      }
      const size_t b = pick(boundaries.size() - 1);
      const size_t start = boundaries[b];
      text.insert(start, text.substr(start, boundaries[b + 1] - start));
      *what += " dup-line " + std::to_string(b);
      break;
    }
    default: {
      const std::vector<size_t> boundaries = LineBoundaries(text);
      const size_t b = boundaries[pick(boundaries.size())];
      text.resize(b);
      *what += " trunc@" + std::to_string(b);
      break;
    }
  }
  return text;
}

TEST(ProfileLogEquivalenceTest, RandomMultiDamageAgrees) {
  constexpr int kVariants = 120;
  const std::string log = SerializeProfile(CorpusProfile("o_oldwp0"));
  Rng rng(2026);
  Tally tally;
  for (int v = 0; v < kVariants; ++v) {
    std::string what = "variant " + std::to_string(v) + ":";
    std::string text = log;
    const int64_t damages = rng.UniformInt(1, 4);
    for (int64_t d = 0; d < damages; ++d) {
      text = Damage(std::move(text), rng, &what);
    }
    tally.Count(ExpectAgreement(text, what));
  }
  EXPECT_GT(tally.accepted, 0);
  EXPECT_GT(tally.rejected, kVariants / 2);
}

}  // namespace
}  // namespace coign
