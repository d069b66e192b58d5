// Differential test of the profile log codec against its oracles
// (tests/oracles): the stream-and-printf codec the one-pass codec replaced,
// and the one-pass parser's hash-map build that the sorted-table loader
// replaced.
//
// On every scenario log of the three applications, the multi-scenario sets
// and the hand-built sample, the codec must write the stream codec's
// bytes, and every log it writes is canonical: parsing and re-serializing
// it gives it back, with its call lines strictly ascending in pair-major
// order. Against the hash-map parser the property is exact on every input
// (pristine logs, their call lines reversed, shuffled or repeated, and
// every damaged log): the loader accepts what it accepts, rejects with the
// same message, and loads an equal profile. Against the stream parser it
// is one-sided: the codec may reject more, but whatever it accepts the
// stream parser accepts, and the two parses re-serialize to the same
// bytes.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench/harness.h"
#include "src/apps/octarine.h"
#include "src/apps/suite.h"
#include "src/profile/log_file.h"
#include "src/support/guid.h"
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
  IccProfileBuilder profile = SampleRecording();
  profile.RecordAllocation(3, 4096);
  CallKey key;
  key.src = kNoClassification;
  key.dst = 0;
  key.iid = Guid::FromName("iid:IOpen");
  key.method = 1;
  profile.RecordCall(key, 40, 8, true);
  return profile.Build();
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

// The key of a call line, or false for any other line.
bool CallKeyOf(std::string_view line, CallKey* key) {
  FieldReader fields(line);
  std::string_view keyword;
  std::string_view iid;
  if (!fields.Read(&keyword) || keyword != "call" || !fields.Read(&key->src) ||
      !fields.Read(&key->dst) || !fields.Read(&iid) || !fields.Read(&key->method)) {
    return false;
  }
  Result<Guid> guid = Guid::Parse(iid);
  EXPECT_TRUE(guid.ok()) << line;
  key->iid = guid.ok() ? *guid : Guid();
  return true;
}

TEST(ProfileLogEquivalenceTest, EveryWrittenLogIsCanonical) {
  for (const NamedProfile& entry : Corpus()) {
    const std::string log = SerializeProfile(entry.profile);
    Result<IccProfile> parsed = ParseProfile(log);
    ASSERT_TRUE(parsed.ok()) << entry.name << ": " << parsed.status().ToString();
    EXPECT_EQ(SerializeProfile(*parsed), log) << entry.name;
    size_t calls = 0;
    CallKey previous;
    for (const std::string& line : SplitString(log, '\n')) {
      CallKey key;
      if (!CallKeyOf(line, &key)) {
        continue;
      }
      EXPECT_TRUE(calls == 0 || PairMajorLess(previous, key)) << entry.name << ": " << line;
      previous = key;
      ++calls;
    }
    EXPECT_EQ(calls, entry.profile.calls().size()) << entry.name;
  }
}

// The profile's tables and totals, exactly.
void ExpectSameProfile(const IccProfile& a, const IccProfile& b, const std::string& what) {
  EXPECT_EQ(SerializeProfile(a), SerializeProfile(b)) << what;
  ASSERT_EQ(a.classifications().size(), b.classifications().size()) << what;
  for (size_t i = 0; i < a.classifications().size(); ++i) {
    const ClassificationInfo& x = a.classifications()[i];
    const ClassificationInfo& y = b.classifications()[i];
    EXPECT_TRUE(x.id == y.id && x.clsid == y.clsid && x.class_name == y.class_name &&
                x.api_usage == y.api_usage && x.instance_count == y.instance_count &&
                x.allocation_bytes == y.allocation_bytes)
        << what << ": classification row " << i;
  }
  ASSERT_EQ(a.compute().size(), b.compute().size()) << what;
  for (size_t i = 0; i < a.compute().size(); ++i) {
    EXPECT_EQ(a.compute()[i].id, b.compute()[i].id) << what;
    EXPECT_EQ(a.compute()[i].seconds, b.compute()[i].seconds) << what;
  }
  ASSERT_EQ(a.calls().size(), b.calls().size()) << what;
  for (size_t i = 0; i < a.calls().size(); ++i) {
    const CallRecord& x = a.calls()[i];
    const CallRecord& y = b.calls()[i];
    EXPECT_TRUE(x.key == y.key && x.summary.requests == y.summary.requests &&
                x.summary.replies == y.summary.replies &&
                x.summary.non_remotable_calls == y.summary.non_remotable_calls)
        << what << ": call row " << i;
  }
  EXPECT_EQ(a.total_calls(), b.total_calls()) << what;
  EXPECT_EQ(a.total_bytes(), b.total_bytes()) << what;
  EXPECT_EQ(a.total_compute_seconds(), b.total_compute_seconds()) << what;
}

// The loader against both oracles on one (possibly damaged or
// non-canonical) log. Returns whether the loader accepted it.
bool ExpectAgreement(const std::string& text, const std::string& what) {
  Result<IccProfile> fresh = ParseProfile(text);
  Result<IccProfile> hash_map = profile_log_oracle::HashMapParseProfile(text);
  EXPECT_EQ(fresh.ok(), hash_map.ok())
      << what << ": " << (fresh.ok() ? hash_map.status() : fresh.status()).ToString();
  if (!fresh.ok()) {
    EXPECT_EQ(fresh.status().code(), StatusCode::kInvalidArgument) << what;
    const std::string& message = fresh.status().message();
    EXPECT_TRUE(StartsWith(message, "profile line ") ||
                message == "missing profile magic header")
        << what << ": " << message;
    if (!hash_map.ok()) {
      EXPECT_EQ(fresh.status().ToString(), hash_map.status().ToString()) << what;
    }
    return false;
  }
  if (hash_map.ok()) {
    ExpectSameProfile(*fresh, *hash_map, what);
  }
  Result<IccProfile> stream = profile_log_oracle::ParseProfile(text);
  EXPECT_TRUE(stream.ok()) << what << ": the codec accepts what the stream parser rejects";
  if (stream.ok()) {
    const std::string written = SerializeProfile(*fresh);
    EXPECT_EQ(written, profile_log_oracle::SerializeProfile(*stream)) << what;
    EXPECT_EQ(written, profile_log_oracle::SerializeProfile(*fresh)) << what;
  }
  return true;
}

// The log with its call lines (all after the header and classification
// records) reordered by `reorder`.
std::string WithCallLines(const std::string& log,
                          const std::function<void(std::vector<std::string>*)>& reorder) {
  std::vector<std::string> head;
  std::vector<std::string> calls;
  for (std::string& line : SplitString(log, '\n')) {
    (StartsWith(line, "call ") ? calls : head).push_back(std::move(line));
  }
  reorder(&calls);
  std::string out;
  for (const std::vector<std::string>* lines : {&head, &calls}) {
    for (const std::string& line : *lines) {
      if (!line.empty()) {
        out += line + "\n";
      }
    }
  }
  return out;
}

// Logs whose call lines are out of order load the profile the canonical
// log holds; a call line repeated far from its twin adds into it.
TEST(ProfileLogEquivalenceTest, NonCanonicalCallOrderLoadsTheSameProfile) {
  Rng rng(23);
  for (const NamedProfile& entry : Corpus()) {
    const std::string log = SerializeProfile(entry.profile);
    const std::string reversed = WithCallLines(
        log, [](std::vector<std::string>* calls) { std::reverse(calls->begin(), calls->end()); });
    const std::string shuffled = WithCallLines(log, [&rng](std::vector<std::string>* calls) {
      for (size_t i = calls->size(); i > 1; --i) {
        std::swap((*calls)[i - 1],
                  (*calls)[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(i) - 1))]);
      }
    });
    const std::string repeated = WithCallLines(log, [](std::vector<std::string>* calls) {
      if (!calls->empty()) {
        calls->push_back(calls->front());
      }
    });
    EXPECT_TRUE(ExpectAgreement(reversed, entry.name + " reversed"));
    EXPECT_TRUE(ExpectAgreement(shuffled, entry.name + " shuffled"));
    EXPECT_TRUE(ExpectAgreement(repeated, entry.name + " repeated"));
    Result<IccProfile> from_reversed = ParseProfile(reversed);
    Result<IccProfile> from_shuffled = ParseProfile(shuffled);
    Result<IccProfile> from_repeated = ParseProfile(repeated);
    ASSERT_TRUE(from_reversed.ok() && from_shuffled.ok() && from_repeated.ok()) << entry.name;
    EXPECT_EQ(SerializeProfile(*from_reversed), log) << entry.name;
    EXPECT_EQ(SerializeProfile(*from_shuffled), log) << entry.name;
    EXPECT_EQ(from_repeated->calls().size(), entry.profile.calls().size()) << entry.name;
    if (!entry.profile.calls().empty()) {
      const CallRecord& first = entry.profile.calls().front();
      const CallSummary* summary = from_repeated->FindCall(first.key);
      ASSERT_NE(summary, nullptr) << entry.name;
      EXPECT_EQ(summary->call_count(), 2 * first.summary.call_count()) << entry.name;
    }
  }
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

// A few seeded multi-damages of every corpus log, canonical and with its
// call lines reversed.
TEST(ProfileLogEquivalenceTest, EveryCorpusLogDamageAgrees) {
  constexpr int kVariantsPerLog = 4;
  Rng rng(2027);
  Tally tally;
  for (const NamedProfile& entry : Corpus()) {
    const std::string log = SerializeProfile(entry.profile);
    const std::string reversed = WithCallLines(
        log, [](std::vector<std::string>* calls) { std::reverse(calls->begin(), calls->end()); });
    for (const std::string* pristine : {&log, &reversed}) {
      for (int v = 0; v < kVariantsPerLog; ++v) {
        std::string what = entry.name + (pristine == &log ? "" : " reversed") + " variant " +
                           std::to_string(v) + ":";
        std::string text = *pristine;
        const int64_t damages = rng.UniformInt(1, 3);
        for (int64_t d = 0; d < damages; ++d) {
          text = Damage(std::move(text), rng, &what);
        }
        tally.Count(ExpectAgreement(text, what));
      }
    }
  }
  EXPECT_GT(tally.accepted, 0);
  EXPECT_GT(tally.rejected, 0);
}

}  // namespace
}  // namespace coign
