#include "src/profile/log_file.h"

#include <cstdio>

#include <gtest/gtest.h>

#include "src/com/class_registry.h"

#include "src/support/str_util.h"

namespace coign {
namespace {

IccProfile SampleProfile() {
  IccProfile profile;
  ClassificationInfo info;
  info.id = 0;
  info.clsid = Guid::FromName("clsid:Reader");
  info.class_name = "App.Doc Reader";  // Name with a space, on purpose.
  info.api_usage = kApiStorage;
  profile.RecordClassification(info);
  profile.RecordInstantiation(0);
  ClassificationInfo info2;
  info2.id = 3;
  info2.clsid = Guid::FromName("clsid:Ui");
  info2.class_name = "App.Ui";
  info2.api_usage = kApiGui;
  profile.RecordClassification(info2);

  CallKey key;
  key.src = 0;
  key.dst = 3;
  key.iid = Guid::FromName("iid:IView");
  key.method = 2;
  profile.RecordCall(key, 1000, 64, true);
  profile.RecordCall(key, 3, 100000, false);
  profile.RecordCompute(0, 0.125);
  return profile;
}

void ExpectEquivalent(const IccProfile& a, const IccProfile& b) {
  EXPECT_EQ(a.total_calls(), b.total_calls());
  EXPECT_EQ(a.total_bytes(), b.total_bytes());
  EXPECT_DOUBLE_EQ(a.total_compute_seconds(), b.total_compute_seconds());
  EXPECT_EQ(a.SortedClassificationIds(), b.SortedClassificationIds());
  for (ClassificationId id : a.SortedClassificationIds()) {
    const ClassificationInfo* ia = a.FindClassification(id);
    const ClassificationInfo* ib = b.FindClassification(id);
    ASSERT_NE(ib, nullptr);
    EXPECT_EQ(ia->class_name, ib->class_name);
    EXPECT_EQ(ia->clsid, ib->clsid);
    EXPECT_EQ(ia->api_usage, ib->api_usage);
    EXPECT_EQ(ia->instance_count, ib->instance_count);
  }
  ASSERT_EQ(a.calls().size(), b.calls().size());
  for (const auto& [key, summary] : a.calls()) {
    ASSERT_TRUE(b.calls().contains(key));
    const CallSummary& other = b.calls().at(key);
    EXPECT_EQ(summary.requests, other.requests);
    EXPECT_EQ(summary.replies, other.replies);
    EXPECT_EQ(summary.non_remotable_calls, other.non_remotable_calls);
  }
}

TEST(LogFileTest, SerializeParseRoundTrip) {
  const IccProfile profile = SampleProfile();
  Result<IccProfile> parsed = ParseProfile(SerializeProfile(profile));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ExpectEquivalent(profile, *parsed);
}

// The serialized sample profile with field `field` (0 = the keyword) of
// its first `keyword` record replaced by `value`.
std::string DamagedSample(const std::string& keyword, size_t field, const std::string& value) {
  std::vector<std::string> lines = SplitString(SerializeProfile(SampleProfile()), '\n');
  for (std::string& line : lines) {
    std::vector<std::string> fields = SplitString(line, ' ');
    if (fields.size() > field && fields[0] == keyword) {
      fields[field] = value;
      line = JoinStrings(fields, " ");
      break;
    }
  }
  return JoinStrings(lines, "\n");
}

// Expects InvalidArgument naming the line number and record keyword.
void ExpectMalformed(const std::string& text, int line_number, const std::string& keyword) {
  Result<IccProfile> parsed = ParseProfile(text);
  ASSERT_FALSE(parsed.ok()) << text;
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find(StrFormat("line %d", line_number)),
            std::string::npos)
      << parsed.status().ToString();
  EXPECT_NE(parsed.status().message().find("'" + keyword + "'"), std::string::npos)
      << parsed.status().ToString();
}

TEST(LogFileTest, ParseRejectsGarbage) {
  EXPECT_FALSE(ParseProfile("").ok());
  EXPECT_FALSE(ParseProfile("not a profile").ok());
  EXPECT_FALSE(ParseProfile("coign-profile v1\nbogus keyword here\n").ok());

  // One unreadable field per record kind. Before these were rejected, a
  // storage pin whose api_usage read as 0 parsed fine and unpinned the
  // class, moving the whole cut.
  ExpectMalformed(DamagedSample("classification", 3, "x"), 2, "classification");
  ExpectMalformed(DamagedSample("classification", 4, "many"), 2, "classification");
  ExpectMalformed("coign-profile v1\nalloc 0 lots\n", 2, "alloc");
  ExpectMalformed(DamagedSample("compute", 2, "fast"), 3, "compute");
  ExpectMalformed(DamagedSample("compute", 2, "-1.250000000e-01"), 3, "compute");
  ExpectMalformed(DamagedSample("compute", 2, "1e999"), 3, "compute");
  ExpectMalformed(DamagedSample("compute", 2, "nan"), 3, "compute");
  ExpectMalformed(DamagedSample("call", 4, "x"), 5, "call");

  // The undamaged text still parses to the same profile.
  Result<IccProfile> pristine = ParseProfile(DamagedSample("compute", 0, "compute"));
  ASSERT_TRUE(pristine.ok()) << pristine.status().ToString();
  ExpectEquivalent(SampleProfile(), *pristine);
}

TEST(LogFileTest, FileRoundTripAndMerge) {
  const IccProfile profile = SampleProfile();
  const std::string path1 = "/tmp/coign_test_profile1.log";
  const std::string path2 = "/tmp/coign_test_profile2.log";
  ASSERT_TRUE(WriteProfileFile(profile, path1).ok());
  ASSERT_TRUE(WriteProfileFile(profile, path2).ok());

  Result<IccProfile> one = ReadProfileFile(path1);
  ASSERT_TRUE(one.ok());
  ExpectEquivalent(profile, *one);

  // "Log files from multiple profiling scenarios may be combined."
  Result<IccProfile> merged = MergeProfileFiles({path1, path2});
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->total_calls(), profile.total_calls() * 2);
  EXPECT_EQ(merged->total_bytes(), profile.total_bytes() * 2);
  EXPECT_EQ(merged->FindClassification(0)->instance_count, 2u);

  std::remove(path1.c_str());
  std::remove(path2.c_str());
}

TEST(LogFileTest, MissingFileErrors) {
  EXPECT_EQ(ReadProfileFile("/tmp/definitely_missing_coign_profile.log").status().code(),
            StatusCode::kNotFound);
}

TEST(LogFileTest, SerializedFormHasMagicAndSections) {
  const std::string text = SerializeProfile(SampleProfile());
  EXPECT_TRUE(StartsWith(text, "coign-profile v1\n"));
  EXPECT_NE(text.find("classification 0 "), std::string::npos);
  EXPECT_NE(text.find("App.Doc Reader"), std::string::npos);
  EXPECT_NE(text.find("compute 0 "), std::string::npos);
  EXPECT_NE(text.find("call 0 3 "), std::string::npos);
}

}  // namespace
}  // namespace coign
