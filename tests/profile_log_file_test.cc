#include "src/profile/log_file.h"

#include <unistd.h>

#include <cstdio>
#include <filesystem>

#include <gtest/gtest.h>

#include "src/support/str_util.h"
#include "tests/sample_profile.h"

namespace coign {
namespace {

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
    const CallSummary* other = b.FindCall(key);
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(summary.requests, other->requests);
    EXPECT_EQ(summary.replies, other->replies);
    EXPECT_EQ(summary.non_remotable_calls, other->non_remotable_calls);
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

// The serialized sample profile with `line` inserted as line number
// `line_number` (1 = the magic line).
std::string SampleWithLine(size_t line_number, const std::string& line) {
  std::vector<std::string> lines = SplitString(SerializeProfile(SampleProfile()), '\n');
  lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(line_number - 1), line);
  return JoinStrings(lines, "\n");
}

// Line `line_number` of the serialized sample profile.
std::string SampleLine(size_t line_number) {
  return SplitString(SerializeProfile(SampleProfile()), '\n')[line_number - 1];
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

// The sample serializes to five lines:
//   1 coign-profile v1
//   2 classification 0 <clsid> 1 1 App.Doc Reader
//   3 compute 0 1.250000000e-01
//   4 classification 3 <clsid> 2 0 App.Ui
//   5 call 0 3 <iid> 2 1 req 1:1:3 9:1:1000 ; rep 6:1:64 16:1:100000 ;
// so call field 7 is the first request bucket and field 13 the final ';'.
TEST(LogFileTest, ParseRejectsGarbage) {
  EXPECT_FALSE(ParseProfile("").ok());
  EXPECT_FALSE(ParseProfile("not a profile").ok());
  ASSERT_EQ(SampleLine(5).substr(SampleLine(5).find(" req")),
            " req 1:1:3 9:1:1000 ; rep 6:1:64 16:1:100000 ;");

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

  // Every rejection names its line and keyword: a bad GUID, histogram
  // field or marker, an unknown keyword, a whitespace-only line. A magic
  // line ending in \r is no magic line.
  ExpectMalformed(DamagedSample("classification", 2, "{0}"), 2, "classification");
  ExpectMalformed(DamagedSample("call", 3, "{0}"), 5, "call");
  ExpectMalformed(DamagedSample("call", 7, "1;1;3"), 5, "call");
  ExpectMalformed(DamagedSample("call", 10, "rex"), 5, "call");
  ExpectMalformed("coign-profile v1\nbogus keyword here\n", 2, "bogus");
  ExpectMalformed("coign-profile v1\n \t\r\n", 2, "");
  EXPECT_EQ(ParseProfile("coign-profile v1\r\n").status().message(),
            "missing profile magic header");

  // Each number is one whole token: no sign on an unsigned field (the
  // repro: `8:2:-648` wrapped to 2^64 - 648 bytes and `coign analyze`
  // reported 17565277009532 s of potential communication), no '+', no
  // trailing characters, no overflow.
  ExpectMalformed(DamagedSample("call", 7, "8:2:-648"), 5, "call");
  ExpectMalformed(DamagedSample("call", 5, "-1"), 5, "call");
  ExpectMalformed(DamagedSample("classification", 1, "+0"), 2, "classification");
  ExpectMalformed(DamagedSample("classification", 4, "136xyz"), 2, "classification");
  ExpectMalformed(DamagedSample("call", 8, "9:1:1000x"), 5, "call");
  ExpectMalformed(DamagedSample("call", 2, "4294967296"), 5, "call");
  ExpectMalformed(DamagedSample("classification", 4, "18446744073709551616"), 2,
                  "classification");
  ExpectMalformed(DamagedSample("compute", 2, "0x1p-3"), 3, "compute");

  // No fields after a record's last one; each histogram list ends in ';'.
  ExpectMalformed(SampleWithLine(3, "alloc 0 136 7"), 3, "alloc");
  ExpectMalformed(DamagedSample("compute", 2, "1.250000000e-01 x"), 3, "compute");
  ExpectMalformed(DamagedSample("call", 13, "; x"), 5, "call");
  ExpectMalformed(DamagedSample("call", 13, ""), 5, "call");

  // Buckets: index in [0, 40], a non-zero count, and bytes that count of
  // messages can carry in the bucket, checked without overflow.
  ExpectMalformed(DamagedSample("call", 7, "41:1:1"), 5, "call");
  ExpectMalformed(DamagedSample("call", 7, "-1:1:1"), 5, "call");
  ExpectMalformed(DamagedSample("call", 7, "8:0:0"), 5, "call");
  ExpectMalformed(DamagedSample("call", 7, "8:2:99999"), 5, "call");
  ExpectMalformed(DamagedSample("call", 7, "8:2:511"), 5, "call");
  ExpectMalformed(DamagedSample("call", 7, "0:2:3"), 5, "call");
  ExpectMalformed(DamagedSample("call", 7, "40:1:1099511627775"), 5, "call");
  ExpectMalformed(DamagedSample("call", 7, "40:16777216:18446744073709551615"), 5, "call");

  // Classifications are declared once, on a line before any record that
  // names them; a call endpoint may also be the driver.
  ExpectMalformed(SampleWithLine(3, "alloc 5 100"), 3, "alloc");
  ExpectMalformed(SampleWithLine(3, "alloc 3 100"), 3, "alloc");
  ExpectMalformed(SampleWithLine(3, "compute 3 1.000000000e+00"), 3, "compute");
  ExpectMalformed(DamagedSample("call", 1, "5"), 5, "call");
  ExpectMalformed(DamagedSample("call", 2, "5"), 5, "call");
  ExpectMalformed(SampleWithLine(3, SampleLine(2)), 3, "classification");

  // What the rules still let through: the driver endpoint and the edges
  // of each bucket's range.
  for (const std::string& text :
       {DamagedSample("call", 1, "4294967295"), DamagedSample("call", 7, "8:2:512"),
        DamagedSample("call", 7, "8:2:1022"), DamagedSample("call", 7, "0:2:2"),
        DamagedSample("call", 7, "40:1:1099511627776"), SampleWithLine(5, "alloc 3 100")}) {
    EXPECT_TRUE(ParseProfile(text).ok()) << text;
  }

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

TEST(LogFileTest, UnreadableFileErrorsNameThePath) {
  // A directory opens but does not read; that is no missing header.
  const std::string path = (std::filesystem::temp_directory_path() /
                            ("coign_unreadable_" + std::to_string(getpid()) + ".profile"))
                               .string();
  std::filesystem::create_directory(path);
  Result<IccProfile> read = ReadProfileFile(path);
  std::filesystem::remove(path);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kInternal);
  EXPECT_NE(read.status().message().find("cannot read profile file: " + path),
            std::string::npos)
      << read.status().ToString();
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
