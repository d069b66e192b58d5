#include <gtest/gtest.h>

#include <string>

#include "src/runtime/binary_rewriter.h"
#include "src/runtime/config_record.h"
#include "src/runtime/static_analysis.h"

namespace coign {
namespace {

ApplicationImage SampleImage() {
  ApplicationImage image;
  image.name = "app.exe";
  image.binaries = {"app.exe", "logic.dll"};
  image.import_table = {"ole32.dll", "user32.dll"};
  return image;
}

TEST(ConfigRecordTest, SerializeParseRoundTrip) {
  ConfigurationRecord record;
  record.mode = RuntimeMode::kDistributed;
  record.classifier_kind = ClassifierKind::kEntryPointCalledBy;
  record.classifier_depth = 3;
  record.distribution.placement[4] = kServerMachine;
  record.distribution.placement[9] = kClientMachine;
  record.distribution.default_machine = kClientMachine;
  record.profile_text = "coign-profile v1\nmulti\nline payload";

  Result<ConfigurationRecord> parsed = ConfigurationRecord::Parse(record.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->mode, RuntimeMode::kDistributed);
  EXPECT_EQ(parsed->classifier_kind, ClassifierKind::kEntryPointCalledBy);
  EXPECT_EQ(parsed->classifier_depth, 3);
  EXPECT_EQ(parsed->distribution.placement.at(4), kServerMachine);
  EXPECT_EQ(parsed->distribution.placement.at(9), kClientMachine);
  EXPECT_EQ(parsed->profile_text, record.profile_text);
}

TEST(ConfigRecordTest, DefaultsMatchPaper) {
  ConfigurationRecord record;
  EXPECT_EQ(record.mode, RuntimeMode::kProfiling);
  // "Only one, the internal-function called-by classifier, is typically
  // used" with a complete stack walk.
  EXPECT_EQ(record.classifier_kind, ClassifierKind::kInternalFunctionCalledBy);
  EXPECT_EQ(record.classifier_depth, kCompleteStackWalk);
}

TEST(ConfigRecordTest, ParseRejectsGarbage) {
  EXPECT_FALSE(ConfigurationRecord::Parse("").ok());
  EXPECT_FALSE(ConfigurationRecord::Parse("wrong magic\n").ok());
  EXPECT_FALSE(ConfigurationRecord::Parse("coign-config v1\nunknown x\n").ok());

  // One unreadable field per record kind: each must be rejected with the
  // line number and keyword, never parsed as 0.
  const struct {
    const char* record;
    const char* keyword;
  } kMalformed[] = {
      {"mode x", "mode"},
      {"classifier 0 deep", "classifier"},
      {"default-machine server", "default-machine"},
      {"place 4 x", "place"},
      {"place x 1", "place"},
      {"desc {0000000000000000-0000000000000000} some", "desc"},
      {"profile long", "profile"},
  };
  for (const auto& malformed : kMalformed) {
    Result<ConfigurationRecord> parsed = ConfigurationRecord::Parse(
        std::string("coign-config v1\nmode 1\n") + malformed.record + "\n");
    ASSERT_FALSE(parsed.ok()) << malformed.record;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(parsed.status().message().find("line 3"), std::string::npos)
        << parsed.status().ToString();
    EXPECT_NE(parsed.status().message().find(std::string("'") + malformed.keyword + "'"),
              std::string::npos)
        << parsed.status().ToString();
  }
}

TEST(BinaryRewriterTest, InstrumentInsertsRuntimeFirstAndConfig) {
  BinaryRewriter rewriter;
  const ApplicationImage original = SampleImage();
  EXPECT_FALSE(original.IsInstrumented());

  Result<ApplicationImage> instrumented = rewriter.Instrument(original, ConfigurationRecord());
  ASSERT_TRUE(instrumented.ok());
  EXPECT_TRUE(instrumented->IsInstrumented());
  // "It inserts an entry into the first slot of the application's DLL
  // import table" — the runtime loads before everything else.
  ASSERT_EQ(instrumented->import_table.size(), 3u);
  EXPECT_EQ(instrumented->import_table[0], kCoignRuntimeDll);
  EXPECT_EQ(instrumented->import_table[1], "ole32.dll");
  ASSERT_TRUE(instrumented->config_segment.has_value());
  EXPECT_TRUE(instrumented->ReadConfig().ok());
  // The original is untouched.
  EXPECT_EQ(original.import_table.size(), 2u);
}

TEST(BinaryRewriterTest, DoubleInstrumentationRefused) {
  BinaryRewriter rewriter;
  Result<ApplicationImage> once = rewriter.Instrument(SampleImage(), ConfigurationRecord());
  ASSERT_TRUE(once.ok());
  EXPECT_EQ(rewriter.Instrument(*once, ConfigurationRecord()).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(BinaryRewriterTest, WriteDistributionSwitchesToLightweightRuntime) {
  BinaryRewriter rewriter;
  Result<ApplicationImage> instrumented =
      rewriter.Instrument(SampleImage(), ConfigurationRecord());
  ASSERT_TRUE(instrumented.ok());

  Distribution distribution;
  distribution.placement[2] = kServerMachine;
  Result<ApplicationImage> distributed =
      rewriter.WriteDistribution(*instrumented, distribution, "profile-payload");
  ASSERT_TRUE(distributed.ok());
  Result<ConfigurationRecord> config = distributed->ReadConfig();
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->mode, RuntimeMode::kDistributed);
  EXPECT_EQ(config->distribution.placement.at(2), kServerMachine);
  EXPECT_EQ(config->profile_text, "profile-payload");

  // Not possible on an uninstrumented image.
  EXPECT_EQ(rewriter.WriteDistribution(SampleImage(), distribution, "").status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(BinaryRewriterTest, StripRestoresOriginal) {
  BinaryRewriter rewriter;
  Result<ApplicationImage> instrumented =
      rewriter.Instrument(SampleImage(), ConfigurationRecord());
  ASSERT_TRUE(instrumented.ok());
  const ApplicationImage stripped = rewriter.Strip(*instrumented);
  EXPECT_FALSE(stripped.IsInstrumented());
  EXPECT_EQ(stripped.import_table, SampleImage().import_table);
  EXPECT_FALSE(stripped.config_segment.has_value());
}

TEST(StaticAnalysisTest, ClassifiesKnownApis) {
  EXPECT_EQ(ClassifyApiName("CreateWindowExW"), kApiGui);
  EXPECT_EQ(ClassifyApiName("BitBlt"), kApiGui);
  EXPECT_EQ(ClassifyApiName("ReadFile"), kApiStorage);
  EXPECT_EQ(ClassifyApiName("StgOpenStorage"), kApiStorage);
  EXPECT_EQ(ClassifyApiName("SQLConnect"), kApiOdbc);
  EXPECT_EQ(ClassifyApiName("GetTickCount"), kApiNone);
}

TEST(StaticAnalysisTest, AnalyzeImportsUnionsFlags) {
  EXPECT_EQ(AnalyzeImports({"GetTickCount", "HeapAlloc"}), kApiNone);
  EXPECT_EQ(AnalyzeImports({"CreateWindowExW", "ReadFile"}), kApiGui | kApiStorage);
  EXPECT_EQ(AnalyzeImports({}), kApiNone);
}

TEST(StaticAnalysisTest, UsageStringsReadable) {
  EXPECT_EQ(ApiUsageString(kApiNone), "none");
  EXPECT_EQ(ApiUsageString(kApiGui), "gui");
  EXPECT_EQ(ApiUsageString(kApiGui | kApiStorage | kApiOdbc), "gui|storage|odbc");
}

}  // namespace
}  // namespace coign
