#include "src/analysis/dot_export.h"

#include <cstdio>

#include <gtest/gtest.h>

#include "src/com/class_registry.h"

namespace coign {
namespace {

IccProfile SmallProfile() {
  IccProfileBuilder profile;
  auto add = [&profile](ClassificationId id, const std::string& name, uint64_t instances) {
    ClassificationInfo info;
    info.id = id;
    info.clsid = Guid::FromName("clsid:" + name);
    info.class_name = name;
    info.instance_count = instances;
    profile.RecordClassification(info);
  };
  add(0, "Gui \"quoted\"", 3);
  add(1, "Reader", 1);
  CallKey key;
  key.src = kNoClassification;  // Driver.
  key.dst = 0;
  key.iid = Guid::FromName("iid:I");
  profile.RecordCall(key, 100, 100, true);
  CallKey pair;
  pair.src = 0;
  pair.dst = 1;
  pair.iid = key.iid;
  profile.RecordCall(pair, 4000, 50, true);
  profile.RecordCall(pair, 10, 10, /*remotable=*/false);
  return profile.Build();
}

AnalysisResult SmallResult() {
  AnalysisResult result;
  result.distribution.placement[0] = kClientMachine;
  result.distribution.placement[1] = kServerMachine;
  return result;
}

TEST(DotExportTest, RendersNodesEdgesAndPlacement) {
  const std::string dot = ExportDistributionDot(SmallProfile(), SmallResult());
  EXPECT_NE(dot.find("graph \"coign\""), std::string::npos);
  // Client node: plain ellipse; server node: filled box.
  EXPECT_NE(dot.find("c0 [label=\"Gui \\\"quoted\\\" x3\", shape=ellipse]"),
            std::string::npos);
  EXPECT_NE(dot.find("c1 [label=\"Reader x1\", shape=box, style=filled"),
            std::string::npos);
  // Driver node present and connected.
  EXPECT_NE(dot.find("driver [label=\"<user/driver>\""), std::string::npos);
  EXPECT_NE(dot.find("c0 -- driver"), std::string::npos);
  // The non-remotable pair renders as the bold black edge.
  EXPECT_NE(dot.find("c0 -- c1 [color=black, penwidth=2.0"), std::string::npos);
}

TEST(DotExportTest, OptionsFilterDriverAndSmallEdges) {
  DotExportOptions options;
  options.include_driver = false;
  options.min_edge_bytes = 1000;
  options.graph_name = "fig";
  const std::string dot = ExportDistributionDot(SmallProfile(), SmallResult(), options);
  EXPECT_EQ(dot.find("driver"), std::string::npos);
  EXPECT_NE(dot.find("graph \"fig\""), std::string::npos);
  // The sub-threshold remotable edge dropped; the non-remotable edge always
  // stays (it is structural, not volumetric)... both c0--c1 calls merge
  // into one abstract edge here, which carries the colocation flag.
  EXPECT_NE(dot.find("c0 -- c1"), std::string::npos);
}

TEST(DotExportTest, WritesParseableFile) {
  const std::string path = "/tmp/coign_dot_test.dot";
  ASSERT_TRUE(WriteDistributionDot(SmallProfile(), SmallResult(), path).ok());
  std::FILE* file = std::fopen(path.c_str(), "r");
  ASSERT_NE(file, nullptr);
  char head[6] = {};
  ASSERT_EQ(std::fread(head, 1, 5, file), 5u);
  std::fclose(file);
  EXPECT_EQ(std::string(head), "graph");
  std::remove(path.c_str());
}

TEST(DotExportTest, RefusesUnwritablePath) {
  EXPECT_FALSE(
      WriteDistributionDot(SmallProfile(), SmallResult(), "/nonexistent/dir/x.dot").ok());
}

}  // namespace
}  // namespace coign
