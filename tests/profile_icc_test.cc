#include "src/profile/icc_profile.h"

#include <gtest/gtest.h>

#include "src/com/class_registry.h"

namespace coign {
namespace {

CallKey MakeKey(ClassificationId src, ClassificationId dst, MethodIndex method = 0) {
  CallKey key;
  key.src = src;
  key.dst = dst;
  key.iid = Guid::FromName("iid:ITest");
  key.method = method;
  return key;
}

ClassificationInfo MakeInfo(ClassificationId id, const std::string& name,
                            uint32_t api = kApiNone) {
  ClassificationInfo info;
  info.id = id;
  info.clsid = Guid::FromName("clsid:" + name);
  info.class_name = name;
  info.api_usage = api;
  return info;
}

TEST(IccProfileTest, EmptyByDefault) {
  IccProfile profile;
  EXPECT_TRUE(profile.empty());
  EXPECT_EQ(profile.total_calls(), 0u);
  EXPECT_EQ(profile.FindClassification(3), nullptr);
  EXPECT_EQ(profile.FindCall(MakeKey(1, 2)), nullptr);
  EXPECT_TRUE(IccProfileBuilder().Build().empty());
}

TEST(IccProfileTest, RecordCallAggregatesByKey) {
  IccProfileBuilder recording;
  recording.RecordCall(MakeKey(1, 2), 100, 50, true);
  recording.RecordCall(MakeKey(1, 2), 200, 60, true);
  recording.RecordCall(MakeKey(1, 2, /*method=*/1), 5, 5, false);
  const IccProfile profile = recording.Build();
  EXPECT_EQ(profile.total_calls(), 3u);
  EXPECT_EQ(profile.total_bytes(), 100u + 50 + 200 + 60 + 10);
  ASSERT_EQ(profile.calls().size(), 2u);
  const CallSummary* summary = profile.FindCall(MakeKey(1, 2));
  ASSERT_NE(summary, nullptr);
  EXPECT_EQ(summary->call_count(), 2u);
  EXPECT_EQ(summary->requests.total_bytes(), 300u);
  EXPECT_EQ(summary->replies.total_bytes(), 110u);
  EXPECT_EQ(summary->non_remotable_calls, 0u);
  EXPECT_EQ(profile.FindCall(MakeKey(1, 2, 1))->non_remotable_calls, 1u);
  EXPECT_EQ(profile.FindCall(MakeKey(2, 1)), nullptr);
}

TEST(IccProfileTest, ClassificationMetadataAndInstantiation) {
  IccProfileBuilder recording;
  recording.RecordClassification(MakeInfo(7, "Widget", kApiGui));
  recording.RecordInstantiation(7);
  recording.RecordInstantiation(7);
  recording.RecordInstantiation(99);  // Unknown id: ignored.
  const IccProfile profile = recording.Build();
  const ClassificationInfo* info = profile.FindClassification(7);
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->class_name, "Widget");
  EXPECT_EQ(info->instance_count, 2u);
  EXPECT_EQ(info->api_usage, kApiGui);
  EXPECT_EQ(profile.FindClassification(99), nullptr);
}

TEST(IccProfileTest, ComputeAccumulatesPerClassification) {
  IccProfileBuilder recording;
  recording.RecordCompute(2, 1.0);
  recording.RecordCompute(1, 0.5);
  recording.RecordCompute(1, 0.25);
  const IccProfile profile = recording.Build();
  EXPECT_DOUBLE_EQ(profile.ComputeSecondsOf(1), 0.75);
  EXPECT_DOUBLE_EQ(profile.ComputeSecondsOf(2), 1.0);
  EXPECT_DOUBLE_EQ(profile.ComputeSecondsOf(3), 0.0);
  EXPECT_DOUBLE_EQ(profile.total_compute_seconds(), 1.75);
  ASSERT_EQ(profile.compute().size(), 2u);
  EXPECT_EQ(profile.compute()[0].id, 1u);
  EXPECT_EQ(profile.compute()[1].id, 2u);
}

TEST(IccProfileTest, MergeIsAssociativeAccumulation) {
  IccProfileBuilder a;
  a.RecordClassification(MakeInfo(1, "A"));
  a.RecordInstantiation(1);
  a.RecordCall(MakeKey(1, 2), 100, 10, true);
  a.RecordCompute(1, 0.5);

  IccProfileBuilder b;
  b.RecordClassification(MakeInfo(1, "A"));
  b.RecordClassification(MakeInfo(2, "B", kApiStorage));
  b.RecordInstantiation(1);
  b.RecordCall(MakeKey(1, 2), 50, 5, false);
  b.RecordCall(MakeKey(2, 3), 7, 7, true);
  b.RecordCompute(1, 0.5);

  IccProfile merged = a.Build();
  merged.Merge(b.Build());
  EXPECT_EQ(merged.FindClassification(1)->instance_count, 2u);
  EXPECT_EQ(merged.FindClassification(2)->api_usage, kApiStorage);
  EXPECT_EQ(merged.FindCall(MakeKey(1, 2))->call_count(), 2u);
  EXPECT_EQ(merged.FindCall(MakeKey(1, 2))->non_remotable_calls, 1u);
  EXPECT_EQ(merged.total_calls(), 3u);
  EXPECT_DOUBLE_EQ(merged.total_compute_seconds(), 1.0);
  EXPECT_DOUBLE_EQ(merged.ComputeSecondsOf(1), 1.0);
  EXPECT_EQ(merged.SortedClassificationIds(), (std::vector<ClassificationId>{1, 2}));

  // Merging is recording both into one builder.
  IccProfileBuilder both = a;
  both.RecordClassification(MakeInfo(1, "A"));
  both.RecordClassification(MakeInfo(2, "B", kApiStorage));
  both.RecordInstantiation(1);
  both.RecordCall(MakeKey(1, 2), 50, 5, false);
  both.RecordCall(MakeKey(2, 3), 7, 7, true);
  both.RecordCompute(1, 0.5);
  const IccProfile recorded = both.Build();
  ASSERT_EQ(merged.calls().size(), recorded.calls().size());
  for (size_t i = 0; i < merged.calls().size(); ++i) {
    EXPECT_EQ(merged.calls()[i].key, recorded.calls()[i].key);
    EXPECT_EQ(merged.calls()[i].summary.requests, recorded.calls()[i].summary.requests);
    EXPECT_EQ(merged.calls()[i].summary.replies, recorded.calls()[i].summary.replies);
  }
}

TEST(IccProfileTest, InjectCallSummaryUpdatesTotals) {
  IccProfileBuilder recording;
  ExponentialHistogram requests, replies;
  requests.Add(100);
  requests.Add(200);
  replies.Add(10);
  replies.Add(20);
  recording.InjectCallSummary(MakeKey(4, 5), requests, replies, 1);
  const IccProfile profile = recording.Build();
  EXPECT_EQ(profile.total_calls(), 2u);
  EXPECT_EQ(profile.total_bytes(), 330u);
  EXPECT_EQ(profile.FindCall(MakeKey(4, 5))->non_remotable_calls, 1u);
}

// Pair-major order: by the unordered pair, then source, interface and
// method, with the driver (the largest id) last.
TEST(IccProfileTest, CallsComeInPairMajorOrder) {
  const std::vector<CallKey> ascending = {
      MakeKey(0, 0),          MakeKey(0, 1),    MakeKey(0, 1, 2), MakeKey(1, 0),
      MakeKey(1, 0, 1),       MakeKey(2, 0),    MakeKey(0, kNoClassification),
      MakeKey(kNoClassification, 0), MakeKey(1, 1), MakeKey(2, 1),
      MakeKey(kNoClassification, 1), MakeKey(kNoClassification, kNoClassification)};
  for (size_t i = 0; i < ascending.size(); ++i) {
    for (size_t j = 0; j < ascending.size(); ++j) {
      EXPECT_EQ(PairMajorLess(ascending[i], ascending[j]), i < j) << i << " vs " << j;
    }
  }
  // Recorded in reverse, built ascending.
  IccProfileBuilder recording;
  for (auto it = ascending.rbegin(); it != ascending.rend(); ++it) {
    recording.RecordCall(*it, 1, 1, true);
  }
  const IccProfile profile = recording.Build();
  ASSERT_EQ(profile.calls().size(), ascending.size());
  for (size_t i = 0; i < ascending.size(); ++i) {
    EXPECT_EQ(profile.calls()[i].key, ascending[i]) << i;
    EXPECT_NE(profile.FindCall(ascending[i]), nullptr) << i;
  }
}

// FindClassification tries row `id` first (dense classifier ids) and falls
// back to a binary search for sparse ones.
TEST(IccProfileTest, FindClassificationDenseAndSparse) {
  IccProfileBuilder recording;
  for (ClassificationId id : {9u, 0u, 1u, 2u, 40u, 7u}) {
    recording.RecordClassification(MakeInfo(id, "C" + std::to_string(id)));
  }
  const IccProfile profile = recording.Build();
  EXPECT_EQ(profile.SortedClassificationIds(),
            (std::vector<ClassificationId>{0, 1, 2, 7, 9, 40}));
  for (ClassificationId id : {0u, 1u, 2u, 7u, 9u, 40u}) {
    const ClassificationInfo* info = profile.FindClassification(id);
    ASSERT_NE(info, nullptr) << id;
    EXPECT_EQ(info->id, id);
    EXPECT_EQ(info->class_name, "C" + std::to_string(id));
  }
  for (ClassificationId id : {3u, 5u, 8u, 41u, kNoClassification}) {
    EXPECT_EQ(profile.FindClassification(id), nullptr) << id;
  }
}

}  // namespace
}  // namespace coign
