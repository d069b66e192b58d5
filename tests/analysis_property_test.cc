// Property sweep: on randomly generated small profiles, the analysis
// engine's distribution is *exactly optimal* — equal in predicted
// communication time to the best of all constraint-respecting partitions
// found by brute force. This is the paper's claim that the two-way
// lift-to-front cut is exact, verified end to end through the engine
// (constraints, graph construction, and cut together).

#include <gtest/gtest.h>

#include "src/analysis/engine.h"
#include "src/analysis/prediction.h"
#include "src/com/class_registry.h"
#include "src/support/rng.h"

namespace coign {
namespace {

struct RandomProfile {
  IccProfile profile;
  std::vector<ClassificationId> free_ids;  // Not pinned by API usage.
};

RandomProfile MakeRandomProfile(Rng& rng) {
  RandomProfile out;
  IccProfileBuilder recording;
  const int n = static_cast<int>(rng.UniformInt(3, 9));
  for (int i = 0; i < n; ++i) {
    ClassificationInfo info;
    info.id = static_cast<ClassificationId>(i);
    info.clsid = Guid::FromName("clsid:R" + std::to_string(i));
    info.class_name = "R" + std::to_string(i);
    // First classification is GUI (client pin), second storage (server
    // pin), the rest free.
    info.api_usage = i == 0 ? kApiGui : i == 1 ? kApiStorage : kApiNone;
    info.instance_count = 1;
    recording.RecordClassification(info);
    if (info.api_usage == kApiNone) {
      out.free_ids.push_back(info.id);
    }
  }
  // Random communication, including some driver edges.
  for (int a = -1; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      if (!rng.Bernoulli(0.5)) {
        continue;
      }
      CallKey key;
      key.src = a < 0 ? kNoClassification : static_cast<ClassificationId>(a);
      key.dst = static_cast<ClassificationId>(b);
      key.iid = Guid::FromName("iid:IRand");
      const int calls = static_cast<int>(rng.UniformInt(1, 20));
      for (int c = 0; c < calls; ++c) {
        recording.RecordCall(key, static_cast<uint64_t>(rng.UniformInt(16, 4096)),
                             static_cast<uint64_t>(rng.UniformInt(16, 4096)), true);
      }
    }
  }
  out.profile = recording.Build();
  return out;
}

NetworkProfile Net() {
  NetworkProfile network;
  network.per_message_seconds = 1e-3;
  network.seconds_per_byte = 1e-6;
  return network;
}

class EngineOptimalityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineOptimalityTest, CutMatchesBruteForceOptimum) {
  Rng rng(GetParam());
  const RandomProfile random = MakeRandomProfile(rng);

  ProfileAnalysisEngine engine;
  Result<AnalysisResult> analysis = engine.Analyze(random.profile, Net());
  ASSERT_TRUE(analysis.ok()) << analysis.status().ToString();

  // Brute force: enumerate all placements of the free classifications,
  // with the GUI pinned client and storage pinned server.
  double best = 1e300;
  const size_t free_count = random.free_ids.size();
  for (uint64_t mask = 0; mask < (uint64_t{1} << free_count); ++mask) {
    Distribution candidate;
    candidate.placement[0] = kClientMachine;
    candidate.placement[1] = kServerMachine;
    for (size_t i = 0; i < free_count; ++i) {
      candidate.placement[random.free_ids[i]] =
          (mask >> i) & 1 ? kServerMachine : kClientMachine;
    }
    best = std::min(best,
                    PredictCommunicationSeconds(random.profile, candidate, Net()));
  }

  EXPECT_NEAR(analysis->predicted_comm_seconds, best, best * 1e-9 + 1e-12)
      << "engine cut is not optimal for seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineOptimalityTest,
                         ::testing::Range(uint64_t{9000}, uint64_t{9024}));

}  // namespace
}  // namespace coign
