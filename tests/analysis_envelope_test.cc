// The exact cut envelope against a brute-force lower envelope
// (tests/oracles/envelope_oracle.h) on seeded random small profiles, plus
// exact solves inside every segment, the lookup's breakpoint rule, the
// overflow rule and the envelopes of real scenario profiles.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/analysis/engine.h"
#include "src/analysis/envelope.h"
#include "src/apps/suite.h"
#include "src/mincut/push_relabel.h"
#include "src/support/rng.h"
#include "tests/oracles/envelope_oracle.h"
#include "tests/oracles/fleet_oracle.h"

namespace coign {
namespace {

constexpr int kRandomProfiles = 500;

CallKey Call(ClassificationId src, ClassificationId dst) {
  CallKey key;
  key.src = src;
  key.dst = dst;
  key.iid = Guid::FromName("iid:IEnvelopeTest");
  return key;
}

void Declare(IccProfile& profile, ClassificationId id, uint32_t api) {
  ClassificationInfo info;
  info.id = id;
  info.clsid = Guid::FromName("clsid:" + std::to_string(id));
  info.class_name = "C" + std::to_string(id);
  info.api_usage = api;
  info.instance_count = 1 + id % 3;
  profile.RecordClassification(info);
}

// Up to 10 classifications plus the driver, with pins, non-remotable
// pairs, zero-traffic classifications and twins (distinct cuts on one
// line). Odd seeds draw byte sizes from a narrow set, so lines often tie
// or are collinear; even seeds from a wide one, so bytes per message vary
// by edge and envelopes have several cuts.
IccProfile RandomProfile(uint64_t seed) {
  Rng rng(seed);
  IccProfile profile;
  const int count = static_cast<int>(rng.UniformInt(1, 10));
  std::vector<ClassificationId> ids;
  for (int i = 0; i < count; ++i) {
    const ClassificationId id = static_cast<ClassificationId>(3 * i + 1);
    // The first classification anchors the server side.
    const int64_t kind = i == 0 ? 1 : rng.UniformInt(0, 7);
    Declare(profile, id, kind == 0 ? kApiGui : kind == 1 ? kApiStorage : kApiNone);
    ids.push_back(id);
  }
  const int64_t narrow[] = {0, 8, 16, 24, 32, 48};
  const int64_t wide[] = {0, 4, 32, 256, 2048, 16384};
  const int64_t* sizes = seed % 2 == 1 ? narrow : wide;
  const int calls = static_cast<int>(rng.UniformInt(count, 4 * count));
  for (int c = 0; c < calls; ++c) {
    const ClassificationId src = rng.Bernoulli(0.35)
                                     ? kNoClassification
                                     : ids[static_cast<size_t>(rng.UniformInt(0, count - 1))];
    const ClassificationId dst = ids[static_cast<size_t>(rng.UniformInt(0, count - 1))];
    const bool remotable = !rng.Bernoulli(0.05);
    const uint64_t request = static_cast<uint64_t>(sizes[rng.UniformInt(0, 5)]);
    const uint64_t reply = static_cast<uint64_t>(sizes[rng.UniformInt(0, 5)]);
    const int64_t repeats = rng.UniformInt(1, 4);
    // A twin copies the call onto the next classification, so swapping
    // the two moves the cut but not its traffic.
    const bool twin = rng.Bernoulli(0.2) && dst != ids.back();
    for (int64_t r = 0; r < repeats; ++r) {
      profile.RecordCall(Call(src, dst), request, reply, remotable);
      if (twin) {
        profile.RecordCall(Call(src, dst + 3), request, reply, remotable);
      }
    }
  }
  return profile;
}

// λ strictly inside (a, b): (wa·a + wb·b) as a weighted mediant.
LambdaRatio Inside(const LambdaRatio& a, const LambdaRatio& b, uint64_t wa, uint64_t wb) {
  return {a.num * wa + b.num * wb, a.den * wa + b.den * wb};
}

// The minimal minimum cut with every edge priced exactly at λ = num/den.
std::vector<bool> ExactCutAt(const CutEnvelope& envelope, const LambdaRatio& lambda) {
  const ConcreteGraph& graph = envelope.graph();
  CompactFlowNetwork network(graph.node_count());
  for (const ConcreteEdge& edge : graph.edges()) {
    network.AddEdge(edge.a, edge.b,
                    edge.constraint ? kInfiniteCapacity
                                    : static_cast<CapUnits>(edge.messages * lambda.den +
                                                            edge.bytes * lambda.num));
  }
  network.Finalize();
  return MinCutPushRelabel(network, ConcreteGraph::kClientNode, ConcreteGraph::kServerNode)
      .in_source_side;
}

// A link whose λ is exactly num/den (both below 2^53).
NetworkProfile LinkAt(const LambdaRatio& lambda) {
  NetworkProfile link;
  link.per_message_seconds = std::ldexp(static_cast<double>(lambda.den), -40);
  link.seconds_per_byte = std::ldexp(static_cast<double>(lambda.num), -40);
  return link;
}

TEST(EnvelopeTest, MatchesTheBruteForceEnvelopeOnRandomProfiles) {
  const ProfileAnalysisEngine engine;
  int multi_segment = 0;
  int infeasible = 0;
  for (uint64_t seed = 1; seed <= kRandomProfiles; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const IccProfile profile = RandomProfile(seed);
    Result<std::vector<EnvelopeSegment>> reference = envelope_oracle::BruteForceEnvelope(profile);
    Result<CutEnvelope> envelope = engine.Envelope(profile);
    ASSERT_EQ(envelope.ok(), reference.ok()) << envelope.status().ToString();
    if (!reference.ok()) {
      EXPECT_EQ(envelope.status().code(), StatusCode::kFailedPrecondition);
      ++infeasible;
      continue;
    }
    const std::vector<EnvelopeSegment>& segments = envelope->segments();
    ASSERT_EQ(segments.size(), reference->size());
    EXPECT_GE(envelope->solves(), std::max<size_t>(2, 2 * segments.size() - 1));
    multi_segment += segments.size() > 1 ? 1 : 0;
    for (size_t s = 0; s < segments.size(); ++s) {
      SCOPED_TRACE("segment " + std::to_string(s));
      const EnvelopeSegment& got = segments[s];
      const EnvelopeSegment& want = (*reference)[s];
      EXPECT_EQ(got.messages, want.messages);
      EXPECT_EQ(got.bytes, want.bytes);
      EXPECT_TRUE(got.from == want.from) << got.from.ToString() << " vs " << want.from.ToString();
      EXPECT_TRUE(got.to == want.to) << got.to.ToString() << " vs " << want.to.ToString();
      EXPECT_EQ(got.client_side, want.client_side);

      // Exact solves at the mediant and just inside each end give the
      // segment's cut.
      for (const LambdaRatio& lambda :
           {Inside(got.from, got.to, 1, 1), Inside(got.from, got.to, 1000, 1),
            Inside(got.from, got.to, 1, 1000)}) {
        EXPECT_EQ(ExactCutAt(*envelope, lambda), got.client_side) << lambda.ToString();
        EXPECT_EQ(envelope->SegmentOf(LinkAt(lambda)), s) << lambda.ToString();
      }
      // Analyze at the mediant agrees with the segment's result. Costs of
      // whole picoseconds quantize exactly, so the engine prices every
      // edge at m·den + b·num units, as the exact solve does.
      const LambdaRatio mediant = Inside(got.from, got.to, 1, 1);
      NetworkProfile link;
      link.per_message_seconds = static_cast<double>(mediant.den) * 1e-12;
      link.seconds_per_byte = static_cast<double>(mediant.num) * 1e-12;
      Result<AnalysisResult> analyzed = engine.Analyze(profile, link);
      ASSERT_TRUE(analyzed.ok());
      EXPECT_EQ(fleet_oracle::DiffAnalysis(*analyzed,
                                           engine.AnalyzeSegment(profile, *envelope, s, link)),
                "");
    }
  }
  // Not vacuous: the generator reaches multi-cut envelopes and infeasible
  // constraint sets.
  EXPECT_GT(multi_segment, kRandomProfiles / 10);
  EXPECT_GT(infeasible, 0);
}

// Four free classifications between the driver and a storage-pinned Store,
// each paying its Store traffic on the client and its driver traffic on
// the server, so each switches sides at its own λ: Z at 1/100, X and Y
// together at 1/10, W at 19/100. At 1/10, X, Y and both switch
// combinations tie; the search's first middle probe sits exactly there
// and finds the combination with both on the server, a line that touches
// the envelope at that single λ.
TEST(EnvelopeTest, ALineTouchingTheEnvelopeAtOnePointOwnsNoSegment) {
  IccProfile profile;
  const ClassificationId store = 0, x = 1, y = 2, z = 3, w = 4;
  Declare(profile, store, kApiStorage);
  for (ClassificationId id : {x, y, z, w}) {
    Declare(profile, id, kApiNone);
  }
  // (client-side calls of 100+100 bytes to Store, zero-byte driver calls)
  const auto wire = [&](ClassificationId id, int store_calls, int driver_calls) {
    for (int i = 0; i < store_calls; ++i) {
      profile.RecordCall(Call(id, store), 100, 100, true);
    }
    for (int i = 0; i < driver_calls; ++i) {
      profile.RecordCall(Call(kNoClassification, id), 0, 0, true);
    }
  };
  wire(x, 1, 11);  // Client (2, 200), server (22, 0): switches at 1/10.
  wire(z, 1, 2);   // Client (2, 200), server (4, 0): at 1/100.
  wire(w, 1, 20);  // Client (2, 200), server (40, 0): at 19/100.
  // Y pays bytes on the server instead: client (22, 0), server (2, 200).
  for (int i = 0; i < 11; ++i) {
    profile.RecordCall(Call(y, store), 0, 0, true);
  }
  profile.RecordCall(Call(kNoClassification, y), 100, 100, true);

  Result<CutEnvelope> envelope = ProfileAnalysisEngine().Envelope(profile);
  ASSERT_TRUE(envelope.ok()) << envelope.status().ToString();
  Result<std::vector<EnvelopeSegment>> reference = envelope_oracle::BruteForceEnvelope(profile);
  ASSERT_TRUE(reference.ok());
  const std::vector<EnvelopeSegment>& segments = envelope->segments();
  ASSERT_EQ(segments.size(), 4u);
  ASSERT_EQ(reference->size(), 4u);
  const LambdaRatio breakpoints[3] = {{1, 100}, {1, 10}, {19, 100}};
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(segments[s].messages, (*reference)[s].messages);
    EXPECT_EQ(segments[s].bytes, (*reference)[s].bytes);
    EXPECT_EQ(segments[s].client_side, (*reference)[s].client_side);
    if (s < 3) {
      EXPECT_TRUE(segments[s].to == breakpoints[s]) << segments[s].to.ToString();
    }
  }
  // Five lines found (2·5−1 solves), four kept.
  EXPECT_EQ(envelope->solves(), 9u);
}

TEST(EnvelopeTest, ALinkOnABreakpointTakesTheRightHandSegment) {
  // Gui (client) -chatty- Worker -bulky- Store (server): Worker joins the
  // client at small λ and the server at large λ.
  IccProfile profile;
  Declare(profile, 0, kApiGui);
  Declare(profile, 1, kApiNone);
  Declare(profile, 2, kApiStorage);
  for (int i = 0; i < 10; ++i) {
    profile.RecordCall(Call(0, 1), 8, 8, true);
  }
  profile.RecordCall(Call(1, 2), 4000, 8, true);
  Result<CutEnvelope> envelope = ProfileAnalysisEngine().Envelope(profile);
  ASSERT_TRUE(envelope.ok());
  ASSERT_EQ(envelope->segments().size(), 2u);
  EXPECT_EQ(envelope->solves(), 3u);
  const LambdaRatio breakpoint = envelope->segments()[0].to;
  // Lines (2, 4008) and (20, 160) meet at λ = 18/3848.
  EXPECT_TRUE(breakpoint == (LambdaRatio{9, 1924})) << breakpoint.ToString();

  NetworkProfile on = LinkAt(breakpoint);
  EXPECT_EQ(envelope->SegmentOf(on), 1u);
  NetworkProfile below = on;
  below.per_message_seconds = std::nextafter(on.per_message_seconds, 1.0);
  EXPECT_EQ(envelope->SegmentOf(below), 0u);
  NetworkProfile above = on;
  above.seconds_per_byte = std::nextafter(on.seconds_per_byte, 1.0);
  EXPECT_EQ(envelope->SegmentOf(above), 1u);
}

TEST(EnvelopeTest, CompareLambdaIsExact) {
  NetworkProfile a;
  a.per_message_seconds = 3.0;
  a.seconds_per_byte = 1.0;
  NetworkProfile b;
  b.per_message_seconds = 6.0;
  b.seconds_per_byte = 2.0;
  EXPECT_EQ(CompareLambda(a, b), 0);
  // A few ulps apart: the rounded quotients tie, the exact ratios do not.
  const auto up = [](double x, int ulps) {
    for (int i = 0; i < ulps; ++i) {
      x = std::nextafter(x, 2 * x);
    }
    return x;
  };
  a.per_message_seconds = 13.0;
  b.seconds_per_byte = up(1.0, 2);
  b.per_message_seconds = up(13.0, 3);
  EXPECT_EQ(a.seconds_per_byte / a.per_message_seconds,
            b.seconds_per_byte / b.per_message_seconds);
  EXPECT_EQ(CompareLambda(a, b), -1);
  EXPECT_EQ(CompareLambda(b, a), 1);
  // Extreme but finite magnitudes compare too.
  a.per_message_seconds = std::numeric_limits<double>::denorm_min();
  a.seconds_per_byte = 1e300;
  b.per_message_seconds = 1e300;
  b.seconds_per_byte = std::numeric_limits<double>::denorm_min();
  EXPECT_EQ(CompareLambda(a, b), 1);
}

TEST(EnvelopeTest, TrafficTooLargeToPriceExactlyIsOutOfRange) {
  IccProfile profile;
  Declare(profile, 0, kApiNone);
  Declare(profile, 1, kApiStorage);
  profile.RecordCall(Call(0, 1), uint64_t{1} << 62, 8, true);
  Result<CutEnvelope> envelope = ProfileAnalysisEngine().Envelope(profile);
  ASSERT_FALSE(envelope.ok());
  EXPECT_EQ(envelope.status().code(), StatusCode::kOutOfRange);
  EXPECT_NE(envelope.status().message().find("2 messages"), std::string::npos)
      << envelope.status().ToString();
}

IccProfile ScenarioProfile(const std::vector<std::string>& scenarios) {
  Result<std::unique_ptr<Application>> app = BuildApplicationForScenario(scenarios.front());
  EXPECT_TRUE(app.ok());
  Result<IccProfile> profile = ProfileScenarios(**app, scenarios);
  EXPECT_TRUE(profile.ok());
  return *std::move(profile);
}

TEST(EnvelopeTest, SingleCutProfilesTakeTwoSolves) {
  for (const std::string scenario : {"o_newmus", "b_addone"}) {
    Result<CutEnvelope> envelope =
        ProfileAnalysisEngine().Envelope(ScenarioProfile({scenario}));
    ASSERT_TRUE(envelope.ok()) << scenario;
    EXPECT_EQ(envelope->segments().size(), 1u) << scenario;
    EXPECT_EQ(envelope->solves(), 2u) << scenario;
  }
}

TEST(EnvelopeTest, BenchmarkProfileHasFourCutsFromSevenSolves) {
  Result<CutEnvelope> envelope =
      ProfileAnalysisEngine().Envelope(ScenarioProfile({"o_newdoc", "o_oldwp3"}));
  ASSERT_TRUE(envelope.ok());
  const std::vector<EnvelopeSegment>& segments = envelope->segments();
  ASSERT_EQ(segments.size(), 4u);
  EXPECT_EQ(envelope->solves(), 7u);
  const uint64_t lines[4][2] = {{32, 142008}, {98, 61544}, {124, 40660}, {142, 38340}};
  const size_t server_sides[4] = {16, 3, 4, 5};
  const LambdaRatio breakpoints[3] = {{66, 80464}, {26, 20884}, {18, 2320}};
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(segments[s].messages, lines[s][0]);
    EXPECT_EQ(segments[s].bytes, lines[s][1]);
    size_t server = 0;
    for (size_t node = 2; node < segments[s].client_side.size(); ++node) {
      server += segments[s].client_side[node] ? 0 : 1;
    }
    EXPECT_EQ(server, server_sides[s]);
    if (s < 3) {
      EXPECT_TRUE(segments[s].to == breakpoints[s]) << segments[s].to.ToString();
    }
  }
}

TEST(EnvelopeTest, EveryTable1ScenarioTakesTwoKMinusOneSolvesOrTwo) {
  for (const std::string& scenario : Table1ScenarioIds()) {
    Result<CutEnvelope> envelope =
        ProfileAnalysisEngine().Envelope(ScenarioProfile({scenario}));
    ASSERT_TRUE(envelope.ok()) << scenario;
    const size_t cuts = envelope->segments().size();
    EXPECT_GE(cuts, 1u) << scenario;
    EXPECT_LE(cuts, 4u) << scenario;
    EXPECT_EQ(envelope->solves(), cuts == 1 ? 2 : 2 * cuts - 1) << scenario;
  }
}

}  // namespace
}  // namespace coign
