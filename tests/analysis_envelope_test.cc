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
#include "src/mincut/relabel_to_front.h"
#include "src/support/rng.h"
#include "tests/oracles/envelope_oracle.h"
#include "tests/oracles/fleet_oracle.h"
#include "tests/oracles/lambda_oracle.h"

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

void Declare(IccProfileBuilder& profile, ClassificationId id, uint32_t api) {
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
  IccProfileBuilder profile;
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
  return profile.Build();
}

// λ strictly inside (a, b): (wa·a + wb·b) as a weighted mediant.
LambdaRatio Inside(const LambdaRatio& a, const LambdaRatio& b, uint64_t wa, uint64_t wb) {
  return {a.num * wa + b.num * wb, a.den * wa + b.den * wb};
}

// The minimal minimum cut with every edge priced exactly at λ = num/den,
// solved by push-relabel on the whole graph (the envelope solves the
// constraint quotient).
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
  PushRelabelSolver solver;
  const CapUnits flow =
      solver.Solve(network, ConcreteGraph::kClientNode, ConcreteGraph::kServerNode);
  return network.ExtractCut(ConcreteGraph::kClientNode, flow).in_source_side;
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
  IccProfileBuilder recording;
  const ClassificationId store = 0, x = 1, y = 2, z = 3, w = 4;
  Declare(recording, store, kApiStorage);
  for (ClassificationId id : {x, y, z, w}) {
    Declare(recording, id, kApiNone);
  }
  // (client-side calls of 100+100 bytes to Store, zero-byte driver calls)
  const auto wire = [&](ClassificationId id, int store_calls, int driver_calls) {
    for (int i = 0; i < store_calls; ++i) {
      recording.RecordCall(Call(id, store), 100, 100, true);
    }
    for (int i = 0; i < driver_calls; ++i) {
      recording.RecordCall(Call(kNoClassification, id), 0, 0, true);
    }
  };
  wire(x, 1, 11);  // Client (2, 200), server (22, 0): switches at 1/10.
  wire(z, 1, 2);   // Client (2, 200), server (4, 0): at 1/100.
  wire(w, 1, 20);  // Client (2, 200), server (40, 0): at 19/100.
  // Y pays bytes on the server instead: client (22, 0), server (2, 200).
  for (int i = 0; i < 11; ++i) {
    recording.RecordCall(Call(y, store), 0, 0, true);
  }
  recording.RecordCall(Call(kNoClassification, y), 100, 100, true);
  const IccProfile profile = recording.Build();

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
  IccProfileBuilder profile;
  Declare(profile, 0, kApiGui);
  Declare(profile, 1, kApiNone);
  Declare(profile, 2, kApiStorage);
  for (int i = 0; i < 10; ++i) {
    profile.RecordCall(Call(0, 1), 8, 8, true);
  }
  profile.RecordCall(Call(1, 2), 4000, 8, true);
  Result<CutEnvelope> envelope = ProfileAnalysisEngine().Envelope(profile.Build());
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
  IccProfileBuilder profile;
  Declare(profile, 0, kApiNone);
  Declare(profile, 1, kApiStorage);
  profile.RecordCall(Call(0, 1), uint64_t{1} << 62, 8, true);
  Result<CutEnvelope> envelope = ProfileAnalysisEngine().Envelope(profile.Build());
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

// The flow network Analyze cuts for `profile` at `link`: its concrete
// graph, one undirected edge per concrete edge.
CompactFlowNetwork AnalyzedNetwork(const IccProfile& profile, const NetworkProfile& link) {
  const ConcreteGraph graph = ConcreteGraph::Build(AbstractIccGraph::FromProfile(profile), link,
                                                   LocationConstraints::FromProfile(profile));
  CompactFlowNetwork network(graph.node_count());
  for (const ConcreteEdge& edge : graph.edges()) {
    network.AddEdge(edge.a, edge.b, edge.Capacity());
  }
  network.Finalize();
  return network;
}

// The production cut solves the constraint quotient; relabel-to-front
// solves the whole network. On the benchmark profile and one PhotoDraw and
// one Benefits scenario, at every network preset, Analyze must return the
// same cut value, placement and cut edges (with their seconds) both ways.
// Both results come from one assembly, which reads the value off the side,
// so the value must also equal the raw solver's maximum flow on the same
// network.
TEST(QuotientCutTest, ScenarioProfilesCutAsRelabelToFrontCutsThemWhole) {
  AnalysisOptions whole_network;
  whole_network.algorithm = CutAlgorithm::kRelabelToFront;
  const ProfileAnalysisEngine engine;
  const ProfileAnalysisEngine relabel_to_front(whole_network);
  const std::vector<std::vector<std::string>> profiles = {
      {"o_newdoc", "o_oldwp3"}, {"p_oldmsr"}, {"b_vueone"}};
  for (const std::vector<std::string>& scenarios : profiles) {
    const IccProfile profile = ScenarioProfile(scenarios);
    for (const NetworkModel& preset :
         {NetworkModel::Isdn(), NetworkModel::TenBaseT(), NetworkModel::HundredBaseT(),
          NetworkModel::Atm155(), NetworkModel::San()}) {
      SCOPED_TRACE(scenarios.front() + " at " + preset.name);
      const NetworkProfile link = NetworkProfile::Exact(preset);
      Result<AnalysisResult> expected = relabel_to_front.Analyze(profile, link);
      Result<AnalysisResult> actual = engine.Analyze(profile, link);
      ASSERT_TRUE(expected.ok()) << expected.status().ToString();
      ASSERT_TRUE(actual.ok()) << actual.status().ToString();
      EXPECT_FALSE(actual->cut_edges.empty());
      EXPECT_EQ(fleet_oracle::DiffAnalysis(*expected, *actual), "");
      const CutResult raw = MinCutRelabelToFront(AnalyzedNetwork(profile, link),
                                                 ConcreteGraph::kClientNode,
                                                 ConcreteGraph::kServerNode);
      EXPECT_EQ(actual->cut_value_units, raw.cut_value);
    }
  }
}

// Fails if Analyze stops contracting: on the benchmark profile at 10BaseT
// its solve does under a tenth of the pushes that push-relabel does on the
// whole network (84 against 5,418).
TEST(QuotientCutTest, AnalyzeSolvesTheConstraintQuotient) {
  const IccProfile profile = ScenarioProfile({"o_newdoc", "o_oldwp3"});
  const NetworkProfile link = NetworkProfile::Exact(NetworkModel::TenBaseT());
  MinCutSession session;
  ASSERT_TRUE(ProfileAnalysisEngine().Analyze(profile, link, &session).ok());

  CompactFlowNetwork network = AnalyzedNetwork(profile, link);
  PushRelabelSolver whole;
  whole.Solve(network, ConcreteGraph::kClientNode, ConcreteGraph::kServerNode);
  EXPECT_GT(session.stats().pushes, 0u);
  EXPECT_LT(10 * session.stats().pushes, whole.last_stats().pushes)
      << session.stats().pushes << " pushes on the quotient, " << whole.last_stats().pushes
      << " on the whole network";
}

// The finite breakpoints of `envelope`, in λ order.
std::vector<LambdaRatio> Breakpoints(const CutEnvelope& envelope) {
  std::vector<LambdaRatio> breakpoints;
  for (size_t s = 1; s < envelope.segments().size(); ++s) {
    breakpoints.push_back(envelope.segments()[s].from);
  }
  return breakpoints;
}

double Ulps(double x, int ulps) {
  for (; ulps > 0; --ulps) {
    x = std::nextafter(x, std::numeric_limits<double>::infinity());
  }
  for (; ulps < 0; ++ulps) {
    x = std::nextafter(x, 0.0);
  }
  return x;
}

// Three free classifications between the driver and a storage-pinned
// Store, each moving to the server at its own breakpoint β = (2d−2)/(q+4)
// for d driver calls and one call of q + 4 bytes to Store. With q ≈ 2^54
// and q + 4 ≡ 6 (mod 8), q + 4 is no double, and the quotient rounded from
// the rounded terms lands one ulp below RN(β): a key bracket of an ulp or
// less misplaces links within an ulp of β.
IccProfile HugeTrafficProfile() {
  IccProfileBuilder profile;
  Declare(profile, 0, kApiStorage);
  const uint64_t request_bytes[3] = {(uint64_t{1} << 54) + 2, (uint64_t{1} << 54) + 10,
                                     (uint64_t{1} << 54) + 18};
  const int driver_calls[3] = {2, 3, 5};
  for (ClassificationId id = 1; id <= 3; ++id) {
    Declare(profile, id, kApiNone);
    profile.RecordCall(Call(id, 0), request_bytes[id - 1], 4, true);
    for (int call = 0; call < driver_calls[id - 1]; ++call) {
      profile.RecordCall(Call(kNoClassification, id), 0, 0, true);
    }
  }
  return profile.Build();
}

TEST(EnvelopeTest, KeyFirstLookupMatchesTheReferenceOnAndAroundEveryBreakpoint) {
  std::vector<IccProfile> profiles = {ScenarioProfile({"o_newdoc", "o_oldwp3"}),
                                      HugeTrafficProfile()};
  for (uint64_t seed = 1; seed <= kRandomProfiles; ++seed) {
    profiles.push_back(RandomProfile(seed));
  }
  const ProfileAnalysisEngine engine;
  size_t on_breakpoint = 0;
  size_t huge_breakpoints = 0;
  for (size_t p = 0; p < profiles.size(); ++p) {
    SCOPED_TRACE("profile " + std::to_string(p));
    Result<CutEnvelope> envelope = engine.Envelope(profiles[p]);
    if (!envelope.ok()) {
      continue;  // Infeasible random constraints.
    }
    const std::vector<LambdaRatio> breakpoints = Breakpoints(*envelope);
    const auto expect_reference = [&](const NetworkProfile& link) {
      const size_t reference =
          lambda_oracle::SegmentOf(breakpoints, link.seconds_per_byte, link.per_message_seconds);
      EXPECT_EQ(envelope->SegmentOf(link), reference)
          << link.seconds_per_byte << " / " << link.per_message_seconds;
      return reference;
    };
    for (size_t j = 0; j < breakpoints.size(); ++j) {
      const LambdaRatio& breakpoint = breakpoints[j];
      SCOPED_TRACE("breakpoint " + breakpoint.ToString());
      constexpr uint64_t kExact = uint64_t{1} << 53;
      if (breakpoint.num < kExact && breakpoint.den < kExact) {
        // Exactly on the breakpoint at three scales, then one ulp either
        // side on each term.
        for (const int exponent : {-60, -40, 0}) {
          NetworkProfile on;
          on.per_message_seconds = std::ldexp(static_cast<double>(breakpoint.den), exponent);
          on.seconds_per_byte = std::ldexp(static_cast<double>(breakpoint.num), exponent);
          EXPECT_EQ(expect_reference(on), j + 1);
          ++on_breakpoint;
          for (const int step : {-1, 1}) {
            NetworkProfile moved = on;
            moved.per_message_seconds = Ulps(on.per_message_seconds, step);
            EXPECT_EQ(expect_reference(moved), step < 0 ? j + 1 : j);
            moved = on;
            moved.seconds_per_byte = Ulps(on.seconds_per_byte, step);
            EXPECT_EQ(expect_reference(moved), step < 0 ? j : j + 1);
          }
        }
      } else {
        ++huge_breakpoints;
      }
      // Rounded terms a few ulps either way: λ within a few ulps of the
      // breakpoint, where keys tie with its rounded quotient.
      NetworkProfile near;
      near.per_message_seconds = std::ldexp(static_cast<double>(breakpoint.den), -60);
      near.seconds_per_byte = std::ldexp(static_cast<double>(breakpoint.num), -60);
      for (int pm_ulps = -3; pm_ulps <= 3; ++pm_ulps) {
        for (int spb_ulps = -3; spb_ulps <= 3; ++spb_ulps) {
          NetworkProfile link;
          link.per_message_seconds = Ulps(near.per_message_seconds, pm_ulps);
          link.seconds_per_byte = Ulps(near.seconds_per_byte, spb_ulps);
          expect_reference(link);
        }
      }
    }
  }
  EXPECT_GT(on_breakpoint, 300u) << "not enough breakpoints to be a sweep";
  EXPECT_EQ(huge_breakpoints, 3u);
}

TEST(EnvelopeTest, KeyFirstCompareLambdaMatchesTheReference) {
  // Pairs a few ulps apart on each term, pairs scaled by a power of two
  // (equal λ from different terms), and independent pairs.
  Rng rng(19);
  size_t tied_keys_unequal_lambda = 0;
  size_t equal_lambda_different_terms = 0;
  for (int i = 0; i < 20000; ++i) {
    NetworkProfile a;
    a.per_message_seconds = std::ldexp(rng.UniformDouble(1.0, 2.0), -int(rng.UniformInt(0, 30)));
    a.seconds_per_byte = std::ldexp(rng.UniformDouble(1.0, 2.0), -int(rng.UniformInt(10, 40)));
    NetworkProfile b = a;
    const int kind = i % 3;
    if (kind == 0) {
      b.per_message_seconds = Ulps(a.per_message_seconds, int(rng.UniformInt(-3, 3)));
      b.seconds_per_byte = Ulps(a.seconds_per_byte, int(rng.UniformInt(-3, 3)));
    } else if (kind == 1) {
      const int scale = int(rng.UniformInt(-20, 20));
      b.per_message_seconds = std::ldexp(a.per_message_seconds, scale);
      b.seconds_per_byte = std::ldexp(a.seconds_per_byte, scale);
    } else {
      b.per_message_seconds = std::ldexp(rng.UniformDouble(1.0, 2.0), -int(rng.UniformInt(0, 30)));
      b.seconds_per_byte = std::ldexp(rng.UniformDouble(1.0, 2.0), -int(rng.UniformInt(10, 40)));
    }
    const int reference = lambda_oracle::CompareLambda(a.seconds_per_byte, a.per_message_seconds,
                                                       b.seconds_per_byte, b.per_message_seconds);
    ASSERT_EQ(CompareLambda(a, b), reference) << "pair " << i;
    ASSERT_EQ(CompareLambda(b, a), -reference) << "pair " << i;
    const bool tied_keys = LambdaKey(a.seconds_per_byte, a.per_message_seconds).value ==
                           LambdaKey(b.seconds_per_byte, b.per_message_seconds).value;
    tied_keys_unequal_lambda += tied_keys && reference != 0 ? 1 : 0;
    equal_lambda_different_terms +=
        reference == 0 && a.per_message_seconds != b.per_message_seconds ? 1 : 0;
  }
  // Not vacuous: the exact fallback decided some pairs, and ties on exact
  // λ came from different terms.
  EXPECT_GT(tied_keys_unequal_lambda, 100u);
  EXPECT_GT(equal_lambda_different_terms, 1000u);
}

TEST(EnvelopeTest, KeysThatOverflowOrUnderflowCompareAndPlaceExactly) {
  // λ = 2^1100 and 2^1101 both round to +∞, λ = 2^-1100 and 2^-1101 both
  // to 0; the exact comparison orders each pair.
  const auto link = [](double per_message_seconds, double seconds_per_byte) {
    NetworkProfile profile;
    profile.per_message_seconds = per_message_seconds;
    profile.seconds_per_byte = seconds_per_byte;
    return profile;
  };
  const NetworkProfile huge = link(0x1p-600, 0x1p500);
  const NetworkProfile huger = link(0x1p-601, 0x1p500);
  const NetworkProfile tiny = link(0x1p600, 0x1p-500);
  const NetworkProfile tinier = link(0x1p601, 0x1p-500);
  EXPECT_EQ(LambdaKey(huge.seconds_per_byte, huge.per_message_seconds).value,
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(LambdaKey(tinier.seconds_per_byte, tinier.per_message_seconds).value, 0.0);
  for (const auto& [a, b] : {std::pair{huge, huger}, std::pair{tiny, tinier},
                             std::pair{tinier, huge}}) {
    const int reference = lambda_oracle::CompareLambda(a.seconds_per_byte, a.per_message_seconds,
                                                       b.seconds_per_byte, b.per_message_seconds);
    EXPECT_NE(reference, 0);
    EXPECT_EQ(CompareLambda(a, b), reference);
  }
  Result<CutEnvelope> envelope =
      ProfileAnalysisEngine().Envelope(ScenarioProfile({"o_newdoc", "o_oldwp3"}));
  ASSERT_TRUE(envelope.ok());
  for (const NetworkProfile& extreme : {huge, huger, tiny, tinier}) {
    const size_t reference = lambda_oracle::SegmentOf(
        Breakpoints(*envelope), extreme.seconds_per_byte, extreme.per_message_seconds);
    EXPECT_EQ(envelope->SegmentOf(extreme), reference);
    EXPECT_EQ(reference, extreme.seconds_per_byte > 1.0 ? 3u : 0u);
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
