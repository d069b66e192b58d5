#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <tuple>
#include <vector>

#include "bench/harness.h"
#include "src/com/class_registry.h"
#include "src/graph/concrete_graph.h"
#include "src/graph/constraints.h"
#include "src/graph/distribution.h"
#include "src/graph/icc_graph.h"
#include "src/support/rng.h"
#include "src/support/str_util.h"

namespace coign {
namespace {

CallKey MakeKey(ClassificationId src, ClassificationId dst, MethodIndex method = 0) {
  CallKey key;
  key.src = src;
  key.dst = dst;
  key.iid = Guid::FromName("iid:IGraphTest");
  key.method = method;
  return key;
}

void AddClassification(IccProfileBuilder* profile, ClassificationId id, const std::string& name,
                       uint32_t api = kApiNone, uint64_t instances = 1) {
  ClassificationInfo info;
  info.id = id;
  info.clsid = Guid::FromName("clsid:" + name);
  info.class_name = name;
  info.api_usage = api;
  info.instance_count = instances;
  profile->RecordClassification(info);
}

TEST(DistributionTest, PlacementLookupAndCounts) {
  Distribution d;
  d.placement[0] = kClientMachine;
  d.placement[1] = kServerMachine;
  d.placement[2] = kServerMachine;
  EXPECT_EQ(d.MachineFor(1), kServerMachine);
  EXPECT_EQ(d.MachineFor(42), kClientMachine);  // Default.
  EXPECT_EQ(d.CountOn(kServerMachine), 2u);
  EXPECT_EQ(d.CountOn(kClientMachine), 1u);
  EXPECT_NE(d.ToString().find("2 on server"), std::string::npos);

  const Distribution all_server = EverythingOn(kServerMachine);
  EXPECT_EQ(all_server.MachineFor(7), kServerMachine);
}

TEST(AbstractIccGraphTest, MergesDirectionsAndMethodsPerPair) {
  IccProfileBuilder recording;
  AddClassification(&recording, 0, "A");
  AddClassification(&recording, 1, "B");
  recording.RecordCall(MakeKey(0, 1, 0), 100, 10, true);
  recording.RecordCall(MakeKey(1, 0, 2), 50, 5, true);   // Reverse direction.
  recording.RecordCall(MakeKey(0, 1, 3), 25, 25, false);  // Another method.
  recording.RecordCall(MakeKey(1, 1, 0), 9, 9, true);     // Intra: dropped.
  // A key whose histograms are empty (a window can scale them to 0) still
  // makes its pair an edge, with no traffic.
  AddClassification(&recording, 2, "C");
  recording.InjectCallSummary(MakeKey(2, 0), ExponentialHistogram(), ExponentialHistogram(), 0);
  const IccProfile profile = recording.Build();

  const AbstractIccGraph graph = AbstractIccGraph::FromProfile(profile);
  ASSERT_EQ(graph.edges().size(), 2u);
  const AbstractIccGraph::Edge& edge = graph.edges()[0];
  EXPECT_EQ(edge.a, 0u);
  EXPECT_EQ(edge.b, 1u);
  // Each call contributes request + reply messages.
  EXPECT_EQ(edge.messages, 6u);
  EXPECT_EQ(edge.bytes, 100u + 10 + 50 + 5 + 25 + 25);
  EXPECT_EQ(edge.non_remotable_calls, 1u);
  EXPECT_TRUE(edge.MustColocate());
  const AbstractIccGraph::Edge& silent = graph.edges()[1];
  EXPECT_EQ(silent.a, 0u);
  EXPECT_EQ(silent.b, 2u);
  EXPECT_EQ(silent.messages, 0u);
  EXPECT_EQ(silent.bytes, 0u);
  EXPECT_FALSE(silent.MustColocate());
}

TEST(AbstractIccGraphTest, NodesAreEveryClassificationAscending) {
  IccProfileBuilder recording;
  AddClassification(&recording, 7, "Late");
  AddClassification(&recording, 3, "Early");
  AddClassification(&recording, 5, "Quiet");  // Makes no call.
  recording.RecordCall(MakeKey(7, 3), 10, 10, true);
  const IccProfile profile = recording.Build();
  const AbstractIccGraph graph = AbstractIccGraph::FromProfile(profile);
  EXPECT_EQ(graph.nodes(), (std::vector<ClassificationId>{3, 5, 7}));
  ASSERT_EQ(graph.edges().size(), 1u);
  EXPECT_EQ(graph.edges()[0].a, 3u);
  EXPECT_EQ(graph.edges()[0].b, 7u);
}

TEST(AbstractIccGraphTest, DriverPairUsesNoClassification) {
  IccProfileBuilder recording;
  AddClassification(&recording, 0, "A");
  recording.RecordCall(MakeKey(kNoClassification, 0), 10, 10, true);
  const IccProfile profile = recording.Build();
  const AbstractIccGraph graph = AbstractIccGraph::FromProfile(profile);
  ASSERT_EQ(graph.edges().size(), 1u);
  EXPECT_EQ(graph.edges()[0].a, 0u);
  EXPECT_EQ(graph.edges()[0].b, kNoClassification);
}

// The abstract graph as a sort-and-fold over the call rows in any order:
// the edge list the one-pass fold over pair-major rows must equal.
std::vector<AbstractIccGraph::Edge> SortAndFold(const IccProfile& profile) {
  std::vector<AbstractIccGraph::Edge> edges;
  for (const auto& [key, summary] : profile.calls()) {
    if (key.src != key.dst) {
      edges.push_back({std::min(key.src, key.dst), std::max(key.src, key.dst),
                       summary.requests.total_count() + summary.replies.total_count(),
                       summary.total_bytes(), summary.non_remotable_calls});
    }
  }
  std::sort(edges.begin(), edges.end(), [](const auto& x, const auto& y) {
    return std::tie(x.a, x.b) < std::tie(y.a, y.b);
  });
  std::vector<AbstractIccGraph::Edge> folded;
  for (const AbstractIccGraph::Edge& edge : edges) {
    if (!folded.empty() && folded.back().a == edge.a && folded.back().b == edge.b) {
      folded.back().messages += edge.messages;
      folded.back().bytes += edge.bytes;
      folded.back().non_remotable_calls += edge.non_remotable_calls;
    } else {
      folded.push_back(edge);
    }
  }
  return folded;
}

// Two recordings of random calls merged: self-calls, driver endpoints,
// both directions of a pair, zero-traffic keys and keys both recordings
// hold, which Merge adds together.
IccProfile RandomMergedProfile(Rng& rng, std::vector<ClassificationId>* ids) {
  IccProfileBuilder recordings[2];
  const int count = static_cast<int>(rng.UniformInt(1, 12));
  for (int i = 0; i < count; ++i) {
    // Dense ids with a few gaps.
    const ClassificationId id = static_cast<ClassificationId>(i + (rng.Bernoulli(0.2) ? 20 : 0));
    if (std::find(ids->begin(), ids->end(), id) != ids->end()) {
      continue;
    }
    ids->push_back(id);
    AddClassification(&recordings[rng.UniformInt(0, 1)], id, "C" + std::to_string(id));
  }
  const auto endpoint = [&] {
    return rng.Bernoulli(0.15) ? kNoClassification
                               : (*ids)[static_cast<size_t>(
                                     rng.UniformInt(0, static_cast<int64_t>(ids->size()) - 1))];
  };
  const int keys = static_cast<int>(rng.UniformInt(0, 40));
  for (int k = 0; k < keys; ++k) {
    const CallKey key = MakeKey(endpoint(), endpoint(),
                                static_cast<MethodIndex>(rng.UniformInt(0, 3)));
    IccProfileBuilder& recording = recordings[rng.UniformInt(0, 1)];
    if (rng.Bernoulli(0.1)) {
      recording.InjectCallSummary(key, ExponentialHistogram(), ExponentialHistogram(), 0);
      continue;
    }
    const int64_t calls = rng.UniformInt(1, 3);
    for (int64_t c = 0; c < calls; ++c) {
      recording.RecordCall(key, static_cast<uint64_t>(rng.UniformInt(0, 5000)),
                           static_cast<uint64_t>(rng.UniformInt(0, 70)), !rng.Bernoulli(0.1));
    }
  }
  IccProfile profile = recordings[0].Build();
  profile.Merge(recordings[1].Build());
  std::sort(ids->begin(), ids->end());
  return profile;
}

TEST(AbstractIccGraphTest, FoldMatchesSortAndFoldOnRandomProfiles) {
  constexpr int kProfiles = 600;
  size_t merged_edges = 0;
  for (int seed = 1; seed <= kProfiles; ++seed) {
    Rng rng(static_cast<uint64_t>(seed));
    std::vector<ClassificationId> ids;
    const IccProfile profile = RandomMergedProfile(rng, &ids);
    for (size_t i = 1; i < profile.calls().size(); ++i) {
      ASSERT_TRUE(PairMajorLess(profile.calls()[i - 1].key, profile.calls()[i].key))
          << "seed " << seed << " row " << i;
    }
    const AbstractIccGraph graph = AbstractIccGraph::FromProfile(profile);
    EXPECT_EQ(graph.nodes(), ids) << "seed " << seed;
    const std::vector<AbstractIccGraph::Edge> expected = SortAndFold(profile);
    ASSERT_EQ(graph.edges().size(), expected.size()) << "seed " << seed;
    for (size_t e = 0; e < expected.size(); ++e) {
      const AbstractIccGraph::Edge& got = graph.edges()[e];
      EXPECT_TRUE(got.a == expected[e].a && got.b == expected[e].b &&
                  got.messages == expected[e].messages && got.bytes == expected[e].bytes &&
                  got.non_remotable_calls == expected[e].non_remotable_calls)
          << "seed " << seed << " edge " << e;
    }
    merged_edges += expected.size();
  }
  EXPECT_GT(merged_edges, static_cast<size_t>(kProfiles) * 5);
}

TEST(ConstraintsTest, FromProfileDerivesApiPins) {
  IccProfileBuilder recording;
  AddClassification(&recording, 0, "Gui", kApiGui);
  AddClassification(&recording, 1, "Store", kApiStorage);
  AddClassification(&recording, 2, "Free", kApiNone);
  AddClassification(&recording, 3, "Db", kApiOdbc | kApiStorage);
  const IccProfile profile = recording.Build();
  const LocationConstraints constraints = LocationConstraints::FromProfile(profile);
  ASSERT_NE(constraints.PinOf(0), nullptr);
  EXPECT_EQ(*constraints.PinOf(0), kClientMachine);
  ASSERT_NE(constraints.PinOf(1), nullptr);
  EXPECT_EQ(*constraints.PinOf(1), kServerMachine);
  EXPECT_EQ(constraints.PinOf(2), nullptr);
  EXPECT_EQ(*constraints.PinOf(3), kServerMachine);
}

TEST(ConstraintsTest, ExplicitConstraintsAccumulate) {
  LocationConstraints constraints;
  constraints.PinAbsolute(5, kServerMachine);
  constraints.Colocate(1, 2);
  EXPECT_EQ(*constraints.PinOf(5), kServerMachine);
  ASSERT_EQ(constraints.colocated().size(), 1u);
  EXPECT_EQ(constraints.colocated()[0], (std::pair<ClassificationId, ClassificationId>{1, 2}));
}

TEST(ConcreteGraphTest, BuildWiresTerminalsClassificationsAndConstraints) {
  IccProfileBuilder recording;
  AddClassification(&recording, 0, "Gui", kApiGui, 3);
  AddClassification(&recording, 1, "Store", kApiStorage, 1);
  AddClassification(&recording, 2, "Free", kApiNone, 5);
  recording.RecordCall(MakeKey(kNoClassification, 2), 500, 100, true);  // Driver <-> Free.
  recording.RecordCall(MakeKey(2, 1), 200, 1000, true);                  // Free <-> Store.
  recording.RecordCall(MakeKey(2, 0), 10, 10, false);                    // Non-remotable.
  const IccProfile profile = recording.Build();

  const AbstractIccGraph abstract = AbstractIccGraph::FromProfile(profile);
  const LocationConstraints constraints = LocationConstraints::FromProfile(profile);
  NetworkProfile network;
  network.per_message_seconds = 1e-3;
  network.seconds_per_byte = 1e-6;
  const ConcreteGraph graph = ConcreteGraph::Build(abstract, network, constraints);

  EXPECT_EQ(graph.node_count(), 5);  // 2 terminals + 3 classifications.
  EXPECT_EQ(graph.classifications(), (std::vector<ClassificationId>{0, 1, 2}));
  EXPECT_EQ(graph.NodeOf(1), 3);
  EXPECT_EQ(graph.ClassificationAt(3), 1u);
  EXPECT_EQ(graph.NodeOf(42), -1);
  EXPECT_EQ(graph.NodeOf(kNoClassification), -1);

  int constraint_edges = 0;
  int comm_edges = 0;
  for (const ConcreteEdge& edge : graph.edges()) {
    if (edge.constraint) {
      ++constraint_edges;
      EXPECT_EQ(edge.Capacity(), kInfiniteCapacity);
    } else {
      ++comm_edges;
      // Priced by the network's one traffic expression, quantized once.
      EXPECT_GT(edge.seconds, 0.0);
      EXPECT_EQ(edge.seconds, network.TrafficSeconds(edge.messages, edge.bytes));
      EXPECT_EQ(edge.Capacity(), SecondsToCapUnits(edge.seconds));
    }
  }
  // Constraints: gui pin, store pin, and the non-remotable pair.
  EXPECT_EQ(constraint_edges, 3);
  EXPECT_EQ(comm_edges, 3);
}

TEST(ConcreteGraphTest, DriverEdgesAttachToClientTerminal) {
  IccProfileBuilder recording;
  AddClassification(&recording, 0, "Free");
  recording.RecordCall(MakeKey(kNoClassification, 0), 100, 100, true);
  const IccProfile profile = recording.Build();
  const AbstractIccGraph abstract = AbstractIccGraph::FromProfile(profile);
  const ConcreteGraph graph =
      ConcreteGraph::Build(abstract, NetworkProfile::Exact(NetworkModel::TenBaseT()),
                           LocationConstraints());
  ASSERT_EQ(graph.edges().size(), 1u);
  const ConcreteEdge& edge = graph.edges()[0];
  EXPECT_TRUE(edge.a == ConcreteGraph::kClientNode || edge.b == ConcreteGraph::kClientNode);
}

// 64-bit FNV-1a over a sequence of 64-bit fields, low byte first.
class Fnv1a {
 public:
  void Add(uint64_t field) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ = (hash_ ^ ((field >> (8 * byte)) & 0xff)) * 0x100000001b3ull;
    }
  }
  uint64_t hash() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

struct GoldenGraph {
  const char* scenario;
  int nodes;
  size_t edges;
  uint64_t fingerprint;
};

// The concrete graph of every Table 1 scenario's profile at exact 10BaseT
// with its API pins, captured while the abstract graph was still a hash map
// of pair histograms. The fingerprint covers (a, b, messages, bytes, capacity,
// constraint) of the communication and weld edges in graph order, then of
// the pin edges sorted: pins follow the iteration order of an
// unordered_map, which a golden must not depend on.
constexpr GoldenGraph kGoldenGraphs[] = {
    {"o_newdoc", 456, 1019, 0x8758998b773b00adull},
    {"o_newmus", 444, 1002, 0x104cfcb19f8ff17aull},
    {"o_newtbl", 454, 1018, 0xe0ca5ed2e6b22a78ull},
    {"o_oldtb0", 454, 1020, 0x5f7af313e989605aull},
    {"o_oldtb3", 454, 1020, 0x7246ccd75f076b9bull},
    {"o_oldwp0", 456, 1019, 0xeed10a55d90cf07eull},
    {"o_oldwp3", 456, 1019, 0x9baaf6b9778fe611ull},
    {"o_oldwp7", 456, 1019, 0xbbff6bf872b5621aull},
    {"o_oldbth", 462, 1034, 0xad192395628cb2a0ull},
    {"o_offtb3", 469, 1043, 0x7968fa3e1ef1b3e3ull},
    {"o_offwp7", 471, 1043, 0x8bfea1af92ecc2f5ull},
    {"o_bigone", 490, 1077, 0xda08432e5a668fdfull},
    {"p_newdoc", 256, 581, 0x78a2c807a94dedfbull},
    {"p_newmsr", 256, 581, 0x78a2c807a94dedfbull},
    {"p_oldcur", 264, 605, 0x65a2acaee4e2699bull},
    {"p_oldmsr", 264, 605, 0x208fe6d81ff97bd6ull},
    {"p_offcur", 354, 787, 0xa52e2adfdf0b3e3cull},
    {"p_offmsr", 354, 787, 0xc7b790a51f226449ull},
    {"p_bigone", 354, 787, 0x66db6c5701e5c915ull},
    {"b_vueone", 37, 93, 0xdb469fab4bd27ffbull},
    {"b_addone", 17, 33, 0xd52f3dce23d93f35ull},
    {"b_delone", 17, 32, 0xe470391f5ea1fe89ull},
    {"b_bigone", 39, 98, 0xdddb909cd3804335ull},
};

TEST(ConcreteGraphTest, Table1ProfilesBuildTheGoldenGraphs) {
  ASSERT_EQ(std::size(kGoldenGraphs), Table1ScenarioIds().size());
  const NetworkProfile network = NetworkProfile::Exact(NetworkModel::TenBaseT());
  for (const GoldenGraph& golden : kGoldenGraphs) {
    SCOPED_TRACE(golden.scenario);
    Result<std::unique_ptr<Application>> app = BuildApplicationForScenario(golden.scenario);
    ASSERT_TRUE(app.ok());
    Result<IccProfile> profile = ProfileScenarios(**app, {golden.scenario});
    ASSERT_TRUE(profile.ok());
    const LocationConstraints constraints = LocationConstraints::FromProfile(*profile);
    const ConcreteGraph graph =
        ConcreteGraph::Build(AbstractIccGraph::FromProfile(*profile), network, constraints);

    // Every API pin names a profiled classification, so the pins are the
    // last absolute().size() edges.
    std::vector<ConcreteEdge> edges = graph.edges();
    ASSERT_GE(edges.size(), constraints.absolute().size());
    const auto pins = edges.end() - static_cast<ptrdiff_t>(constraints.absolute().size());
    std::sort(pins, edges.end(), [](const ConcreteEdge& x, const ConcreteEdge& y) {
      return std::tie(x.a, x.b) < std::tie(y.a, y.b);
    });
    Fnv1a fingerprint;
    for (const ConcreteEdge& edge : edges) {
      fingerprint.Add(static_cast<uint64_t>(edge.a));
      fingerprint.Add(static_cast<uint64_t>(edge.b));
      fingerprint.Add(edge.messages);
      fingerprint.Add(edge.bytes);
      fingerprint.Add(static_cast<uint64_t>(
          edge.constraint ? kInfiniteCapacity : SecondsToCapUnits(edge.seconds)));
      fingerprint.Add(edge.constraint ? 1 : 0);
    }
    EXPECT_EQ(graph.node_count(), golden.nodes);
    EXPECT_EQ(edges.size(), golden.edges);
    EXPECT_EQ(fingerprint.hash(), golden.fingerprint)
        << StrFormat("{\"%s\", %d, %zu, 0x%016llxull},", golden.scenario, graph.node_count(),
                     edges.size(), static_cast<unsigned long long>(fingerprint.hash()));
  }
}

}  // namespace
}  // namespace coign
