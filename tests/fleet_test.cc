#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench/harness.h"
#include "src/com/class_registry.h"
#include "src/fleet/fingerprint.h"
#include "src/fleet/service.h"
#include "src/sim/fleet_population.h"
#include "tests/oracles/fleet_oracle.h"
#include "tests/oracles/lambda_oracle.h"

namespace coign {
namespace {

// The canonical analysis shape: Gui (pinned client) <-> Worker <-> Store
// (pinned server); Worker follows the heavier edge, which flips as the
// network's relative costs move — so different clients really can get
// different cuts.
IccProfileBuilder TestRecording(uint64_t gui_bytes = 200, uint64_t store_bytes = 100000) {
  IccProfileBuilder profile;
  const auto add = [&](ClassificationId id, const std::string& name, uint32_t api,
                       uint64_t instances) {
    ClassificationInfo info;
    info.id = id;
    info.clsid = Guid::FromName("clsid:" + name);
    info.class_name = name;
    info.api_usage = api;
    info.instance_count = instances;
    profile.RecordClassification(info);
  };
  add(0, "Gui", kApiGui, 2);
  add(1, "Worker", kApiNone, 4);
  add(2, "Store", kApiStorage, 1);
  CallKey gui_worker;
  gui_worker.src = 0;
  gui_worker.dst = 1;
  gui_worker.iid = Guid::FromName("iid:IFleetTest");
  CallKey worker_store = gui_worker;
  worker_store.src = 1;
  worker_store.dst = 2;
  profile.RecordCall(gui_worker, gui_bytes, 64, true);
  profile.RecordCall(worker_store, store_bytes, 64, true);
  profile.RecordCompute(1, 0.25);
  return profile;
}

IccProfile TestProfile(uint64_t gui_bytes = 200, uint64_t store_bytes = 100000) {
  return TestRecording(gui_bytes, store_bytes).Build();
}

std::vector<FleetClient> TestFleet(int clients, uint64_t seed = 42) {
  FleetPopulationOptions options;
  options.client_count = clients;
  return GenerateFleet(options, seed);
}

TEST(FleetLinkTest, LossInflatedTermsChargeExpectedRetransmissions) {
  FleetClient client;
  client.network = NetworkModel::TenBaseT();
  client.fault_rates.drop = 0.5;
  const LinkTerms inflated = LossInflatedTerms(client);
  // p = 0.5 doubles the expected attempts per delivery: latency doubles,
  // effective bandwidth halves.
  EXPECT_DOUBLE_EQ(inflated.per_message_seconds, client.network.per_message_seconds * 2.0);
  EXPECT_DOUBLE_EQ(inflated.seconds_per_byte, 2.0 / client.network.bytes_per_second);
  // Zero loss is the identity.
  client.fault_rates.drop = 0.0;
  const LinkTerms untouched = LossInflatedTerms(client);
  EXPECT_DOUBLE_EQ(untouched.per_message_seconds, client.network.per_message_seconds);
  EXPECT_DOUBLE_EQ(untouched.seconds_per_byte, 1.0 / client.network.bytes_per_second);
}

TEST(FleetLinkTest, LossInflationNeverMovesACut) {
  // LossInflatedTerms scales both network terms by 1/(1-p), so every edge's
  // predicted time scales by the same factor and the minimum cut cannot
  // move: the fleet serves a lossy client the cut of its clean link's λ.
  // Checked at each lossy client's own link, inflated and clean.
  FleetPopulationOptions population;
  population.client_count = 2000;
  population.lossy_fraction = 0.5;
  const std::vector<FleetClient> fleet = GenerateFleet(population, 42);
  // Gui <-chatty-> Worker <-bulk-> Store: Worker's side depends on the
  // link's latency-bandwidth product, which the fleet spreads over two
  // decades.
  IccProfileBuilder recording = TestRecording(/*gui_bytes=*/64, /*store_bytes=*/180000);
  CallKey chatty;
  chatty.src = 0;
  chatty.dst = 1;
  chatty.iid = Guid::FromName("iid:IFleetTest");
  for (int call = 1; call < 100; ++call) {
    recording.RecordCall(chatty, 64, 64, true);
  }
  const IccProfile profile = recording.Build();
  const ProfileAnalysisEngine engine;
  size_t lossy = 0;
  std::set<MachineId> worker_sides;
  for (const FleetClient& client : fleet) {
    if (client.fault_rates.drop <= 0.0) {
      continue;
    }
    ++lossy;
    Result<AnalysisResult> clean = engine.Analyze(profile, NetworkProfile::Exact(client.network));
    Result<AnalysisResult> inflated = engine.Analyze(profile, LossInflatedLink(client));
    ASSERT_TRUE(clean.ok());
    ASSERT_TRUE(inflated.ok());
    EXPECT_EQ(inflated->distribution.placement, clean->distribution.placement)
        << "client " << client.id << " drop " << client.fault_rates.drop;
    worker_sides.insert(clean->distribution.MachineFor(1));
  }
  EXPECT_GT(lossy, 500u);
  // Not vacuous: across the fleet's links Worker lands on both sides.
  EXPECT_EQ(worker_sides.size(), 2u);
}

TEST(FleetLinkTest, GenerateFleetLossyFractionDrawsLossyClients) {
  FleetPopulationOptions options;
  options.client_count = 400;
  // Default population is loss-free (back compatible).
  for (const FleetClient& client : GenerateFleet(options, 42)) {
    EXPECT_EQ(client.fault_rates.drop, 0.0);
  }
  options.lossy_fraction = 0.25;
  const std::vector<FleetClient> fleet = GenerateFleet(options, 42);
  size_t lossy = 0;
  for (const FleetClient& client : fleet) {
    if (client.fault_rates.drop > 0.0) {
      ++lossy;
      EXPECT_GE(client.fault_rates.drop, kFleetMinDropRate);
      EXPECT_LE(client.fault_rates.drop, kFleetMaxDropRate);
    }
  }
  EXPECT_GT(lossy, fleet.size() / 8);
  EXPECT_LT(lossy, fleet.size() / 2);
  // Loss draws ride forked per-client streams: the networks of a lossy
  // population match the loss-free one byte for byte.
  const std::vector<FleetClient> clean = GenerateFleet(
      [&] { FleetPopulationOptions o = options; o.lossy_fraction = 0.0; return o; }(),
      42);
  ASSERT_EQ(clean.size(), fleet.size());
  for (size_t i = 0; i < fleet.size(); ++i) {
    EXPECT_EQ(clean[i].network.per_message_seconds,
              fleet[i].network.per_message_seconds);
    EXPECT_EQ(clean[i].network.bytes_per_second, fleet[i].network.bytes_per_second);
  }
}

TEST(FingerprintTest, InsensitiveToRecordingOrderSensitiveToContent) {
  const uint64_t base = ProfileFingerprint(TestProfile());
  EXPECT_EQ(base, ProfileFingerprint(TestProfile()));

  // Same calls recorded in a different interleaving: same fingerprint.
  IccProfile reordered = TestProfile();
  EXPECT_EQ(base, ProfileFingerprint(reordered));

  EXPECT_NE(base, ProfileFingerprint(TestProfile(/*gui_bytes=*/201)));
  EXPECT_NE(base, ProfileFingerprint(TestProfile(200, 100001)));
}

IccProfile ScenarioProfile(const std::vector<std::string>& scenarios) {
  Result<std::unique_ptr<Application>> app = BuildApplicationForScenario(scenarios.front());
  EXPECT_TRUE(app.ok());
  Result<IccProfile> profile = ProfileScenarios(**app, scenarios);
  EXPECT_TRUE(profile.ok());
  return *std::move(profile);
}

std::vector<FleetClient> Population(int clients, double lossy_fraction, uint64_t seed) {
  FleetPopulationOptions options;
  options.client_count = clients;
  options.lossy_fraction = lossy_fraction;
  return GenerateFleet(options, seed);
}

TEST(FleetServiceTest, RejectsAnEmptyFleet) {
  const FleetPartitionService service;
  const IccProfile profile = TestProfile();
  Result<FleetPlanResult> planned = service.Plan(profile, {});
  ASSERT_FALSE(planned.ok());
  EXPECT_EQ(planned.status().code(), StatusCode::kInvalidArgument);
}

// Plans four seed-42 clients on o_oldwp7 with client 1 damaged; the plan
// must fail with InvalidArgument naming client 1.
void ExpectClientOneRejected(const std::function<void(FleetClient&)>& damage,
                             const std::string& what) {
  static const IccProfile profile = ScenarioProfile({"o_oldwp7"});
  std::vector<FleetClient> fleet = TestFleet(4);
  damage(fleet[1]);
  Result<FleetPlanResult> planned = FleetPartitionService().Plan(profile, fleet);
  ASSERT_FALSE(planned.ok()) << what;
  EXPECT_EQ(planned.status().code(), StatusCode::kInvalidArgument) << what;
  EXPECT_NE(planned.status().message().find("fleet client 1:"), std::string::npos)
      << what << ": " << planned.status().ToString();
}

TEST(FleetServiceTest, RejectsIdsThatAreNotZeroToNInOrder) {
  // A duplicate id would be served another client's plan.
  ExpectClientOneRejected([](FleetClient& client) { client.id = 0; }, "duplicate id");
  ExpectClientOneRejected([](FleetClient& client) { client.id = 7; }, "id out of range");
}

TEST(FleetServiceTest, RejectsLatencyThatIsNotFiniteAndPositive) {
  // At zero latency λ is infinite, where Analyze sees every fewest-bytes
  // cut as tied.
  for (const double latency : {std::nan(""), 0.0, -1e-3,
                               std::numeric_limits<double>::infinity()}) {
    ExpectClientOneRejected(
        [latency](FleetClient& client) { client.network.per_message_seconds = latency; },
        "per_message_seconds " + std::to_string(latency));
  }
}

TEST(FleetServiceTest, RejectsBandwidthThatIsNotFiniteAndPositive) {
  for (const double bandwidth : {std::nan(""), 0.0, -1e6,
                                 std::numeric_limits<double>::infinity()}) {
    ExpectClientOneRejected(
        [bandwidth](FleetClient& client) { client.network.bytes_per_second = bandwidth; },
        "bytes_per_second " + std::to_string(bandwidth));
  }
}

TEST(FleetServiceTest, RejectsDropRatesOutsideZeroToOne) {
  for (const double drop : {std::nan(""), -0.1, 1.0, 2.0}) {
    ExpectClientOneRejected([drop](FleetClient& client) { client.fault_rates.drop = drop; },
                            "drop " + std::to_string(drop));
  }
}

TEST(FleetServiceTest, RejectsLinksThatLossInflatesOutOfRange) {
  ExpectClientOneRejected(
      [](FleetClient& client) {
        client.network.per_message_seconds = 1e308;
        client.fault_rates.drop = 0.5;
      },
      "latency overflows when inflated");
}

// A GUI-pinned and a storage-pinned classification joined by non-remotable
// calls, through `chain` free classifications or, for chain 0, directly,
// with remotable calls from outside any classification to each. No cut
// can honour every constraint.
IccProfile UnsatisfiableProfile(int chain) {
  IccProfileBuilder profile;
  const ClassificationId store = static_cast<ClassificationId>(chain + 1);
  for (ClassificationId id = 0; id <= store; ++id) {
    ClassificationInfo info;
    info.id = id;
    info.clsid = Guid::FromName("clsid:Unsatisfiable" + std::to_string(id));
    info.class_name = "C" + std::to_string(id);
    info.api_usage = id == 0 ? kApiGui : id == store ? kApiStorage : kApiNone;
    info.instance_count = 1;
    profile.RecordClassification(info);
    CallKey key;
    key.src = kNoClassification;
    key.dst = id;
    key.iid = Guid::FromName("iid:IUnsatisfiable");
    profile.RecordCall(key, 64, 64, true);
    if (id > 0) {
      key.src = id - 1;
      profile.RecordCall(key, 16, 16, /*remotable=*/false);
    }
  }
  return profile.Build();
}

TEST(FleetServiceTest, UnsatisfiableConstraintsFailEveryEntryPoint) {
  AnalysisOptions whole_network;
  whole_network.algorithm = CutAlgorithm::kRelabelToFront;
  const ProfileAnalysisEngine engine;
  const ProfileAnalysisEngine relabel_to_front(whole_network);
  const NetworkProfile link = NetworkProfile::Exact(NetworkModel::TenBaseT());
  for (const int chain : {3, 0}) {
    SCOPED_TRACE("chain of " + std::to_string(chain));
    const IccProfile profile = UnsatisfiableProfile(chain);
    const auto expect_unsatisfiable = [](const Status& status, const char* what) {
      EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition) << what;
      EXPECT_EQ(status.message(), kUnsatisfiableConstraints) << what;
    };
    // The constraint edges glue both terminals into one group, so the
    // production cut returns without a solve.
    MinCutSession session;
    expect_unsatisfiable(engine.Analyze(profile, link, &session).status(), "Analyze");
    EXPECT_EQ(session.stats().pushes, 0u);
    expect_unsatisfiable(relabel_to_front.Analyze(profile, link).status(),
                         "Analyze by relabel-to-front");
    expect_unsatisfiable(engine.Envelope(profile).status(), "Envelope");
    expect_unsatisfiable(FleetPartitionService().Plan(profile, TestFleet(20)).status(), "Plan");
  }
}

TEST(FleetServiceTest, EveryClientIsServedItsOwnOptimalCut) {
  // The benchmark profile and o_oldwp7, each with a clean seed-42 fleet
  // and a 30%-lossy seed-7 fleet: 1,200 clients, each checked against
  // Analyze at its own link, and every plan against Analyze at its median
  // member's link.
  const std::vector<std::vector<std::string>> profiles = {{"o_newdoc", "o_oldwp3"},
                                                          {"o_oldwp7"}};
  size_t multi_plan_fleets = 0;
  for (const std::vector<std::string>& scenarios : profiles) {
    const IccProfile profile = ScenarioProfile(scenarios);
    for (const auto& [lossy, seed] : {std::pair{0.0, uint64_t{42}}, std::pair{0.3, uint64_t{7}}}) {
      SCOPED_TRACE(scenarios.front() + " lossy " + std::to_string(lossy));
      const std::vector<FleetClient> fleet = Population(300, lossy, seed);
      Result<FleetPlanResult> planned = FleetPartitionService().Plan(profile, fleet);
      ASSERT_TRUE(planned.ok()) << planned.status().ToString();

      Result<std::vector<std::string>> misplaced =
          fleet_oracle::MisplacedClients(profile, fleet, *planned);
      ASSERT_TRUE(misplaced.ok());
      EXPECT_TRUE(misplaced->empty()) << misplaced->size() << " misplaced, first: "
                                      << misplaced->front();
      Result<std::vector<std::string>> mispriced =
          fleet_oracle::MispricedPlans(profile, fleet, *planned);
      ASSERT_TRUE(mispriced.ok());
      EXPECT_TRUE(mispriced->empty()) << mispriced->front();

      // Plans are the occupied segments in λ order; together their
      // members are the fleet, each once, in fleet order.
      EXPECT_EQ(planned->stats.clients, fleet.size());
      EXPECT_EQ(planned->stats.cohorts, planned->plans.size());
      EXPECT_EQ(planned->stats.cache_hits, 0u);
      EXPECT_GE(planned->stats.plans_computed, 2 * planned->breakpoints.size() + 1);
      size_t members = 0;
      for (size_t i = 0; i < planned->plans.size(); ++i) {
        const SegmentPlan& plan = planned->plans[i];
        EXPECT_TRUE(plan.lambda_from < plan.lambda_to);
        if (i > 0) {
          EXPECT_FALSE(plan.lambda_from < planned->plans[i - 1].lambda_to);
        }
        EXPECT_TRUE(std::is_sorted(plan.members.begin(), plan.members.end()));
        for (uint32_t id : plan.members) {
          EXPECT_EQ(planned->CohortIndexOf(id), static_cast<int>(i));
        }
        members += plan.members.size();
      }
      EXPECT_EQ(members, fleet.size());
      multi_plan_fleets += planned->plans.size() > 1 ? 1 : 0;
    }
  }
  EXPECT_GE(multi_plan_fleets, 2u);
}

TEST(FleetServiceTest, AClientOnABreakpointIsServedTheRightHandSegment) {
  // Gui -9 calls, 200 bytes- Worker -one call, 4064 bytes- Store: lines
  // (2, 4064) with Worker on the client and (18, 200) with it on the
  // server meet at λ = 16/3864. A link of 3864·2^-30 s per message and
  // 2^26 bytes per second sits exactly there.
  IccProfileBuilder recording = TestRecording(/*gui_bytes=*/8, /*store_bytes=*/4000);
  CallKey chatty;
  chatty.src = 0;
  chatty.dst = 1;
  chatty.iid = Guid::FromName("iid:IFleetTest");
  for (int call = 1; call < 9; ++call) {
    recording.RecordCall(chatty, 8, 8, true);
  }
  const IccProfile profile = recording.Build();
  std::vector<FleetClient> fleet(1);
  fleet[0].network.per_message_seconds = std::ldexp(3864.0, -30);
  fleet[0].network.bytes_per_second = std::ldexp(1.0, 26);
  Result<FleetPlanResult> planned = FleetPartitionService().Plan(profile, fleet);
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  ASSERT_EQ(planned->breakpoints.size(), 1u);
  EXPECT_TRUE(planned->breakpoints[0] == (LambdaRatio{16, 3864}))
      << planned->breakpoints[0].ToString();
  ASSERT_EQ(planned->plans.size(), 1u);
  EXPECT_TRUE(planned->plans[0].lambda_from == planned->breakpoints[0]);
  EXPECT_EQ(planned->plans[0].analysis.distribution.MachineFor(1), kServerMachine);
}

// A driver, a storage-pinned Store and three free classifications, each
// with one 2·25,000-byte call to Store and d zero-byte calls from the
// driver: on the client it costs 2 messages and 50,000 bytes, on the
// server 2d messages, so it moves to the server at λ = (d−1)/25,000. The
// three switch points, 8e-4, 1.2e-3 and 7.8e-3, sit inside a generated
// fleet's λ range, and each Analyze is a five-node cut.
IccProfile SwitchingProfile() {
  IccProfileBuilder profile;
  const auto add = [&](ClassificationId id, uint32_t api) {
    ClassificationInfo info;
    info.id = id;
    info.clsid = Guid::FromName("clsid:switch" + std::to_string(id));
    info.class_name = "Switch" + std::to_string(id);
    info.api_usage = api;
    info.instance_count = 1;
    profile.RecordClassification(info);
  };
  add(0, kApiStorage);
  CallKey key;
  key.iid = Guid::FromName("iid:IFleetSwitch");
  const int driver_calls[3] = {21, 31, 196};
  for (ClassificationId id = 1; id <= 3; ++id) {
    add(id, kApiNone);
    key.src = id;
    key.dst = 0;
    profile.RecordCall(key, 25000, 25000, true);
    key.src = kNoClassification;
    key.dst = id;
    for (int call = 0; call < driver_calls[id - 1]; ++call) {
      profile.RecordCall(key, 0, 0, true);
    }
  }
  return profile.Build();
}

// Checks `planned` against the exact λ reference: every member is in the
// segment lambda_oracle::SegmentOf places its λ in, and every plan is
// assembled at the link of lambda_oracle::MedianMember.
void ExpectReferencePlacementAndMedians(const IccProfile& profile,
                                        const std::vector<FleetClient>& fleet,
                                        const FleetPlanResult& planned) {
  const ProfileAnalysisEngine engine;
  Result<CutEnvelope> envelope = engine.Envelope(profile);
  ASSERT_TRUE(envelope.ok()) << envelope.status().ToString();
  const std::vector<EnvelopeSegment>& segments = envelope->segments();
  size_t members = 0;
  for (const SegmentPlan& plan : planned.plans) {
    size_t s = 0;
    while (s < segments.size() && !(segments[s].from == plan.lambda_from)) {
      ++s;
    }
    ASSERT_LT(s, segments.size()) << plan.lambda_from.ToString();
    for (uint32_t id : plan.members) {
      const LinkTerms link = LossInflatedTerms(fleet[id]);
      EXPECT_EQ(lambda_oracle::SegmentOf(planned.breakpoints, link.seconds_per_byte,
                                         link.per_message_seconds),
                s)
          << "client " << id;
    }
    members += plan.members.size();
    const uint32_t median = lambda_oracle::MedianMember(fleet, plan.members);
    EXPECT_EQ(fleet_oracle::DiffAnalysis(
                  engine.AnalyzeSegment(profile, *envelope, s, LossInflatedLink(fleet[median])),
                  plan.analysis),
              "")
        << "segment " << s << ", reference median client " << median;
  }
  EXPECT_EQ(members, fleet.size());
}

// A client whose loss-free link has exactly these terms. Its
// seconds_per_byte is 1 / bytes_per_second, so the term must survive
// 1 / (1 / x), as powers of two do.
FleetClient ClientWithTerms(uint32_t id, double per_message_seconds, double seconds_per_byte) {
  FleetClient client;
  client.id = id;
  client.network.per_message_seconds = per_message_seconds;
  client.network.bytes_per_second = 1.0 / seconds_per_byte;
  const LinkTerms link = LossInflatedTerms(client);
  EXPECT_EQ(link.per_message_seconds, per_message_seconds);
  EXPECT_EQ(link.seconds_per_byte, seconds_per_byte);
  return client;
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

TEST(FleetServiceTest, EqualKeysAreOrderedByTheExactComparison) {
  // EnvelopeTest.CompareLambdaIsExact's pair: terms (13, 1), and terms a
  // few ulps off them whose quotient rounds the same although their λ is
  // larger. Client 1 takes the first, client 0 the second scaled by 2^10,
  // which moves neither its key nor its λ but changes its analysis. Both
  // are in the profile's one segment, so the exact fallback must rank
  // client 1 first and make it the median of two; ids alone would pick
  // client 0.
  const IccProfile profile = TestProfile();
  const double pm = Ulps(13.0, 3);
  const double spb = Ulps(1.0, 2);
  const std::vector<FleetClient> fleet = {ClientWithTerms(0, 0x1p10 * pm, 0x1p10 * spb),
                                          ClientWithTerms(1, 13.0, 1.0)};
  ASSERT_EQ(LambdaKey(0x1p10 * spb, 0x1p10 * pm).value, LambdaKey(1.0, 13.0).value);
  ASSERT_GT(lambda_oracle::CompareLambda(spb, pm, 1.0, 13.0), 0);
  Result<FleetPlanResult> planned = FleetPartitionService().Plan(profile, fleet);
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  ASSERT_EQ(planned->plans.size(), 1u);
  EXPECT_EQ(planned->plans[0].members, (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(lambda_oracle::MedianMember(fleet, {0, 1}), 1u);
  ExpectReferencePlacementAndMedians(profile, fleet, *planned);
  // Not vacuous: the two links give different analyses.
  const ProfileAnalysisEngine engine;
  Result<AnalysisResult> at_zero = engine.Analyze(profile, LossInflatedLink(fleet[0]));
  ASSERT_TRUE(at_zero.ok());
  EXPECT_NE(fleet_oracle::DiffAnalysis(*at_zero, planned->plans[0].analysis), "");
}

TEST(FleetServiceTest, EqualLambdaFromDifferentTermsIsOrderedById) {
  // λ = 1/3 from terms 2^11 apart: equal keys and equal exact λ, so the
  // lower id is the median of two, whichever client it is.
  const IccProfile profile = TestProfile();
  const FleetClient small = ClientWithTerms(0, 3 * 0x1p-20, 0x1p-20);
  const FleetClient large = ClientWithTerms(0, 3 * 0x1p-9, 0x1p-9);
  for (const auto& [first, second] : {std::pair{small, large}, std::pair{large, small}}) {
    std::vector<FleetClient> fleet = {first, second};
    fleet[1].id = 1;
    ASSERT_EQ(lambda_oracle::CompareLambda(0x1p-20, 3 * 0x1p-20, 0x1p-9, 3 * 0x1p-9), 0);
    Result<FleetPlanResult> planned = FleetPartitionService().Plan(profile, fleet);
    ASSERT_TRUE(planned.ok()) << planned.status().ToString();
    ASSERT_EQ(planned->plans.size(), 1u);
    EXPECT_EQ(lambda_oracle::MedianMember(fleet, {0, 1}), 0u);
    ExpectReferencePlacementAndMedians(profile, fleet, *planned);
    Result<AnalysisResult> at_one =
        ProfileAnalysisEngine().Analyze(profile, LossInflatedLink(fleet[1]));
    ASSERT_TRUE(at_one.ok());
    EXPECT_NE(fleet_oracle::DiffAnalysis(*at_one, planned->plans[0].analysis), "");
  }
}

TEST(FleetServiceTest, KeysThatOverflowOrUnderflowArePlacedExactly) {
  // λ = 2^1100 and 2^1099 both round to +∞, λ = 2^-1100 and 2^-1101 both
  // to 0: the last and the first segment each hold two clients whose keys
  // tie, ordered by the exact comparison against their ids.
  const IccProfile profile = SwitchingProfile();
  const std::vector<FleetClient> fleet = {
      ClientWithTerms(0, 0x1p-600, 0x1p500), ClientWithTerms(1, 0x1p-599, 0x1p500),
      ClientWithTerms(2, 0x1p600, 0x1p-500), ClientWithTerms(3, 0x1p601, 0x1p-500)};
  EXPECT_EQ(LambdaKey(0x1p500, 0x1p-600).value, std::numeric_limits<double>::infinity());
  EXPECT_EQ(LambdaKey(0x1p-500, 0x1p600).value, 0.0);
  Result<FleetPlanResult> planned = FleetPartitionService().Plan(profile, fleet);
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  ASSERT_EQ(planned->breakpoints.size(), 3u);
  ASSERT_EQ(planned->plans.size(), 2u);
  EXPECT_EQ(planned->plans[0].members, (std::vector<uint32_t>{2, 3}));
  EXPECT_EQ(planned->plans[1].members, (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(lambda_oracle::MedianMember(fleet, {2, 3}), 3u);
  EXPECT_EQ(lambda_oracle::MedianMember(fleet, {0, 1}), 1u);
  ExpectReferencePlacementAndMedians(profile, fleet, *planned);
}

TEST(FleetServiceTest, KeyFirstPlansMatchTheReferenceOnTenFleets) {
  // Ten 2,000-client fleets, 30% lossy, through the λ reference (segment
  // and median of every client and plan) and the per-client oracle.
  const IccProfile profile = SwitchingProfile();
  Result<CutEnvelope> envelope = ProfileAnalysisEngine().Envelope(profile);
  ASSERT_TRUE(envelope.ok()) << envelope.status().ToString();
  ASSERT_EQ(envelope->segments().size(), 4u);
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::vector<FleetClient> fleet = Population(2000, 0.3, seed);
    Result<FleetPlanResult> planned = FleetPartitionService().Plan(profile, fleet);
    ASSERT_TRUE(planned.ok()) << planned.status().ToString();
    EXPECT_EQ(planned->plans.size(), 4u);
    ExpectReferencePlacementAndMedians(profile, fleet, *planned);
    Result<std::vector<std::string>> misplaced =
        fleet_oracle::MisplacedClients(profile, fleet, *planned);
    ASSERT_TRUE(misplaced.ok());
    EXPECT_TRUE(misplaced->empty()) << misplaced->size() << " misplaced, first: "
                                    << misplaced->front();
    Result<std::vector<std::string>> mispriced =
        fleet_oracle::MispricedPlans(profile, fleet, *planned);
    ASSERT_TRUE(mispriced.ok());
    EXPECT_TRUE(mispriced->empty()) << mispriced->front();
  }
}

TEST(FleetServiceTest, PlansAreAPureFunctionOfTheInputs) {
  const IccProfile profile = TestProfile();
  const std::vector<FleetClient> fleet = Population(200, 0.3, 3);
  Result<FleetPlanResult> first = FleetPartitionService().Plan(profile, fleet);
  Result<FleetPlanResult> second = FleetPartitionService().Plan(profile, fleet);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(first->plans.size(), second->plans.size());
  for (size_t i = 0; i < first->plans.size(); ++i) {
    EXPECT_EQ(first->plans[i].members, second->plans[i].members);
    EXPECT_EQ(fleet_oracle::DiffAnalysis(first->plans[i].analysis, second->plans[i].analysis),
              "");
  }
}

}  // namespace
}  // namespace coign
