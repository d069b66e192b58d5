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

namespace coign {
namespace {

// The canonical analysis shape: Gui (pinned client) <-> Worker <-> Store
// (pinned server); Worker follows the heavier edge, which flips as the
// network's relative costs move — so different clients really can get
// different cuts.
IccProfile TestProfile(uint64_t gui_bytes = 200, uint64_t store_bytes = 100000) {
  IccProfile profile;
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

std::vector<FleetClient> TestFleet(int clients, uint64_t seed = 42) {
  FleetPopulationOptions options;
  options.client_count = clients;
  return GenerateFleet(options, seed);
}

TEST(FleetLinkTest, InflateForLossChargesExpectedRetransmissions) {
  const NetworkModel base = NetworkModel::TenBaseT();
  const NetworkModel inflated = InflateForLoss(base, 0.5);
  // p = 0.5 doubles the expected attempts per delivery: latency doubles,
  // effective bandwidth halves.
  EXPECT_DOUBLE_EQ(inflated.per_message_seconds, base.per_message_seconds * 2.0);
  EXPECT_DOUBLE_EQ(inflated.bytes_per_second, base.bytes_per_second / 2.0);
  // Zero loss is the identity.
  const NetworkModel untouched = InflateForLoss(base, 0.0);
  EXPECT_DOUBLE_EQ(untouched.per_message_seconds, base.per_message_seconds);
  EXPECT_DOUBLE_EQ(untouched.bytes_per_second, base.bytes_per_second);
}

TEST(FleetLinkTest, LossInflationNeverMovesACut) {
  // InflateForLoss scales both network terms by 1/(1-p), so every edge's
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
  IccProfile profile = TestProfile(/*gui_bytes=*/64, /*store_bytes=*/180000);
  CallKey chatty;
  chatty.src = 0;
  chatty.dst = 1;
  chatty.iid = Guid::FromName("iid:IFleetTest");
  for (int call = 1; call < 100; ++call) {
    profile.RecordCall(chatty, 64, 64, true);
  }
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
  IccProfile profile = TestProfile(/*gui_bytes=*/8, /*store_bytes=*/4000);
  CallKey chatty;
  chatty.src = 0;
  chatty.dst = 1;
  chatty.iid = Guid::FromName("iid:IFleetTest");
  for (int call = 1; call < 9; ++call) {
    profile.RecordCall(chatty, 8, 8, true);
  }
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
