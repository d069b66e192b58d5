#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/com/class_registry.h"
#include "src/fleet/cohort.h"
#include "src/fleet/fingerprint.h"
#include "src/fleet/plan_cache.h"
#include "src/fleet/service.h"
#include "src/fleet/thread_pool.h"
#include "src/sim/fleet_population.h"

namespace coign {
namespace {

// The canonical analysis shape: Gui (pinned client) <-> Worker <-> Store
// (pinned server); Worker follows the heavier edge, which flips as the
// network's relative costs move — so different cohorts really can get
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

TEST(CohortTest, BucketCenterLandsInItsOwnBucket) {
  const CohortingOptions options;
  for (const NetworkModel& model :
       {NetworkModel::Isdn(), NetworkModel::TenBaseT(), NetworkModel::San()}) {
    const CohortKey key = BucketOf(model, options);
    const NetworkModel center = BucketCenter(key, options);
    EXPECT_EQ(BucketOf(center, options), key) << model.name;
  }
}

TEST(CohortTest, NearbyClientsShareABucketDistantOnesDoNot) {
  const CohortingOptions options;
  const NetworkModel base = NetworkModel::TenBaseT();
  // 10^(1/8) per bucket: a 1% perturbation stays put (away from an edge, as
  // the preset happens to sit), a 10x shift moves a full decade of buckets.
  EXPECT_EQ(BucketOf(base, options), BucketOf(base.Scaled(1.01, 1.0), options));
  const CohortKey shifted = BucketOf(base.Scaled(10.0, 0.1), options);
  EXPECT_EQ(shifted.latency_bucket, BucketOf(base, options).latency_bucket + 8);
  EXPECT_EQ(shifted.bandwidth_bucket, BucketOf(base, options).bandwidth_bucket - 8);
}

TEST(CohortTest, BuildCohortsPartitionsTheFleetInGridOrder) {
  const std::vector<FleetClient> fleet = TestFleet(200);
  const CohortingOptions options;
  const std::vector<Cohort> cohorts = BuildCohorts(fleet, options);
  ASSERT_FALSE(cohorts.empty());

  std::set<uint32_t> seen;
  for (size_t i = 0; i < cohorts.size(); ++i) {
    if (i > 0) {
      EXPECT_TRUE(cohorts[i - 1].key < cohorts[i].key);
    }
    EXPECT_EQ(BucketOf(cohorts[i].representative, options), cohorts[i].key);
    for (uint32_t member : cohorts[i].members) {
      EXPECT_EQ(BucketOf(fleet[member].network, options), cohorts[i].key);
      EXPECT_TRUE(seen.insert(member).second) << "client in two cohorts";
    }
  }
  EXPECT_EQ(seen.size(), fleet.size());
}

TEST(CohortTest, LossyClientsBucketApartFromCleanOnes) {
  const CohortingOptions options;
  FleetClient clean;
  clean.network = NetworkModel::TenBaseT();
  FleetClient lossy = clean;
  lossy.fault_rates.drop = 0.01;

  const CohortKey clean_key = BucketOf(clean, options);
  const CohortKey lossy_key = BucketOf(lossy, options);
  EXPECT_EQ(clean_key.loss_bucket, 0);
  EXPECT_LT(lossy_key.loss_bucket, 0);
  // Same link, different keys: a lossy client never shares a plan with a
  // clean one.
  EXPECT_EQ(clean_key.latency_bucket, lossy_key.latency_bucket);
  EXPECT_EQ(clean_key.bandwidth_bucket, lossy_key.bandwidth_bucket);
  EXPECT_TRUE(clean_key < lossy_key || lossy_key < clean_key);
  EXPECT_NE(clean_key.ToString(), lossy_key.ToString());
  // The loss axis only shows for lossy buckets; clean names are unchanged.
  EXPECT_EQ(clean_key.ToString().find("/D"), std::string::npos);
  EXPECT_NE(lossy_key.ToString().find("/D"), std::string::npos);

  // Below the clean threshold the loss axis stays off entirely.
  FleetClient barely = clean;
  barely.fault_rates.drop = options.clean_drop_threshold / 2.0;
  EXPECT_EQ(BucketOf(barely, options).loss_bucket, 0);

  // The bucket's representative drop rate lands back in the same bucket.
  FleetClient center = clean;
  center.fault_rates.drop = BucketDropCenter(lossy_key.loss_bucket, options);
  EXPECT_EQ(BucketOf(center, options).loss_bucket, lossy_key.loss_bucket);
}

TEST(CohortTest, InflateForLossChargesExpectedRetransmissions) {
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

TEST(CohortTest, LossInflationNeverMovesACut) {
  // InflateForLoss scales both network terms by 1/(1-p), so every edge's
  // predicted time scales by the same factor and the minimum cut cannot
  // move: the loss axis only keeps lossy clients out of clean cohorts.
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
    Result<AnalysisResult> inflated = engine.Analyze(
        profile, NetworkProfile::Exact(InflateForLoss(client.network, client.fault_rates.drop)));
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

TEST(CohortTest, GenerateFleetLossyFractionDrawsLossyClients) {
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
      EXPECT_GE(client.fault_rates.drop, options.min_drop_rate);
      EXPECT_LE(client.fault_rates.drop, options.max_drop_rate);
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

TEST(PlanCacheTest, CountsHitsAndMissesAndEvictsLru) {
  PlanCache cache(2);
  AnalysisResult plan;
  const auto key = [](int32_t bucket) {
    return PlanCacheKey{1, CohortKey{bucket, 0}};
  };

  EXPECT_FALSE(cache.Lookup(key(0)).has_value());
  cache.Insert(key(0), plan);
  cache.Insert(key(1), plan);
  EXPECT_TRUE(cache.Lookup(key(0)).has_value());  // Refreshes 0 over 1.
  cache.Insert(key(2), plan);                     // Evicts 1, the LRU.
  EXPECT_TRUE(cache.Lookup(key(0)).has_value());
  EXPECT_FALSE(cache.Lookup(key(1)).has_value());
  EXPECT_TRUE(cache.Lookup(key(2)).has_value());

  const PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.insertions, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(PlanCacheTest, DistinctProfilesDoNotCollide) {
  PlanCache cache(8);
  AnalysisResult plan;
  cache.Insert(PlanCacheKey{1, CohortKey{0, 0}}, plan);
  EXPECT_FALSE(cache.Lookup(PlanCacheKey{2, CohortKey{0, 0}}).has_value());
}

TEST(PlanCacheTest, ZeroCapacityDisablesCaching) {
  PlanCache cache(0);
  AnalysisResult plan;
  cache.Insert(PlanCacheKey{1, CohortKey{0, 0}}, plan);
  EXPECT_FALSE(cache.Lookup(PlanCacheKey{1, CohortKey{0, 0}}).has_value());
  EXPECT_EQ(cache.size(), 0u);
}

// A plan with every serialized field populated, so the round-trip tests
// exercise the full snapshot format (bit-pattern doubles included).
AnalysisResult SnapshotPlan(double seconds) {
  AnalysisResult plan;
  plan.predicted_comm_seconds = seconds;
  plan.total_comm_seconds = seconds * 3.0 + 0.1;
  plan.client_classifications = 2;
  plan.server_classifications = 1;
  plan.client_instances = 6;
  plan.server_instances = 1;
  plan.non_remotable_pairs = 1;
  plan.distribution.default_machine = kClientMachine;
  plan.distribution.placement[0] = kClientMachine;
  plan.distribution.placement[1] = kClientMachine;
  plan.distribution.placement[2] = kServerMachine;
  CutEdgeReport edge;
  edge.client_side = 1;
  edge.server_side = 2;
  edge.seconds = seconds / 7.0;  // Not decimal-round; bit pattern must survive.
  plan.cut_edges.push_back(edge);
  return plan;
}

TEST(PlanCacheTest, SerializeLoadRoundTripsByteExactly) {
  PlanCache cache(8);
  cache.Insert(PlanCacheKey{11, CohortKey{0, 1}}, SnapshotPlan(0.125));
  cache.Insert(PlanCacheKey{11, CohortKey{2, 3}}, SnapshotPlan(1.0 / 3.0));
  cache.Insert(PlanCacheKey{12, CohortKey{0, 1}}, SnapshotPlan(2.7182818));

  const std::string snapshot = cache.Serialize();
  PlanCache reloaded(8);
  ASSERT_TRUE(reloaded.Load(snapshot).ok());
  EXPECT_EQ(reloaded.size(), 3u);
  // Byte-exact round trip: reserializing the loaded cache reproduces the
  // snapshot, LRU order and double bit patterns included.
  EXPECT_EQ(reloaded.Serialize(), snapshot);

  const auto hit = reloaded.Lookup(PlanCacheKey{11, CohortKey{2, 3}});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->predicted_comm_seconds, 1.0 / 3.0);
  EXPECT_EQ(hit->distribution.placement.at(2), kServerMachine);
  ASSERT_EQ(hit->cut_edges.size(), 1u);
  EXPECT_EQ(hit->cut_edges[0].seconds, (1.0 / 3.0) / 7.0);
}

TEST(PlanCacheTest, LoadPreservesLruOrderAcrossRestart) {
  PlanCache cache(2);
  const auto key = [](int32_t bucket) {
    return PlanCacheKey{1, CohortKey{bucket, 0}};
  };
  cache.Insert(key(0), SnapshotPlan(0.1));
  cache.Insert(key(1), SnapshotPlan(0.2));
  (void)cache.Lookup(key(0));  // 0 is now most recent; 1 is the LRU.

  PlanCache reloaded(2);
  ASSERT_TRUE(reloaded.Load(cache.Serialize()).ok());
  reloaded.Insert(key(2), SnapshotPlan(0.3));  // Must evict 1, not 0.
  EXPECT_TRUE(reloaded.Lookup(key(0)).has_value());
  EXPECT_FALSE(reloaded.Lookup(key(1)).has_value());
  EXPECT_TRUE(reloaded.Lookup(key(2)).has_value());
}

TEST(PlanCacheTest, LoadIntoSmallerCacheKeepsTheMostRecentEntries) {
  PlanCache cache(4);
  const auto key = [](int32_t bucket) {
    return PlanCacheKey{1, CohortKey{bucket, 0}};
  };
  for (int32_t bucket = 0; bucket < 4; ++bucket) {
    cache.Insert(key(bucket), SnapshotPlan(0.1 * (bucket + 1)));
  }

  PlanCache smaller(2);
  ASSERT_TRUE(smaller.Load(cache.Serialize()).ok());
  EXPECT_EQ(smaller.size(), 2u);
  EXPECT_TRUE(smaller.Lookup(key(3)).has_value());
  EXPECT_TRUE(smaller.Lookup(key(2)).has_value());
  EXPECT_FALSE(smaller.Lookup(key(0)).has_value());
}

TEST(PlanCacheTest, LoadRejectsMalformedSnapshots) {
  PlanCache cache(4);
  EXPECT_FALSE(cache.Load("not a cache").ok());
  EXPECT_FALSE(cache.Load("plan-cache v9 0\n").ok());
  EXPECT_TRUE(cache.Load("plan-cache v4 0\n").ok());  // Empty is fine.
}

TEST(PlanCacheTest, OlderFormatVersionsAreRejectedByName) {
  // Only v4 (checksummed records) loads. A v1-v3 snapshot, even an empty
  // one, is an InvalidArgument that names the version found and the
  // version this build reads.
  for (const std::string version : {"v1", "v2", "v3"}) {
    PlanCache cache(4);
    const Status status = cache.Load("plan-cache " + version + " 0\n");
    ASSERT_FALSE(status.ok()) << version;
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << version;
    EXPECT_NE(status.message().find("unsupported version " + version), std::string::npos)
        << status.ToString();
    EXPECT_NE(status.message().find("reads v4"), std::string::npos) << status.ToString();
  }
}

TEST(PlanCacheTest, V4DamageIsLocalizedToTheDamagedRecord) {
  PlanCache cache(8);
  cache.Insert(PlanCacheKey{11, CohortKey{0, 1}}, SnapshotPlan(0.125));
  cache.Insert(PlanCacheKey{11, CohortKey{2, 3}}, SnapshotPlan(1.0 / 3.0));
  cache.Insert(PlanCacheKey{12, CohortKey{0, 1}}, SnapshotPlan(2.7182818));
  std::string snapshot = cache.Serialize();

  // Flip one bit in the middle record's plan line: only that record is
  // dropped (and counted); its neighbors load intact.
  const size_t damage = snapshot.find("plan ", snapshot.find("plan ") + 1);
  ASSERT_NE(damage, std::string::npos);
  snapshot[damage] ^= 0x08;
  PlanCache reloaded(8);
  ASSERT_TRUE(reloaded.Load(snapshot).ok());
  EXPECT_EQ(reloaded.size(), 2u);
  EXPECT_EQ(reloaded.stats().corrupt_skipped, 1u);
  EXPECT_TRUE(reloaded.Lookup(PlanCacheKey{11, CohortKey{0, 1}}).has_value());
  EXPECT_TRUE(reloaded.Lookup(PlanCacheKey{12, CohortKey{0, 1}}).has_value());

  // A truncated tail (torn write) drops the unfinished record without
  // counting it as corruption.
  const std::string full = cache.Serialize();
  const std::string torn = full.substr(0, full.size() - 10);
  PlanCache torn_cache(8);
  ASSERT_TRUE(torn_cache.Load(torn).ok());
  EXPECT_EQ(torn_cache.size(), 2u);
  EXPECT_EQ(torn_cache.stats().corrupt_skipped, 0u);
}

TEST(FleetServiceTest, CacheFileRoundTripServesWarmRestart) {
  const IccProfile profile = TestProfile();
  const std::vector<FleetClient> fleet = TestFleet(48);
  const std::string path = ::testing::TempDir() + "/coign_plan_cache_test.txt";

  FleetServiceOptions options;
  options.worker_threads = 1;
  FleetPartitionService cold(options);
  Result<FleetPlanResult> first = cold.Plan(profile, fleet);
  ASSERT_TRUE(first.ok());
  EXPECT_GT(first->stats.plans_computed, 0u);
  ASSERT_TRUE(cold.SaveCache(path).ok());

  FleetPartitionService warm(options);
  ASSERT_TRUE(warm.LoadCache(path).ok());
  EXPECT_EQ(warm.cache_size(), cold.cache_size());
  Result<FleetPlanResult> second = warm.Plan(profile, fleet);
  ASSERT_TRUE(second.ok());
  // A warm restart recomputes nothing and serves identical plans.
  EXPECT_EQ(second->stats.plans_computed, 0u);
  EXPECT_EQ(second->stats.cache_hits, second->stats.cohorts);
  ASSERT_EQ(second->plans.size(), first->plans.size());
  for (size_t i = 0; i < first->plans.size(); ++i) {
    EXPECT_EQ(second->plans[i].analysis.predicted_comm_seconds,
              first->plans[i].analysis.predicted_comm_seconds);
    EXPECT_EQ(second->plans[i].analysis.distribution.placement,
              first->plans[i].analysis.distribution.placement);
  }

  FleetPartitionService missing(options);
  EXPECT_EQ(missing.LoadCache(path + ".does-not-exist").code(),
            StatusCode::kNotFound);
}

TEST(WorkerPoolTest, RunsEveryIndexExactlyOnce) {
  for (const int threads : {1, 4}) {
    WorkerPool pool(threads);
    constexpr size_t kCount = 1000;
    std::vector<std::atomic<int>> runs(kCount);
    pool.ParallelFor(kCount, [&](size_t i) { runs[i].fetch_add(1); });
    for (size_t i = 0; i < kCount; ++i) {
      EXPECT_EQ(runs[i].load(), 1) << i;
    }
    pool.ParallelFor(0, [&](size_t) { ADD_FAILURE() << "empty batch ran a task"; });
  }
}

TEST(WorkerPoolTest, BatchesAreReusable) {
  WorkerPool pool(3);
  std::atomic<size_t> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.ParallelFor(17, [&](size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 50u * 17u);
}

TEST(FleetServiceTest, RejectsAnEmptyFleet) {
  FleetPartitionService service;
  const IccProfile profile = TestProfile();
  Result<FleetPlanResult> planned = service.Plan(profile, {});
  ASSERT_FALSE(planned.ok());
  EXPECT_EQ(planned.status().code(), StatusCode::kInvalidArgument);
}

TEST(FleetServiceTest, EveryClientIsServedByItsOwnBucket) {
  FleetServiceOptions options;
  options.worker_threads = 4;
  FleetPartitionService service(options);
  const IccProfile profile = TestProfile();
  const std::vector<FleetClient> fleet = TestFleet(150);
  Result<FleetPlanResult> planned = service.Plan(profile, fleet);
  ASSERT_TRUE(planned.ok());
  EXPECT_EQ(planned->stats.clients, fleet.size());
  EXPECT_EQ(planned->stats.plans_computed, planned->stats.cohorts);
  for (const FleetClient& client : fleet) {
    const int index = planned->CohortIndexOf(client.id);
    ASSERT_GE(index, 0) << client.id;
    EXPECT_EQ(planned->plans[index].cohort.key,
              BucketOf(client.network, options.cohorting));
    // Pins hold in every cohort's plan.
    const Distribution& d = planned->plans[index].analysis.distribution;
    EXPECT_EQ(d.MachineFor(0), kClientMachine);
    EXPECT_EQ(d.MachineFor(2), kServerMachine);
  }
}

TEST(FleetServiceTest, ParallelPlanningMatchesSerialBitForBit) {
  const IccProfile profile = TestProfile();
  const std::vector<FleetClient> fleet = TestFleet(200);

  const auto plan_with = [&](int threads) {
    FleetServiceOptions options;
    options.worker_threads = threads;
    options.compute_regret = true;
    FleetPartitionService service(options);
    Result<FleetPlanResult> planned = service.Plan(profile, fleet);
    EXPECT_TRUE(planned.ok());
    return *planned;
  };

  const FleetPlanResult serial = plan_with(1);
  const FleetPlanResult parallel = plan_with(8);
  ASSERT_EQ(serial.plans.size(), parallel.plans.size());
  for (size_t i = 0; i < serial.plans.size(); ++i) {
    EXPECT_EQ(serial.plans[i].cohort.key, parallel.plans[i].cohort.key);
    EXPECT_EQ(serial.plans[i].cohort.members, parallel.plans[i].cohort.members);
    for (ClassificationId id = 0; id < 3; ++id) {
      EXPECT_EQ(serial.plans[i].analysis.distribution.MachineFor(id),
                parallel.plans[i].analysis.distribution.MachineFor(id));
    }
    EXPECT_EQ(serial.plans[i].analysis.predicted_comm_seconds,
              parallel.plans[i].analysis.predicted_comm_seconds);
  }
  // Regret reductions run in index order on the coordinator, so even the
  // accumulated doubles are identical, not merely close.
  EXPECT_EQ(serial.regret.mean, parallel.regret.mean);
  EXPECT_EQ(serial.regret.p95, parallel.regret.p95);
  EXPECT_EQ(serial.regret.max, parallel.regret.max);
}

TEST(FleetServiceTest, SecondPassIsServedEntirelyFromCache) {
  FleetServiceOptions options;
  options.worker_threads = 4;
  FleetPartitionService service(options);
  const IccProfile profile = TestProfile();
  const std::vector<FleetClient> fleet = TestFleet(120);

  Result<FleetPlanResult> first = service.Plan(profile, fleet);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->stats.cache_hits, 0u);

  Result<FleetPlanResult> second = service.Plan(profile, fleet);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->stats.plans_computed, 0u);
  EXPECT_EQ(second->stats.cache_hits, second->stats.cohorts);
  for (const CohortPlan& plan : second->plans) {
    EXPECT_TRUE(plan.from_cache);
  }
  EXPECT_GT(service.cache_stats().hit_rate(), 0.0);

  // A different profile is a different cache namespace: all misses again.
  const IccProfile other = TestProfile(/*gui_bytes=*/5000);
  Result<FleetPlanResult> third = service.Plan(other, fleet);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->stats.cache_hits, 0u);
}

TEST(FleetServiceTest, CohortRegretStaysSmall) {
  FleetServiceOptions options;
  options.worker_threads = 4;
  options.compute_regret = true;
  FleetPartitionService service(options);
  const IccProfile profile = TestProfile();
  Result<FleetPlanResult> planned = service.Plan(profile, TestFleet(300));
  ASSERT_TRUE(planned.ok());
  EXPECT_GE(planned->regret.mean, 0.0);
  EXPECT_LE(planned->regret.mean, 0.10);  // The issue's acceptance bound.
  EXPECT_GE(planned->regret.max, planned->regret.p95);
  EXPECT_GT(planned->regret.mean_optimal_seconds, 0.0);
}

}  // namespace
}  // namespace coign
