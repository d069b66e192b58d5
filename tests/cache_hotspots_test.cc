// Tests for per-interface caching and the hot-spot report.

#include <gtest/gtest.h>

#include "src/analysis/hotspots.h"
#include "src/apps/component_library.h"
#include "src/runtime/cache.h"

namespace coign {
namespace {

enum Method : MethodIndex { kQuery = 0, kMutate = 1 };

class CacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(system_.interfaces()
                    .Register(InterfaceBuilder("IQuery")
                                  .Method("Query")
                                  .Cacheable()
                                  .In("key", ValueKind::kInt32)
                                  .Out("value", ValueKind::kInt64)
                                  .Method("Mutate")
                                  .In("key", ValueKind::kInt32)
                                  .Out("value", ValueKind::kInt64)
                                  .Build())
                    .ok());
    iid_ = system_.interfaces().LookupByName("IQuery")->iid;
    // Both methods return a counter so repeated dispatches are observable.
    for (MethodIndex m : {kQuery, kMutate}) {
      handlers_.Set(iid_, m, [](ScriptedComponent& self, const Message& in, Message* out) {
        (void)in;
        const int64_t n = self.GetInt("calls") + 1;
        self.SetState("calls", Value::FromInt64(n));
        out->Add("value", Value::FromInt64(n));
        return Status::Ok();
      });
    }
    ASSERT_TRUE(RegisterScriptedClass(&system_, "Q", {iid_}, kApiNone, &handlers_).ok());
    Result<ObjectRef> target = CreateByName(system_, "Q", "IQuery");
    ASSERT_TRUE(target.ok());
    target_ = *target;
  }

  Result<int64_t> Call(MethodIndex method, int32_t key) {
    Message in;
    in.Add("key", Value::FromInt32(key));
    Result<Message> out = CallMethod(system_, target_, method, in);
    if (!out.ok()) {
      return out.status();
    }
    return out->Find("value")->AsInt64();
  }

  void MakeRemote() { ASSERT_TRUE(system_.MoveInstance(target_.instance, kServerMachine).ok()); }

  ObjectSystem system_;
  HandlerTable handlers_;
  InterfaceId iid_;
  ObjectRef target_;
};

TEST_F(CacheTest, RepeatedRemoteQueryServedFromCache) {
  MakeRemote();
  InterfaceCache cache(&system_);
  EXPECT_EQ(*Call(kQuery, 7), 1);  // Miss: dispatched.
  EXPECT_EQ(*Call(kQuery, 7), 1);  // Hit: same reply, no dispatch.
  EXPECT_EQ(*Call(kQuery, 7), 1);
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(system_.filtered_calls(), 2u);
  // A different request misses.
  EXPECT_EQ(*Call(kQuery, 8), 2);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST_F(CacheTest, LocalCallsNeverCached) {
  InterfaceCache cache(&system_);
  EXPECT_EQ(*Call(kQuery, 7), 1);
  EXPECT_EQ(*Call(kQuery, 7), 2);  // Dispatched again: local calls are cheap.
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST_F(CacheTest, NonCacheableMethodsNeverCached) {
  MakeRemote();
  InterfaceCache cache(&system_);
  EXPECT_EQ(*Call(kMutate, 7), 1);
  EXPECT_EQ(*Call(kMutate, 7), 2);  // Mutations always dispatch.
  EXPECT_EQ(cache.hits(), 0u);
}

TEST_F(CacheTest, DestructionInvalidatesEntries) {
  MakeRemote();
  InterfaceCache cache(&system_);
  EXPECT_EQ(*Call(kQuery, 7), 1);
  EXPECT_EQ(cache.size(), 1u);
  ASSERT_TRUE(system_.DestroyInstance(target_.instance).ok());
  EXPECT_EQ(cache.size(), 0u);
}

TEST_F(CacheTest, EvictionRespectsBound) {
  MakeRemote();
  InterfaceCache cache(&system_, /*max_entries=*/4);
  for (int32_t key = 0; key < 10; ++key) {
    ASSERT_TRUE(Call(kQuery, key).ok());
  }
  EXPECT_LE(cache.size(), 4u);
  // The newest entries survive.
  EXPECT_EQ(*Call(kQuery, 9), 10);  // Hit: dispatch count unchanged.
  EXPECT_GT(cache.hits(), 0u);
}

TEST_F(CacheTest, ClearAndDetach) {
  MakeRemote();
  {
    InterfaceCache cache(&system_);
    ASSERT_TRUE(Call(kQuery, 1).ok());
    cache.Clear();
    EXPECT_EQ(cache.size(), 0u);
  }
  // Cache destroyed: calls dispatch normally again.
  EXPECT_EQ(*Call(kQuery, 1), 2);
  EXPECT_EQ(*Call(kQuery, 1), 3);
}

// --- Hot spots -----------------------------------------------------------------

IccProfile HotProfile() {
  IccProfileBuilder profile;
  auto add = [&profile](ClassificationId id, const std::string& name) {
    ClassificationInfo info;
    info.id = id;
    info.clsid = Guid::FromName("clsid:" + name);
    info.class_name = name;
    profile.RecordClassification(info);
  };
  add(0, "Form");
  add(1, "List");
  add(2, "Db");
  CallKey heavy;
  heavy.src = 0;
  heavy.dst = 1;
  heavy.iid = Guid::FromName("iid:IQuery");
  heavy.method = 0;
  for (int i = 0; i < 100; ++i) {
    profile.RecordCall(heavy, 500, 500, true);
  }
  CallKey light = heavy;
  light.method = 1;
  profile.RecordCall(light, 10, 10, true);
  CallKey internal;
  internal.src = 1;
  internal.dst = 2;
  internal.iid = heavy.iid;
  for (int i = 0; i < 1000; ++i) {
    profile.RecordCall(internal, 5000, 50, true);
  }
  return profile.Build();
}

TEST(HotSpotTest, OnlyCrossingCallsRankedBySeconds) {
  const IccProfile profile = HotProfile();
  Distribution distribution;
  distribution.placement[0] = kClientMachine;
  distribution.placement[1] = kServerMachine;
  distribution.placement[2] = kServerMachine;  // List<->Db stays internal.
  NetworkProfile network;
  network.per_message_seconds = 1e-3;
  network.seconds_per_byte = 1e-6;

  const std::vector<HotSpot> spots = FindHotSpots(profile, distribution, network);
  ASSERT_EQ(spots.size(), 2u);
  EXPECT_EQ(spots[0].method, 0u);  // The heavy method first.
  EXPECT_EQ(spots[0].calls, 100u);
  EXPECT_GT(spots[0].seconds, spots[1].seconds);
  EXPECT_EQ(spots[0].src_name, "Form");
  EXPECT_EQ(spots[0].dst_name, "List");
}

TEST(HotSpotTest, RegistryResolvesNamesAndCacheability) {
  InterfaceRegistry registry;
  ASSERT_TRUE(registry
                  .Register(InterfaceBuilder("IQuery")
                                .Method("Query")
                                .Cacheable()
                                .Method("Mutate")
                                .Build())
                  .ok());
  Distribution distribution;
  distribution.placement[0] = kClientMachine;
  distribution.placement[1] = kServerMachine;
  distribution.placement[2] = kServerMachine;
  const std::vector<HotSpot> spots =
      FindHotSpots(HotProfile(), distribution, NetworkProfile::Exact(NetworkModel::TenBaseT()),
                   &registry);
  ASSERT_EQ(spots.size(), 2u);
  EXPECT_EQ(spots[0].interface_name, "IQuery");
  EXPECT_EQ(spots[0].method_name, "Query");
  EXPECT_TRUE(spots[0].cacheable);
  EXPECT_FALSE(spots[1].cacheable);
  const std::string report = HotSpotReport(spots);
  EXPECT_NE(report.find("IQuery::Query"), std::string::npos);
  EXPECT_NE(report.find("[cacheable]"), std::string::npos);
}

TEST(HotSpotTest, MaxSpotsTruncatesAndEmptyReports) {
  Distribution all_client = EverythingOn(kClientMachine);
  const std::vector<HotSpot> spots =
      FindHotSpots(HotProfile(), all_client, NetworkProfile::Exact(NetworkModel::TenBaseT()));
  EXPECT_TRUE(spots.empty());
  EXPECT_NE(HotSpotReport(spots).find("(none"), std::string::npos);

  Distribution split;
  split.placement[0] = kClientMachine;
  split.placement[1] = kServerMachine;
  split.placement[2] = kServerMachine;
  EXPECT_EQ(FindHotSpots(HotProfile(), split,
                         NetworkProfile::Exact(NetworkModel::TenBaseT()), nullptr, 1)
                .size(),
            1u);
}

}  // namespace
}  // namespace coign
