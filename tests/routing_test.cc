#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/random.h"
#include "routing/router.h"

namespace esdb {
namespace {

TEST(RuleListTest, EmptyDefaultsToOne) {
  RuleList rules;
  EXPECT_EQ(rules.MatchWrite(42, 1000), 1u);
  EXPECT_EQ(rules.MaxOffset(42), 1u);
  EXPECT_EQ(rules.size(), 0u);
}

TEST(RuleListTest, UpdateGroupsByTimeAndOffset) {
  RuleList rules;
  rules.Update(100, 4, 1);
  rules.Update(100, 4, 2);  // same (t, s): appended to k_list
  rules.Update(200, 8, 1);
  EXPECT_EQ(rules.size(), 2u);
  const auto all = rules.Rules();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].tenants, (std::vector<TenantId>{1, 2}));
}

TEST(RuleListTest, DuplicateUpdateIsNoop) {
  RuleList rules;
  rules.Update(100, 4, 1);
  rules.Update(100, 4, 1);
  EXPECT_EQ(rules.Rules()[0].tenants.size(), 1u);
}

TEST(RuleListTest, MatchWriteHonorsEffectiveTime) {
  RuleList rules;
  rules.Update(100, 4, 1);
  rules.Update(200, 8, 1);
  // Record created before any rule: default s = 1 (its historical
  // placement).
  EXPECT_EQ(rules.MatchWrite(1, 50), 1u);
  // Between the rules: the t=100 rule applies.
  EXPECT_EQ(rules.MatchWrite(1, 150), 4u);
  // After both: largest s among applicable rules.
  EXPECT_EQ(rules.MatchWrite(1, 250), 8u);
  // Exactly at the boundary: rule with t <= tc applies.
  EXPECT_EQ(rules.MatchWrite(1, 100), 4u);
  // Other tenants unaffected.
  EXPECT_EQ(rules.MatchWrite(2, 250), 1u);
}

TEST(RuleListTest, MaxOffsetIgnoresEffectiveTime) {
  RuleList rules;
  rules.Update(100, 16, 7);
  // Reads must cover in-flight writes under a future-effective rule.
  EXPECT_EQ(rules.MaxOffset(7), 16u);
}

TEST(RuleListTest, EncodeDecodeRoundTrip) {
  RuleList rules;
  rules.Update(100, 4, 1);
  rules.Update(100, 4, 2);
  rules.Update(250, 32, 9);
  auto decoded = RuleList::Decode(rules.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, rules);
  EXPECT_FALSE(RuleList::Decode("garbage").ok());
}

TEST(HashRoutingTest, StableAndInRange) {
  HashRouting routing(512);
  const RouteKey key{42, 1001, 0};
  const ShardId shard = routing.RouteWrite(key);
  EXPECT_LT(shard, 512u);
  EXPECT_EQ(routing.RouteWrite(key), shard);  // deterministic
  // All records of a tenant land on one shard.
  for (int64_t record = 0; record < 100; ++record) {
    EXPECT_EQ(routing.RouteWrite({42, record, 0}), shard);
  }
  EXPECT_EQ(routing.RouteRead(42), std::vector<ShardId>{shard});
}

TEST(DoubleHashRoutingTest, SpreadsOverExactlySConsecutiveShards) {
  const uint32_t kN = 64, kS = 8;
  DoubleHashRouting routing(kN, kS);
  std::set<ShardId> used;
  for (int64_t record = 0; record < 2000; ++record) {
    used.insert(routing.RouteWrite({7, record, 0}));
  }
  EXPECT_EQ(used.size(), kS);
  // The used shards are consecutive mod N starting at h1 mod N.
  const ShardId base = ShardId(RouteHash1(7) % kN);
  for (uint32_t i = 0; i < kS; ++i) {
    EXPECT_TRUE(used.count((base + i) % kN)) << i;
  }
  // Reads name the same set.
  const auto read = routing.RouteRead(7);
  EXPECT_EQ(std::set<ShardId>(read.begin(), read.end()), used);
}

TEST(DoubleHashRoutingTest, OffsetClamping) {
  DoubleHashRouting routing(16, 999);
  EXPECT_EQ(routing.RouteRead(1).size(), 16u);
  DoubleHashRouting degenerate(16, 0);  // s=0 coerced to 1 (= hashing)
  EXPECT_EQ(degenerate.RouteRead(1).size(), 1u);
}

TEST(DynamicRoutingTest, DefaultsToSingleShard) {
  DynamicSecondaryHashing routing(64);
  std::set<ShardId> used;
  for (int64_t record = 0; record < 100; ++record) {
    used.insert(routing.RouteWrite({5, record, 1000}));
  }
  EXPECT_EQ(used.size(), 1u);
}

TEST(DynamicRoutingTest, RuleExtendsShardRun) {
  DynamicSecondaryHashing routing(64);
  routing.UpdateRules([](RuleList* r) { r->Update(1000, 8, 5); });
  // Writes created before the effective time keep the old placement.
  std::set<ShardId> before;
  for (int64_t record = 0; record < 200; ++record) {
    before.insert(routing.RouteWrite({5, record, 999}));
  }
  EXPECT_EQ(before.size(), 1u);
  // Writes at/after the effective time spread over 8 shards.
  std::set<ShardId> after;
  for (int64_t record = 0; record < 2000; ++record) {
    after.insert(routing.RouteWrite({5, record, 1000}));
  }
  EXPECT_EQ(after.size(), 8u);
  // The old shard is the first of the run (consecutive extension).
  EXPECT_TRUE(after.count(*before.begin()));
}

// The paper's central consistency invariant (Section 4.2): for ANY
// history of committed rules, every write's destination shard is
// inside the read fan-out of its tenant.
TEST(DynamicRoutingProperty, ReadsCoverAllWrites) {
  Rng rng(71);
  for (int trial = 0; trial < 50; ++trial) {
    DynamicSecondaryHashing routing(64);
    std::vector<std::pair<RouteKey, ShardId>> placements;
    Micros now = 0;
    for (int step = 0; step < 200; ++step) {
      now += Micros(rng.Uniform(100));
      if (rng.Bernoulli(0.05)) {
        // Commit a rule for a random tenant with a power-of-two s.
        const TenantId tenant = TenantId(1 + rng.Uniform(5));
        const uint32_t s = 1u << (1 + rng.Uniform(5));  // 2..32
        const Micros effective = now + Micros(rng.Uniform(50));
        routing.UpdateRules(
            [&](RuleList* r) { r->Update(effective, s, tenant); });
      }
      const RouteKey key{TenantId(1 + rng.Uniform(5)),
                         RecordId(step + trial * 1000), now};
      placements.push_back({key, routing.RouteWrite(key)});
    }
    // Every historical write is covered by the current read fan-out.
    for (const auto& [key, shard] : placements) {
      const std::vector<ShardId> read_set = routing.RouteRead(key.tenant);
      EXPECT_NE(std::find(read_set.begin(), read_set.end(), shard),
                read_set.end())
          << "tenant " << key.tenant << " record " << key.record;
      // And the write re-routes to the same shard today (deletes and
      // updates find the original copy).
      EXPECT_EQ(routing.RouteWrite(key), shard);
    }
  }
}

TEST(DynamicRoutingTest, ReadFanoutClampedToNumShards) {
  DynamicSecondaryHashing routing(8);
  routing.UpdateRules([](RuleList* r) { r->Update(0, 64, 3); });
  EXPECT_EQ(routing.RouteRead(3).size(), 8u);
}

TEST(RoutingTest, EquationOneMatchesEquationTwoWithStaticRules) {
  // With a rule fixing s for a tenant from time 0, dynamic routing
  // reproduces double hashing for that tenant.
  const uint32_t kN = 64, kS = 8;
  DoubleHashRouting dh(kN, kS);
  DynamicSecondaryHashing dyn(kN);
  dyn.UpdateRules([&](RuleList* r) { r->Update(0, kS, 11); });
  for (int64_t record = 0; record < 500; ++record) {
    const RouteKey key{11, record, 100};
    EXPECT_EQ(dh.RouteWrite(key), dyn.RouteWrite(key));
  }
}


TEST(RuleListCompactTest, DropsDominatedEntries) {
  RuleList rules;
  rules.Update(100, 8, 1);
  rules.Update(200, 4, 1);   // dominated: later AND smaller
  rules.Update(200, 16, 1);  // kept: larger
  rules.Update(100, 8, 2);   // other tenant untouched
  const size_t dropped = rules.Compact();
  EXPECT_EQ(dropped, 1u);
  EXPECT_EQ(rules.MaxOffset(1), 16u);
  EXPECT_EQ(rules.MatchWrite(1, 150), 8u);
  EXPECT_EQ(rules.MatchWrite(2, 150), 8u);
  EXPECT_FALSE(rules.Contains(200, 4, 1));
}

TEST(RuleListCompactTest, EmptyRuleRemovedEntirely) {
  RuleList rules;
  rules.Update(100, 8, 1);
  rules.Update(200, 8, 1);  // dominated (same offset, later time)
  EXPECT_EQ(rules.Compact(), 1u);
  EXPECT_EQ(rules.size(), 1u);
}

// Property: compaction never changes matching, for random histories.
TEST(RuleListCompactProperty, MatchingUnchanged) {
  Rng rng(909);
  for (int trial = 0; trial < 100; ++trial) {
    RuleList rules;
    for (int i = 0; i < 40; ++i) {
      rules.Update(Micros(rng.Uniform(1000)), 1u << rng.Uniform(7),
                   TenantId(1 + rng.Uniform(5)));
    }
    RuleList compacted = rules;
    const size_t before = compacted.TotalEntries();
    const size_t dropped = compacted.Compact();
    EXPECT_EQ(compacted.TotalEntries(), before - dropped);
    for (TenantId tenant = 1; tenant <= 5; ++tenant) {
      EXPECT_EQ(compacted.MaxOffset(tenant), rules.MaxOffset(tenant));
      for (Micros tc = 0; tc < 1100; tc += 37) {
        ASSERT_EQ(compacted.MatchWrite(tenant, tc),
                  rules.MatchWrite(tenant, tc))
            << "tenant " << tenant << " tc " << tc;
      }
    }
  }
}

}  // namespace
}  // namespace esdb
