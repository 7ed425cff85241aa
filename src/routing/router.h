#ifndef ESDB_ROUTING_ROUTER_H_
#define ESDB_ROUTING_ROUTER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/hash.h"
#include "common/mutex.h"
#include "routing/rule_list.h"

namespace esdb {

// Routing key of a write: the three columns every transaction log
// carries (Section 4.2).
struct RouteKey {
  TenantId tenant = 0;
  RecordId record = 0;
  Micros created_time = 0;
};

// The two independent hash functions of Equations 1-2 (h1 over the
// tenant id, h2 over the record id), derived from one Murmur3 with
// distinct seeds.
uint64_t RouteHash1(TenantId tenant);
uint64_t RouteHash2(RecordId record);

// Selector for the three routing schemes of Figure 2.
enum class RoutingKind { kHash, kDoubleHash, kDynamic };

// Routing policy interface shared by all three schemes of Figure 2.
class RoutingPolicy {
 public:
  virtual ~RoutingPolicy() = default;

  // Destination shard for a write.
  virtual ShardId RouteWrite(const RouteKey& key) const = 0;

  // Shards a read for `tenant` must fan out to. Order is the
  // consecutive shard run starting at h1(tenant) mod N.
  virtual std::vector<ShardId> RouteRead(TenantId tenant) const = 0;

  virtual uint32_t num_shards() const = 0;
  virtual std::string name() const = 0;
};

// Figure 2(a): plain hashing. p = h1(k1) mod N. No balancing, reads
// touch one shard.
class HashRouting : public RoutingPolicy {
 public:
  explicit HashRouting(uint32_t num_shards) : num_shards_(num_shards) {}

  ShardId RouteWrite(const RouteKey& key) const override;
  std::vector<ShardId> RouteRead(TenantId tenant) const override;
  uint32_t num_shards() const override { return num_shards_; }
  std::string name() const override { return "hashing"; }

 private:
  uint32_t num_shards_;
};

// Figure 2(b) / Equation 1: double hashing with a global static
// maximum offset s. p = (h1(k1) + h2(k2) mod s) mod N. Every tenant
// spreads over s shards; every read fans out to s shards.
class DoubleHashRouting : public RoutingPolicy {
 public:
  DoubleHashRouting(uint32_t num_shards, uint32_t offset);

  ShardId RouteWrite(const RouteKey& key) const override;
  std::vector<ShardId> RouteRead(TenantId tenant) const override;
  uint32_t num_shards() const override { return num_shards_; }
  std::string name() const override {
    return "double_hashing(s=" + std::to_string(offset_) + ")";
  }

 private:
  uint32_t num_shards_;
  uint32_t offset_;
};

// Figure 2(c) / Equation 2: dynamic secondary hashing. The static s
// is replaced by the workload-adaptive L(k1) looked up in the
// secondary hashing rule list. Writes match the rule by record
// creation time (read-your-writes consistency, Section 4.2); reads
// fan out over the tenant's maximum historical offset.
class DynamicSecondaryHashing : public RoutingPolicy {
 public:
  explicit DynamicSecondaryHashing(uint32_t num_shards)
      : num_shards_(num_shards) {}

  ShardId RouteWrite(const RouteKey& key) const override;
  std::vector<ShardId> RouteRead(TenantId tenant) const override;
  uint32_t num_shards() const override { return num_shards_; }
  std::string name() const override { return "dynamic_secondary_hashing"; }

  // The committed rule list, published copy-on-write: an update
  // builds the next list privately and swaps it in, so routing calls
  // concurrent with a balancing cycle match against a pinned, never-
  // mutated list.
  std::shared_ptr<const RuleList> PinRules() const EXCLUDES(rules_mu_);
  // A copy of the current list (introspection, persistence).
  RuleList rules() const { return *PinRules(); }

  // Applies `mutate` to a copy of the current list and publishes the
  // result. Updaters serialize among themselves; readers never wait
  // for the copy.
  void UpdateRules(const std::function<void(RuleList*)>& mutate)
      EXCLUDES(update_mu_);
  // Replaces the list wholesale (consensus commit, checkpoint restore).
  void PublishRules(RuleList next) EXCLUDES(update_mu_);

  // Current L(k1) for a write at `created_time`.
  uint32_t OffsetFor(TenantId tenant, Micros created_time) const {
    return PinRules()->MatchWrite(tenant, created_time);
  }

 private:
  uint32_t num_shards_;  // lint:unguarded(fixed at construction)
  // Same discipline as ShardStore's segment epochs: update_mu_
  // serializes read-copy-update cycles; rules_mu_ guards only the
  // pointer swap and copy, and nothing is acquired under it.
  Mutex update_mu_;
  mutable Mutex rules_mu_ ACQUIRED_AFTER(update_mu_);
  std::shared_ptr<const RuleList> rules_ GUARDED_BY(rules_mu_) =
      std::make_shared<const RuleList>();
};

// The policy for `kind`; `double_hash_offset` is kDoubleHash's static
// s. Callers that drive balancing recover the kDynamic policy with a
// dynamic_cast.
std::unique_ptr<RoutingPolicy> MakeRoutingPolicy(RoutingKind kind,
                                                 uint32_t num_shards,
                                                 uint32_t double_hash_offset);

}  // namespace esdb

#endif  // ESDB_ROUTING_ROUTER_H_
