#include "routing/router.h"

namespace esdb {

namespace {
// Independent seeds for the two hash functions of double hashing.
constexpr uint64_t kSeedH1 = 0x9d2c5680u;
constexpr uint64_t kSeedH2 = 0xefc60000u;

std::vector<ShardId> ConsecutiveShards(TenantId tenant, uint32_t s,
                                       uint32_t num_shards) {
  const uint64_t base = RouteHash1(tenant) % num_shards;
  std::vector<ShardId> out;
  out.reserve(s);
  for (uint32_t i = 0; i < s; ++i) {
    out.push_back(ShardId((base + i) % num_shards));
  }
  return out;
}
}  // namespace

uint64_t RouteHash1(TenantId tenant) {
  return HashUint64(uint64_t(tenant), kSeedH1);
}

uint64_t RouteHash2(RecordId record) {
  return HashUint64(uint64_t(record), kSeedH2);
}

ShardId HashRouting::RouteWrite(const RouteKey& key) const {
  return ShardId(RouteHash1(key.tenant) % num_shards_);
}

std::vector<ShardId> HashRouting::RouteRead(TenantId tenant) const {
  return ConsecutiveShards(tenant, 1, num_shards_);
}

DoubleHashRouting::DoubleHashRouting(uint32_t num_shards, uint32_t offset)
    : num_shards_(num_shards), offset_(offset == 0 ? 1 : offset) {
  if (offset_ > num_shards_) offset_ = num_shards_;
}

ShardId DoubleHashRouting::RouteWrite(const RouteKey& key) const {
  // Equation 1: p = (h1(k1) + h2(k2) mod s) mod N.
  return ShardId(
      (RouteHash1(key.tenant) + RouteHash2(key.record) % offset_) %
      num_shards_);
}

std::vector<ShardId> DoubleHashRouting::RouteRead(TenantId tenant) const {
  return ConsecutiveShards(tenant, offset_, num_shards_);
}

std::shared_ptr<const RuleList> DynamicSecondaryHashing::PinRules() const {
  MutexLock lock(&rules_mu_);
  return rules_;
}

void DynamicSecondaryHashing::UpdateRules(
    const std::function<void(RuleList*)>& mutate) {
  MutexLock update(&update_mu_);
  auto next = std::make_shared<RuleList>(*PinRules());
  mutate(next.get());
  MutexLock lock(&rules_mu_);
  rules_ = std::move(next);
}

void DynamicSecondaryHashing::PublishRules(RuleList next) {
  auto published = std::make_shared<const RuleList>(std::move(next));
  MutexLock update(&update_mu_);
  MutexLock lock(&rules_mu_);
  rules_ = std::move(published);
}

ShardId DynamicSecondaryHashing::RouteWrite(const RouteKey& key) const {
  // Equation 2: p = (h1(k1) + h2(k2) mod L(k1)) mod N, with L(k1)
  // resolved against the rule matching the record's creation time.
  const uint32_t s = OffsetFor(key.tenant, key.created_time);
  return ShardId((RouteHash1(key.tenant) + RouteHash2(key.record) % s) %
                 num_shards_);
}

std::vector<ShardId> DynamicSecondaryHashing::RouteRead(
    TenantId tenant) const {
  uint32_t s = PinRules()->MaxOffset(tenant);
  if (s > num_shards_) s = num_shards_;
  return ConsecutiveShards(tenant, s, num_shards_);
}

std::unique_ptr<RoutingPolicy> MakeRoutingPolicy(RoutingKind kind,
                                                 uint32_t num_shards,
                                                 uint32_t double_hash_offset) {
  switch (kind) {
    case RoutingKind::kHash:
      return std::make_unique<HashRouting>(num_shards);
    case RoutingKind::kDoubleHash:
      return std::make_unique<DoubleHashRouting>(num_shards,
                                                 double_hash_offset);
    case RoutingKind::kDynamic:
      break;
  }
  return std::make_unique<DynamicSecondaryHashing>(num_shards);
}

}  // namespace esdb
