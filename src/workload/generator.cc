#include "workload/generator.h"

#include <algorithm>

#include "query/datetime.h"

namespace esdb {

namespace {

// Vocabulary for full-text columns (auction titles, nicknames).
constexpr const char* kTitleWords[] = {
    "classic", "novel", "cotton", "shirt", "phone", "case",    "organic",
    "tea",     "wireless", "mouse", "steel", "bottle", "vintage", "lamp",
    "leather", "wallet", "ceramic", "mug",  "bamboo", "towel",  "gaming",
    "keyboard", "silk",  "scarf",  "sport", "shoes",  "kids",   "toy"};
constexpr size_t kNumTitleWords = sizeof(kTitleWords) / sizeof(char*);

constexpr const char* kNickWords[] = {"happy", "lucky", "sunny", "crazy",
                                      "super", "mega",  "tiny",  "swift"};
constexpr size_t kNumNickWords = sizeof(kNickWords) / sizeof(char*);

}  // namespace

WorkloadGenerator::WorkloadGenerator(Options options)
    : options_(options),
      rng_(options.seed),
      tenant_zipf_(options.num_tenants, options.theta),
      attr_zipf_(options.num_sub_attributes, options.sub_attribute_theta) {}

TenantId WorkloadGenerator::TenantForRank(uint64_t rank) const {
  // Tenant ids are 1-based; the hotspot shift rotates which ids get
  // the hot ranks, leaving the rank distribution itself unchanged.
  return TenantId((rank + hotspot_shift_) % options_.num_tenants) + 1;
}

void WorkloadGenerator::ShiftHotspots(uint64_t shift) {
  hotspot_shift_ = (hotspot_shift_ + shift) % options_.num_tenants;
}

void WorkloadGenerator::SetTenantTheta(double theta) {
  options_.theta = theta;
  tenant_zipf_ = ZipfGenerator(options_.num_tenants, theta);
}

RouteKey WorkloadGenerator::NextKey(Micros now) {
  RouteKey key;
  key.tenant = TenantForRank(tenant_zipf_.Sample(rng_));
  key.record = RecordId(next_record_id_++);
  key.created_time = now;
  return key;
}

std::string WorkloadGenerator::SubAttributeKey(uint64_t rank) {
  return "attr" + std::to_string(rank);
}

Document WorkloadGenerator::MakeDocument(const RouteKey& key) {
  Document doc;
  doc.Set(kFieldTenantId, Value(key.tenant));
  doc.Set(kFieldRecordId, Value(key.record));
  doc.Set(kFieldCreatedTime, Value(int64_t(key.created_time)));
  if (!options_.full_documents) return doc;

  doc.Set("status", Value(int64_t(rng_.Uniform(5))));
  doc.Set("flag", Value(int64_t(rng_.Uniform(2))));
  doc.Set("group", Value(int64_t(rng_.Uniform(1000))));
  doc.Set("amount", Value(double(rng_.Uniform(100000)) / 100.0));
  doc.Set("quantity", Value(int64_t(1 + rng_.Uniform(10))));
  doc.Set("region", Value(int64_t(rng_.Uniform(32))));
  doc.Set("channel", Value(int64_t(rng_.Uniform(8))));

  std::string title;
  const size_t title_len = 3 + rng_.Uniform(4);
  for (size_t i = 0; i < title_len; ++i) {
    if (i > 0) title.push_back(' ');
    title += kTitleWords[rng_.Uniform(kNumTitleWords)];
  }
  doc.Set("title", Value(std::move(title)));
  doc.Set("buyer_nick", Value(std::string(kNickWords[rng_.Uniform(kNumNickWords)]) +
                              std::to_string(rng_.Uniform(10000))));
  doc.Set("seller_nick", Value("seller" + std::to_string(key.tenant)));

  // Attributes column: sample sub-attribute keys from their skewed
  // popularity distribution (duplicates collapse in the map, mirroring
  // real rows that simply carry fewer distinct sub-attributes).
  std::map<std::string, std::string> attrs;
  for (uint64_t i = 0; i < options_.sub_attributes_per_row; ++i) {
    const uint64_t rank = attr_zipf_.Sample(rng_);
    std::string value = std::to_string(rng_.Uniform(16));
    value.insert(0, 1, 'v');
    attrs[SubAttributeKey(rank)] = std::move(value);
  }
  doc.Set(kFieldAttributes, Value(EncodeAttributes(attrs)));
  return doc;
}

Document WorkloadGenerator::NextDocument(Micros now) {
  return MakeDocument(NextKey(now));
}

QueryGenerator::QueryGenerator(Options options)
    : options_(options),
      rng_(options.seed),
      attr_zipf_(options.num_sub_attributes, options.sub_attribute_theta) {}

std::string QueryGenerator::NextSql(TenantId tenant, Micros now) {
  // Base template (Section 6.3): tenant + creation-time range.
  std::string sql = "SELECT * FROM transaction_logs WHERE tenant_id = " +
                    std::to_string(tenant) + " AND created_time BETWEEN '" +
                    FormatDateTime(now - options_.time_window) + "' AND '" +
                    FormatDateTime(now) + "'";

  // 1..8 extra filters so queries involve 3-10 columns.
  const uint64_t extra = 1 + rng_.Uniform(8);
  // Candidate filter pool; sampled without replacement.
  std::vector<int> pool = {0, 1, 2, 3, 4, 5, 6, 7};
  for (uint64_t i = 0; i < extra && !pool.empty(); ++i) {
    const size_t pick = rng_.Uniform(pool.size());
    const int which = pool[pick];
    pool.erase(pool.begin() + long(pick));
    switch (which) {
      case 0:
        sql += " AND status = " + std::to_string(rng_.Uniform(5));
        break;
      case 1:
        sql += " AND flag = " + std::to_string(rng_.Uniform(2));
        break;
      case 2:
        sql += " AND group = " + std::to_string(rng_.Uniform(1000));
        break;
      case 3:
        sql += " AND amount >= " + std::to_string(rng_.Uniform(500));
        break;
      case 4:
        sql += " AND quantity <= " + std::to_string(1 + rng_.Uniform(10));
        break;
      case 5:
        sql += " AND region IN (" + std::to_string(rng_.Uniform(32)) + ", " +
               std::to_string(rng_.Uniform(32)) + ")";
        break;
      case 6:
        sql += " AND channel = " + std::to_string(rng_.Uniform(8));
        break;
      case 7:
        // OR branch exercising predicate merge and union plans.
        sql += " AND (status = 1 OR group = " +
               std::to_string(rng_.Uniform(1000)) + ")";
        break;
    }
  }

  if (options_.with_sub_attribute_filter) {
    const uint64_t rank = attr_zipf_.Sample(rng_);
    sql += " AND attributes." + WorkloadGenerator::SubAttributeKey(rank) +
           " = 'v" + std::to_string(rng_.Uniform(16)) + "'";
  }

  sql += " ORDER BY created_time DESC LIMIT " + std::to_string(options_.limit);
  return sql;
}

}  // namespace esdb
