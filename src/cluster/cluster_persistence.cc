#include "cluster/cluster_persistence.h"

#include <filesystem>
#include <fstream>

#include "common/varint.h"
#include "storage/persistence.h"

namespace esdb {

namespace {

namespace fs = std::filesystem;

constexpr char kClusterMagic[] = "ESDBCLUSTER1";

}  // namespace

Status SaveCluster(const Esdb& db, const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("cannot create directory: " + dir + ": " +
                            ec.message());
  }

  for (uint32_t i = 0; i < db.num_shards(); ++i) {
    const fs::path shard_dir = fs::path(dir) / ("shard-" + std::to_string(i));
    ESDB_RETURN_IF_ERROR(SaveShard(*db.shard(ShardId(i)), shard_dir.string()));
  }

  std::string manifest(kClusterMagic);
  PutVarint64(&manifest, db.num_shards());
  // The committed secondary hashing rule list: without it, a restored
  // dynamic cluster would mis-route every record placed under a rule.
  const DynamicSecondaryHashing* dynamic = db.dynamic_routing();
  PutLengthPrefixed(&manifest,
                    dynamic != nullptr ? dynamic->rules().Encode() : "");

  // Atomic commit, mirroring the per-shard MANIFEST protocol: tmp
  // file then rename, so a crash mid-save leaves the old cluster
  // manifest (and its still-intact shard checkpoints) in place.
  const fs::path tmp = fs::path(dir) / "CLUSTER.tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::Internal("cannot write cluster manifest");
    out.write(manifest.data(), std::streamsize(manifest.size()));
    out.flush();
    if (!out) return Status::Internal("cluster manifest write failed");
  }
  fs::rename(tmp, fs::path(dir) / "CLUSTER", ec);
  if (ec) {
    return Status::Internal("cluster manifest rename failed: " +
                            ec.message());
  }
  return Status::OK();
}

std::string ClusterRecoveryReport::ToString() const {
  std::string out = "recovered " + std::to_string(shards.size()) +
                    " shard(s): " + total.ToString();
  for (size_t i = 0; i < shards.size(); ++i) {
    const RecoveryReport& shard = shards[i];
    if (shard.ops_replayed == 0 && shard.ops_discarded == 0 &&
        !shard.torn_tail) {
      continue;  // only shards with something to say
    }
    out += "\n  shard " + std::to_string(i) + ": " + shard.ToString();
  }
  return out;
}

Result<std::unique_ptr<Esdb>> RecoverCluster(Esdb::Options options,
                                             const std::string& dir,
                                             ClusterRecoveryReport* report) {
  if (options.with_replicas) {
    return Status::InvalidArgument(
        "cluster restore targets a replica-less cluster; replicas "
        "rebuild afterwards");
  }
  std::ifstream in(fs::path(dir) / "CLUSTER", std::ios::binary);
  if (!in) return Status::NotFound("no cluster manifest in " + dir);
  std::string manifest((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());

  const size_t magic_len = sizeof(kClusterMagic) - 1;
  if (manifest.compare(0, magic_len, kClusterMagic) != 0) {
    return Status::Corruption("bad cluster manifest magic");
  }
  size_t pos = magic_len;
  uint64_t num_shards = 0;
  std::string_view rules_bytes;
  if (!GetVarint64(manifest, &pos, &num_shards) ||
      !GetLengthPrefixed(manifest, &pos, &rules_bytes)) {
    return Status::Corruption("truncated cluster manifest");
  }
  if (num_shards != options.num_shards) {
    return Status::InvalidArgument(
        "checkpoint has " + std::to_string(num_shards) +
        " shards; options specify " + std::to_string(options.num_shards));
  }

  const ShardStore::Options store_options = options.store;
  auto db = std::make_unique<Esdb>(std::move(options));
  if (report != nullptr) *report = ClusterRecoveryReport{};
  for (uint32_t i = 0; i < num_shards; ++i) {
    const fs::path shard_dir = fs::path(dir) / ("shard-" + std::to_string(i));
    RecoveryReport shard_report;
    ESDB_ASSIGN_OR_RETURN(
        std::unique_ptr<ShardStore> store,
        OpenShard(&db->spec(), store_options, shard_dir.string(),
                  &shard_report));
    ESDB_RETURN_IF_ERROR(db->InstallShard(ShardId(i), std::move(store)));
    if (report != nullptr) {
      report->shards.push_back(shard_report);
      report->total.Add(shard_report);
    }
  }
  if (!rules_bytes.empty() && db->dynamic_routing() != nullptr) {
    auto rules = RuleList::Decode(rules_bytes);
    if (!rules.ok()) return rules.status();
    db->dynamic_routing()->PublishRules(std::move(*rules));
  }
  return db;
}

Result<std::unique_ptr<Esdb>> OpenCluster(Esdb::Options options,
                                          const std::string& dir) {
  return RecoverCluster(std::move(options), dir, nullptr);
}

}  // namespace esdb
