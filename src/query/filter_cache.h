#ifndef ESDB_QUERY_FILTER_CACHE_H_
#define ESDB_QUERY_FILTER_CACHE_H_

#include <atomic>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "query/plan.h"
#include "storage/posting.h"

namespace esdb {

// Elasticsearch-style filter cache: caches a plan's candidate posting
// list per (domain, segment id, plan fingerprint) — the domain is the
// owning store's uid (ShardStore::uid), because segment ids are only
// unique per store.
// Safe because segments are immutable — deletes are tombstones applied AFTER candidate
// generation, so a cached list never returns a deleted row. Plans
// containing a FullScan node are not cacheable (LiveDocs shrinks as
// tombstones land); IsCacheable() gates that.
//
// Concurrency-safe: the table is split into `num_stripes` lock-striped
// segments (stripe chosen by KeyHash), each with its own mutex and LRU
// list, so parallel shard subqueries contend only when their keys
// collide on a stripe. Get copies the posting list out under the
// stripe lock — no pointer into the cache ever escapes, so a
// concurrent Put/eviction can never invalidate a caller's view.
// Hit/miss/eviction counters are atomic. Eviction is LRU per stripe
// (capacity max_entries/num_stripes); with num_stripes = 1 this is
// exactly the old global LRU.
class FilterCache {
 public:
  struct Options {
    size_t max_entries = 4096;
    // Lock stripes; 1 gives a single global LRU (deterministic
    // eviction order, used by tests).
    size_t num_stripes = 16;
  };

  explicit FilterCache(Options options);
  FilterCache() : FilterCache(Options{}) {}

  // Copies the cached candidates for (domain, segment, fingerprint)
  // into *out and returns true, or returns false on a miss. The copy
  // makes the result immune to concurrent Put/eviction.
  bool Get(uint64_t domain, uint64_t segment_id,
           const std::string& fingerprint, PostingList* out);

  void Put(uint64_t domain, uint64_t segment_id,
           const std::string& fingerprint, PostingList candidates);

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  size_t size() const;
  void Clear();

 private:
  struct Key {
    uint64_t domain;  // owning store's uid (segment ids are store-local)
    uint64_t segment_id;
    std::string fingerprint;
    bool operator==(const Key& other) const {
      return domain == other.domain && segment_id == other.segment_id &&
             fingerprint == other.fingerprint;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const;
  };
  struct Entry {
    Key key;
    PostingList candidates;
  };
  struct Stripe {
    // Each stripe is its own capability: parallel subqueries contend
    // only when their keys collide on a stripe.
    mutable Mutex mu;
    std::list<Entry> lru GUARDED_BY(mu);  // front = most recent
    std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> entries
        GUARDED_BY(mu);
  };

  Stripe& StripeFor(const Key& key) {
    return stripes_[KeyHash{}(key) % stripes_.size()];
  }

  Options options_;
  size_t per_stripe_capacity_;
  // vector never resizes after construction (Stripe holds a mutex and
  // is immovable).
  std::vector<Stripe> stripes_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
};

// Deterministic byte-exact fingerprint of a plan (unlike ToString,
// which elides term bytes). Two plans share a fingerprint iff they
// produce the same candidates on any segment.
std::string PlanFingerprint(const PlanNode& plan);

// False when any node's result can change on an immutable segment
// (currently: FullScan, whose LiveDocs shrinks with tombstones).
bool IsCacheable(const PlanNode& plan);

}  // namespace esdb

#endif  // ESDB_QUERY_FILTER_CACHE_H_
