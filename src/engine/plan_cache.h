#ifndef GAPPLY_ENGINE_PLAN_CACHE_H_
#define GAPPLY_ENGINE_PLAN_CACHE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/lru_cache.h"
#include "src/optimizer/optimizer.h"
#include "src/plan/logical_plan.h"

namespace gapply {

/// \brief Normalized-SQL → optimized-logical-plan cache shared by every
/// session of a Database (DESIGN.md §15).
///
/// The key is the tuple (normalized SQL, cache-relevant session options,
/// catalog version, stats version) serialized to one string:
///
///  - Normalized SQL is the print→parse fixpoint `sql::ToSql(Parse(sql))`,
///    so formatting/case/whitespace variants of one query share an entry.
///    PREPARE computes it once; EXECUTE reuses it.
///  - The options fingerprint covers exactly the session state that changes
///    the *optimized plan* (optimizer rule toggles, requested parallelism,
///    storage path, partition-mode forcing...). Options that only affect
///    execution (batch_size, profile) are excluded so they cannot cause
///    false misses — and, keyed this way, a cached plan can never leak
///    another session's SET values: two sessions with different
///    cache-relevant SETs use different keys by construction.
///  - Catalog/stats versions make schema changes and ANALYZE invalidate
///    stale plans passively (old keys age out of the LRU ring).
///
/// Entries are immutable and shared: a hit hands out a reference to the
/// entry, and lowering clones what it needs, so executions never share
/// mutable plan state across threads.
class PlanCache {
 public:
  /// A cached optimized plan plus the optimizer byproducts EXPLAIN ANALYZE
  /// reports (the rule trace describes how the cached plan was derived).
  struct Entry {
    LogicalOpPtr plan;
    std::vector<std::string> fired_rules;
    std::vector<Optimizer::RuleFiring> rule_trace;
  };
  using EntryPtr = std::shared_ptr<const Entry>;

  using Stats = LruCache<EntryPtr>::Stats;

  static constexpr size_t kDefaultCapacity = 256;

  explicit PlanCache(size_t capacity = kDefaultCapacity) : cache_(capacity) {}

  /// Serializes a cache key. `options_fingerprint` is produced by the
  /// session (see Session::CacheFingerprint).
  static std::string MakeKey(const std::string& normalized_sql,
                             const std::string& options_fingerprint,
                             uint64_t catalog_version,
                             uint64_t stats_version) {
    return normalized_sql + "\x1f" + options_fingerprint + "\x1f" +
           std::to_string(catalog_version) + "\x1f" +
           std::to_string(stats_version);
  }

  /// The shared entry on a hit, null on a miss (both counted).
  EntryPtr Lookup(const std::string& key) {
    return cache_.Get(key).value_or(nullptr);
  }

  void Insert(const std::string& key, EntryPtr entry) {
    cache_.Put(key, std::move(entry));
  }

  void Clear() { cache_.Clear(); }

  Stats stats() const { return cache_.stats(); }
  size_t size() const { return cache_.size(); }
  size_t capacity() const { return cache_.capacity(); }

 private:
  LruCache<EntryPtr> cache_;
};

}  // namespace gapply

#endif  // GAPPLY_ENGINE_PLAN_CACHE_H_
