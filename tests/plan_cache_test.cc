// Plan-cache contract tests (DESIGN.md §15): hit/miss/eviction accounting,
// SQL normalization, invalidation on ANALYZE / schema changes /
// cache-relevant SET changes, cross-session sharing, and the regression
// guarantee that a cached plan never leaks another session's SET values.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/engine/database.h"
#include "src/engine/plan_cache.h"
#include "tests/differential_util.h"
#include "tests/test_util.h"

namespace gapply {
namespace {

class PlanCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tpch::TpchConfig config;
    config.scale_factor = 0.001;
    ASSERT_TRUE(db_.LoadTpch(config).ok());
  }

  Database db_;
};

// --- unit: the LRU underneath --------------------------------------------

TEST(PlanCacheUnitTest, LruHitMissEvictionAccounting) {
  LruCache<int> cache(2);
  EXPECT_FALSE(cache.Get("a").has_value());  // miss
  cache.Put("a", 1);
  cache.Put("b", 2);
  EXPECT_EQ(cache.Get("a").value_or(-1), 1);  // hit, promotes a
  cache.Put("c", 3);                          // evicts b (LRU)
  EXPECT_FALSE(cache.Get("b").has_value());
  EXPECT_EQ(cache.Get("a").value_or(-1), 1);
  EXPECT_EQ(cache.Get("c").value_or(-1), 3);
  const LruCache<int>::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.insertions, 3u);
  EXPECT_EQ(stats.size, 2u);
  EXPECT_EQ(stats.capacity, 2u);
}

TEST(PlanCacheUnitTest, OverwritePromotesWithoutEviction) {
  LruCache<int> cache(2);
  cache.Put("a", 1);
  cache.Put("b", 2);
  cache.Put("a", 10);  // overwrite, a becomes MRU
  cache.Put("c", 3);   // evicts b, not a
  EXPECT_EQ(cache.Get("a").value_or(-1), 10);
  EXPECT_FALSE(cache.Get("b").has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(PlanCacheUnitTest, KeyComponentsAreDelimited) {
  // No component concatenation may collide across field boundaries.
  EXPECT_NE(PlanCache::MakeKey("a", "b1", 1, 2),
            PlanCache::MakeKey("ab", "1", 1, 2));
  EXPECT_NE(PlanCache::MakeKey("q", "f", 12, 3),
            PlanCache::MakeKey("q", "f", 1, 23));
}

// --- engine integration ---------------------------------------------------

TEST_F(PlanCacheTest, SecondExecutionHits) {
  const std::string sql = "select count(*) from part where p_retailprice > 900";
  QueryStats first;
  QueryStats second;
  ASSIGN_OR_FAIL(QueryResult r1, db_.Query(sql, QueryOptions{}, &first));
  ASSIGN_OR_FAIL(QueryResult r2, db_.Query(sql, QueryOptions{}, &second));
  EXPECT_TRUE(first.plan_cache_checked);
  EXPECT_FALSE(first.plan_cache_hit);
  EXPECT_TRUE(second.plan_cache_checked);
  EXPECT_TRUE(second.plan_cache_hit);
  tutil::ExpectSameSequence(r2.rows, r1.rows, "cached vs cold");
  // Cached execution reports the same rule derivation as the original.
  EXPECT_EQ(second.fired_rules, first.fired_rules);
  const PlanCache::Stats stats = db_.plan_cache()->stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
}

TEST_F(PlanCacheTest, NormalizationUnifiesFormattingVariants) {
  QueryStats first;
  QueryStats second;
  ASSERT_TRUE(db_.Query("select count(*) from part", QueryOptions{}, &first)
                  .ok());
  ASSERT_TRUE(db_.Query("SELECT   COUNT( * )\n  FROM Part ;", QueryOptions{},
                        &second)
                  .ok());
  EXPECT_FALSE(first.plan_cache_hit);
  EXPECT_TRUE(second.plan_cache_hit);
}

TEST_F(PlanCacheTest, AnalyzeInvalidates) {
  const std::string sql = "select count(*) from supplier";
  QueryStats stats;
  ASSERT_TRUE(db_.Query(sql, QueryOptions{}, &stats).ok());
  EXPECT_FALSE(stats.plan_cache_hit);
  ASSERT_TRUE(db_.Analyze().ok());  // bumps the stats version
  ASSERT_TRUE(db_.Query(sql, QueryOptions{}, &stats).ok());
  EXPECT_FALSE(stats.plan_cache_hit);  // stale key: miss, re-optimized
  ASSERT_TRUE(db_.Query(sql, QueryOptions{}, &stats).ok());
  EXPECT_TRUE(stats.plan_cache_hit);  // fresh key now cached
}

TEST_F(PlanCacheTest, SchemaChangeInvalidates) {
  const std::string sql = "select count(*) from supplier";
  QueryStats stats;
  ASSERT_TRUE(db_.Query(sql, QueryOptions{}, &stats).ok());
  ASSERT_TRUE(db_.Query(sql, QueryOptions{}, &stats).ok());
  EXPECT_TRUE(stats.plan_cache_hit);
  // Adding (then removing) an unrelated table bumps the catalog version.
  Status add = db_.WithExclusiveSchema([&] {
    return db_.catalog()->AddTable(tutil::MakeTable(
        "cache_probe", Schema({Column("x", TypeId::kInt64)}), {}));
  });
  ASSERT_TRUE(add.ok());
  ASSERT_TRUE(db_.Query(sql, QueryOptions{}, &stats).ok());
  EXPECT_FALSE(stats.plan_cache_hit);
  Status remove = db_.WithExclusiveSchema(
      [&] { return db_.catalog()->RemoveTable("cache_probe"); });
  ASSERT_TRUE(remove.ok());
  ASSERT_TRUE(db_.Query(sql, QueryOptions{}, &stats).ok());
  EXPECT_FALSE(stats.plan_cache_hit);  // version moved again
}

TEST_F(PlanCacheTest, CacheRelevantSetChangesInvalidate) {
  Session session(&db_);
  const std::string sql = "select count(*) from partsupp where ps_availqty > 10";
  auto run = [&] {
    QueryStats stats;
    Result<QueryResult> r = session.Query(sql, QueryOptions{}, &stats);
    EXPECT_TRUE(r.ok());
    return stats.plan_cache_hit;
  };
  EXPECT_FALSE(run());  // cold
  EXPECT_TRUE(run());   // warm
  ASSERT_TRUE(session.Query("set storage = row").ok());
  EXPECT_FALSE(run());
  ASSERT_TRUE(session.Query("set parallelism = 2").ok());
  EXPECT_FALSE(run());
  // Execution-only knobs do NOT change the key.
  ASSERT_TRUE(session.Query("set parallelism = 1").ok());
  ASSERT_TRUE(session.Query("set storage = columnar").ok());
  EXPECT_TRUE(run());
  ASSERT_TRUE(session.Query("set batch_size = 3").ok());
  EXPECT_TRUE(run());
  ASSERT_TRUE(session.Query("set profile = on").ok());
  EXPECT_TRUE(run());
}

TEST_F(PlanCacheTest, CachedPlanNeverLeaksAnotherSessionsSetValues) {
  // Session A caches the query under storage=row, parallelism=4. Session B
  // (pristine defaults) must not observe A's settings through the cache:
  // its key differs by construction, so it re-optimizes and runs columnar
  // at DOP 1.
  Session a(&db_);
  Session b(&db_);
  ASSERT_TRUE(a.Query("set storage = row").ok());
  ASSERT_TRUE(a.Query("set parallelism = 4").ok());
  const std::string sql =
      "select count(*) from partsupp where ps_availqty > 100";
  QueryStats a_stats;
  ASSIGN_OR_FAIL(QueryResult a_result, a.Query(sql, QueryOptions{}, &a_stats));
  EXPECT_FALSE(a_stats.plan_cache_hit);
  EXPECT_EQ(a_stats.counters.morsels_scanned, 0u);  // row path
  EXPECT_EQ(a_stats.admission_requested, 4u);

  QueryStats b_stats;
  ASSIGN_OR_FAIL(QueryResult b_result, b.Query(sql, QueryOptions{}, &b_stats));
  EXPECT_FALSE(b_stats.plan_cache_hit);  // A's entry is not B's key
  EXPECT_GT(b_stats.counters.morsels_scanned, 0u);  // B's own columnar path
  EXPECT_EQ(b_stats.admission_requested, 1u);       // B's own DOP
  tutil::ExpectSameSequence(b_result.rows, a_result.rows, "session B vs A");

  // And B's repeat run hits B's entry, still with B's settings.
  ASSIGN_OR_FAIL(QueryResult b2, b.Query(sql, QueryOptions{}, &b_stats));
  EXPECT_TRUE(b_stats.plan_cache_hit);
  EXPECT_GT(b_stats.counters.morsels_scanned, 0u);
  tutil::ExpectSameSequence(b2.rows, b_result.rows, "B cached repeat");
}

TEST_F(PlanCacheTest, SessionsWithEqualStateShareEntries) {
  Session a(&db_);
  Session b(&db_);
  const std::string sql = "select count(*) from part";
  QueryStats stats;
  ASSERT_TRUE(a.Query(sql, QueryOptions{}, &stats).ok());
  EXPECT_FALSE(stats.plan_cache_hit);
  ASSERT_TRUE(b.Query(sql, QueryOptions{}, &stats).ok());
  EXPECT_TRUE(stats.plan_cache_hit);  // same defaults → same key → shared
}

TEST_F(PlanCacheTest, PreparedExecutionsHitTheCache) {
  Session a(&db_);
  Session b(&db_);
  ASSERT_TRUE(
      a.Query("prepare q as select count(*) from partsupp").ok());
  ASSERT_TRUE(
      b.Query("prepare q as select count( * ) from PARTSUPP").ok());
  QueryStats stats;
  ASSERT_TRUE(a.Query("execute q", QueryOptions{}, &stats).ok());
  EXPECT_FALSE(stats.plan_cache_hit);
  ASSERT_TRUE(a.Query("execute q", QueryOptions{}, &stats).ok());
  EXPECT_TRUE(stats.plan_cache_hit);
  // B prepared a formatting variant of the same text: normalization makes
  // its EXECUTE hit A's entry.
  ASSERT_TRUE(b.Query("execute q", QueryOptions{}, &stats).ok());
  EXPECT_TRUE(stats.plan_cache_hit);
}

TEST_F(PlanCacheTest, PlanCacheOffBypasses) {
  Session session(&db_);
  ASSERT_TRUE(session.Query("set plan_cache = off").ok());
  const std::string sql = "select count(*) from part";
  QueryStats stats;
  ASSERT_TRUE(session.Query(sql, QueryOptions{}, &stats).ok());
  ASSERT_TRUE(session.Query(sql, QueryOptions{}, &stats).ok());
  EXPECT_FALSE(stats.plan_cache_checked);
  EXPECT_FALSE(stats.plan_cache_hit);
  EXPECT_EQ(db_.plan_cache()->size(), 0u);
  // Back on: normal behavior.
  ASSERT_TRUE(session.Query("set plan_cache = on").ok());
  ASSERT_TRUE(session.Query(sql, QueryOptions{}, &stats).ok());
  EXPECT_TRUE(stats.plan_cache_checked);
  EXPECT_FALSE(stats.plan_cache_hit);
  ASSERT_TRUE(session.Query(sql, QueryOptions{}, &stats).ok());
  EXPECT_TRUE(stats.plan_cache_hit);
}

TEST_F(PlanCacheTest, UnoptimizedQueriesBypass) {
  QueryOptions off;
  off.optimize = false;
  QueryStats stats;
  ASSERT_TRUE(db_.Query("select count(*) from part", off, &stats).ok());
  EXPECT_FALSE(stats.plan_cache_checked);
  EXPECT_EQ(db_.plan_cache()->size(), 0u);
}

TEST_F(PlanCacheTest, DifferentOptimizerTogglesDifferentEntries) {
  const std::string sql =
      "select gapply(select count(*) from g) "
      "from partsupp group by ps_suppkey : g";
  QueryStats stats;
  ASSIGN_OR_FAIL(QueryResult full, db_.Query(sql, QueryOptions{}, &stats));
  ASSERT_TRUE(db_.Query(sql, QueryOptions{}, &stats).ok());
  EXPECT_TRUE(stats.plan_cache_hit);
  QueryOptions no_rules;
  no_rules.optimizer = Optimizer::Options::AllDisabled();
  QueryStats disabled_stats;
  ASSIGN_OR_FAIL(QueryResult bare, db_.Query(sql, no_rules, &disabled_stats));
  EXPECT_TRUE(disabled_stats.plan_cache_checked);
  EXPECT_FALSE(disabled_stats.plan_cache_hit);  // different toggle fingerprint
  EXPECT_TRUE(disabled_stats.fired_rules.empty());
  tutil::ExpectSameMultiset(bare.rows, full.rows, "rules off vs on");
}

TEST_F(PlanCacheTest, HitCountersSurfaceInQueryStats) {
  const std::string sql = "select count(*) from supplier";
  QueryStats stats;
  ASSERT_TRUE(db_.Query(sql, QueryOptions{}, &stats).ok());
  EXPECT_EQ(stats.plan_cache_hits, 0u);
  EXPECT_EQ(stats.plan_cache_misses, 1u);
  ASSERT_TRUE(db_.Query(sql, QueryOptions{}, &stats).ok());
  EXPECT_EQ(stats.plan_cache_hits, 1u);
  EXPECT_EQ(stats.plan_cache_misses, 1u);
}

}  // namespace
}  // namespace gapply
