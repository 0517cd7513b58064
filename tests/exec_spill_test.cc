// Memory governance + spill-to-disk execution (DESIGN.md §16).
//
// The contract under test: with a per-query budget, the blocking operators
// (Sort, HashJoin build, HashGroupBy, GApply member buffering) switch to
// their out-of-core paths instead of buffering past it, and the result is
// bit-for-bit identical to the unlimited run — same rows, same order.
// Spill volume surfaces in QueryStats/EXPLAIN ANALYZE; the MemoryTracker
// hierarchy lets a Database-level cap gate concurrent queries.
//
// Suite names match the tsan preset filter (Memory|Spill|LruCache) so the
// shared-tracker and cache paths run under race detection in CI.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "src/common/lru_cache.h"
#include "src/common/memory_tracker.h"
#include "src/engine/database.h"
#include "src/exec/physical_op.h"
#include "tests/test_util.h"

namespace gapply {
namespace {

// --- MemoryTracker / MemoryReservation units ------------------------------

TEST(MemoryTrackerTest, BudgetRefusesPastLimitAndTracksPeak) {
  MemoryTracker t(100);
  EXPECT_TRUE(t.TryGrow(60));
  EXPECT_TRUE(t.TryGrow(40));
  EXPECT_FALSE(t.TryGrow(1));  // refusal reserves nothing
  EXPECT_EQ(t.used(), 100u);
  t.Shrink(50);
  EXPECT_EQ(t.used(), 50u);
  EXPECT_TRUE(t.TryGrow(30));
  EXPECT_EQ(t.peak(), 100u);  // peak survives the shrink
}

TEST(MemoryTrackerTest, UnlimitedTrackerStillAccounts) {
  MemoryTracker t;  // budget 0 = unlimited
  EXPECT_TRUE(t.TryGrow(size_t{1} << 30));
  EXPECT_TRUE(t.TryGrow(size_t{1} << 30));
  EXPECT_EQ(t.peak(), size_t{2} << 30);
}

TEST(MemoryTrackerTest, ParentCapGatesUnlimitedChildren) {
  // Two per-query trackers with no budget of their own, chained to one
  // aggregate cap — the Database::memory_root shape.
  MemoryTracker root(100);
  MemoryTracker a(0, &root);
  MemoryTracker b(0, &root);
  EXPECT_TRUE(a.TryGrow(70));
  EXPECT_FALSE(b.TryGrow(40));  // root would exceed 100
  EXPECT_EQ(b.used(), 0u);      // failed grow left no residue in the child
  EXPECT_EQ(root.used(), 70u);  // ...nor in the parent
  EXPECT_TRUE(b.TryGrow(30));
  a.Shrink(70);
  EXPECT_EQ(root.used(), 30u);
}

TEST(MemoryTrackerTest, ForceGrowExceedsBudgetButKeepsAccounting) {
  MemoryTracker t(10);
  MemoryReservation r(&t);
  EXPECT_FALSE(r.TryGrow(64));
  r.ForceGrow(64);  // the no-fallback path (e.g. depth-capped partition)
  EXPECT_EQ(t.used(), 64u);
  EXPECT_EQ(r.peak(), 64u);
}

TEST(MemoryTrackerTest, ReservationReleasesOnDestruction) {
  MemoryTracker t(1000);
  {
    MemoryReservation r(&t);
    EXPECT_TRUE(r.TryGrow(600));
    EXPECT_EQ(t.used(), 600u);
  }
  EXPECT_EQ(t.used(), 0u);
  MemoryReservation untracked;  // null tracker: every TryGrow succeeds
  EXPECT_TRUE(untracked.TryGrow(size_t{1} << 40));
  EXPECT_EQ(untracked.peak(), size_t{1} << 40);
}

// --- SET memory_budget parsing --------------------------------------------

TEST(SpillSetKnobTest, AcceptsPositiveBytesAndUnlimited) {
  Database db;
  Session session(&db);
  ASSERT_TRUE(session.Query("set memory_budget = 65536").ok());
  EXPECT_EQ(session.default_memory_budget(), 65536u);
  ASSERT_TRUE(session.Query("set memory_budget = unlimited").ok());
  EXPECT_EQ(session.default_memory_budget(), 0u);
}

TEST(SpillSetKnobTest, RejectsNonPositiveAndGarbage) {
  Database db;
  Session session(&db);
  ASSERT_TRUE(session.Query("set memory_budget = 4096").ok());
  // Zero is NOT an alias for unlimited: a typo'd budget must not silently
  // turn governance off. The explicit word is the off switch.
  for (const char* bad :
       {"set memory_budget = 0", "set memory_budget = -1",
        "set memory_budget = lots", "set memory_budget = on"}) {
    Result<QueryResult> r = Session(&db).Query(bad);
    EXPECT_FALSE(r.ok()) << bad << " was accepted";
  }
  Result<QueryResult> r = session.Query("set memory_budget = -5");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(session.default_memory_budget(), 4096u);  // state unchanged
}

// --- end-to-end spilled execution -----------------------------------------

// Each workload overflows a 64 KB budget at sf=0.01 through a different
// blocking operator: external sort + spilled join build, spilled hash
// aggregation, GApply member spill.
struct SpillWorkload {
  const char* label;
  const char* sql;
};

const SpillWorkload kWorkloads[] = {
    {"join_sort",
     "select p_name, ps_supplycost from partsupp, part "
     "where ps_partkey = p_partkey order by ps_supplycost"},
    {"group_by",
     "select ps_suppkey, count(*), sum(ps_supplycost) from partsupp "
     "group by ps_suppkey order by ps_suppkey"},
    {"gapply",
     "select gapply(select p_name, p_retailprice, null from g "
     "              union all "
     "              select null, null, avg(p_retailprice) from g) "
     "from partsupp, part where ps_partkey = p_partkey "
     "group by ps_suppkey : g"},
};

constexpr size_t kSmallBudget = 64 << 10;

class SpillExecutionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tpch::TpchConfig config;
    config.scale_factor = 0.01;
    ASSERT_TRUE(db_.LoadTpch(config).ok());
  }

  Database db_;
};

TEST_F(SpillExecutionTest, BudgetedRunsSpillAndMatchUnlimitedBitForBit) {
  for (const SpillWorkload& w : kWorkloads) {
    ASSIGN_OR_FAIL(QueryResult unlimited, db_.Query(w.sql));

    QueryOptions budgeted;
    budgeted.memory_budget = kSmallBudget;
    QueryStats stats;
    ASSIGN_OR_FAIL(QueryResult spilled, db_.Query(w.sql, budgeted, &stats));

    EXPECT_GT(stats.counters.spill_bytes, 0u)
        << w.label << " did not spill under a " << kSmallBudget
        << "-byte budget";
    EXPECT_GT(stats.counters.spill_partitions, 0u) << w.label;
    EXPECT_EQ(stats.memory_budget, kSmallBudget) << w.label;
    EXPECT_GT(stats.peak_memory, 0u) << w.label;
    EXPECT_TRUE(SameRowSequence(unlimited.rows, spilled.rows))
        << w.label << ": spilled run diverged (" << spilled.rows.size()
        << " vs " << unlimited.rows.size() << " rows)";
  }
}

TEST_F(SpillExecutionTest, ParallelBudgetedRunMatchesSerialUnlimited) {
  // Workers share the query tracker, so the spill *point* races; the
  // output must not (the DOP-N ≡ DOP-1 bar composes with the spill bar).
  for (const SpillWorkload& w : kWorkloads) {
    ASSIGN_OR_FAIL(QueryResult serial, db_.Query(w.sql));

    QueryOptions par;
    par.memory_budget = kSmallBudget;
    par.lowering.gapply_parallelism = 4;
    par.lowering.exchange_parallelism = 4;
    par.lowering.exchange_min_rows = 16;
    par.lowering.exchange_morsel_rows = 64;
    ASSIGN_OR_FAIL(QueryResult spilled, db_.Query(w.sql, par));
    EXPECT_TRUE(SameRowSequence(serial.rows, spilled.rows))
        << w.label << ": parallel budgeted run diverged";
  }
}

TEST_F(SpillExecutionTest, SessionKnobGovernsAndUnlimitedRestores) {
  Session session(&db_);
  ASSERT_TRUE(session.Query("set memory_budget = 65536").ok());
  QueryStats stats;
  ASSIGN_OR_FAIL(QueryResult r1,
                 session.Query(kWorkloads[0].sql, {}, &stats));
  EXPECT_GT(stats.counters.spill_bytes, 0u);

  ASSERT_TRUE(session.Query("set memory_budget = unlimited").ok());
  QueryStats stats2;
  ASSIGN_OR_FAIL(QueryResult r2,
                 session.Query(kWorkloads[0].sql, {}, &stats2));
  EXPECT_EQ(stats2.counters.spill_bytes, 0u);
  EXPECT_EQ(stats2.memory_budget, 0u);
  EXPECT_TRUE(SameRowSequence(r1.rows, r2.rows));
}

TEST_F(SpillExecutionTest, DatabaseCapForcesSpillDespiteLargeQueryBudget) {
  // The aggregate cap chains under every query tracker; a query whose own
  // budget would never refuse still spills when the Database cap is tight.
  db_.set_memory_cap(kSmallBudget);
  QueryOptions opts;
  opts.memory_budget = size_t{1} << 40;
  QueryStats stats;
  ASSIGN_OR_FAIL(QueryResult spilled,
                 db_.Query(kWorkloads[0].sql, opts, &stats));
  EXPECT_GT(stats.counters.spill_bytes, 0u);
  db_.set_memory_cap(0);
  ASSIGN_OR_FAIL(QueryResult unlimited, db_.Query(kWorkloads[0].sql));
  EXPECT_TRUE(SameRowSequence(unlimited.rows, spilled.rows));
}

TEST_F(SpillExecutionTest, ExplainAnalyzeReportsSpillVolume) {
  Session session(&db_);
  ASSERT_TRUE(session.Query("set memory_budget = 65536").ok());
  ASSIGN_OR_FAIL(std::string report,
                 session.ExplainAnalyze(kWorkloads[0].sql));
  EXPECT_NE(report.find("memory: budget 65536"), std::string::npos) << report;
  EXPECT_EQ(report.find("spilled 0 bytes"), std::string::npos) << report;
  EXPECT_NE(report.find("spilled "), std::string::npos) << report;
  // Per-operator spill counters render with the stable (deterministic)
  // fields on the operators that spilled.
  EXPECT_NE(report.find("spill_bytes="), std::string::npos) << report;

  ASSIGN_OR_FAIL(JsonValue json,
                 session.ExplainAnalyzeJson(kWorkloads[0].sql));
  const JsonValue* counters = json.Find("counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* spill_bytes = counters->Find("spill_bytes");
  ASSERT_NE(spill_bytes, nullptr);
  EXPECT_GT(spill_bytes->int_value(), 0);
  const JsonValue* budget = counters->Find("memory_budget");
  ASSERT_NE(budget, nullptr);
  EXPECT_EQ(budget->int_value(), 65536);
  const JsonValue* peak = counters->Find("peak_memory");
  ASSERT_NE(peak, nullptr);
  EXPECT_GT(peak->int_value(), 0);
}

// --- LruCache under concurrent eviction -----------------------------------

TEST(LruCacheConcurrencyTest, EvictionUnderConcurrentAccessStaysConsistent) {
  // 8 threads hammer a capacity-8 cache with 64 distinct keys: every Put
  // past the first 8 evicts, and Gets race the evictions. Run under the
  // tsan preset this is a race detector for the cache's internal lock;
  // everywhere it checks the accounting invariants.
  LruCache<int> cache(8);
  constexpr int kThreads = 8;
  static constexpr int kOpsPerThread = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        std::string key = "k";
        key += std::to_string((t * 7 + i) % 64);
        if (i % 3 == 0) {
          cache.Put(key, i);
        } else {
          std::optional<int> v = cache.Get(key);
          if (v.has_value()) {
            EXPECT_GE(*v, 0);
            EXPECT_LT(*v, kOpsPerThread);
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const LruCache<int>::Stats stats = cache.stats();
  EXPECT_LE(stats.size, 8u);
  EXPECT_EQ(stats.capacity, 8u);
  EXPECT_EQ(stats.insertions - stats.evictions, stats.size);
  const uint64_t gets = static_cast<uint64_t>(kThreads) *
                        (kOpsPerThread - (kOpsPerThread + 2) / 3);
  EXPECT_EQ(stats.hits + stats.misses, gets);
}

}  // namespace
}  // namespace gapply
