// Concurrency test suite for the session layer (DESIGN.md §15): N-thread ×
// M-statement stress with bit-for-bit serial-replay identity, admission
// control bounds, PREPARE/EXECUTE/DEALLOCATE semantics, and per-session
// SET isolation. Runs under the tsan preset (suite name matches the
// CMakePresets tsan filter).

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/engine/database.h"
#include "tests/differential_util.h"
#include "tests/test_util.h"

namespace gapply {
namespace {

class EngineSessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tpch::TpchConfig config;
    config.scale_factor = 0.001;
    ASSERT_TRUE(db_.LoadTpch(config).ok());
  }

  Database db_;
};

// --- per-session SET isolation -------------------------------------------

TEST_F(EngineSessionTest, SetStateIsPerSession) {
  Session a(&db_);
  Session b(&db_);
  ASSERT_TRUE(a.Query("set parallelism = 4").ok());
  ASSERT_TRUE(a.Query("set batch_size = 7").ok());
  ASSERT_TRUE(a.Query("set storage = row").ok());
  EXPECT_EQ(a.default_gapply_parallelism(), 4u);
  EXPECT_EQ(a.default_batch_size(), 7u);
  EXPECT_FALSE(a.default_columnar_storage());
  // b is untouched.
  EXPECT_EQ(b.default_gapply_parallelism(), 1u);
  EXPECT_EQ(b.default_batch_size(), RowBatch::kDefaultCapacity);
  EXPECT_TRUE(b.default_columnar_storage());
  // And so is the classic facade's default session.
  EXPECT_EQ(db_.default_gapply_parallelism(), 1u);
}

TEST_F(EngineSessionTest, SetStateAffectsOwnQueriesOnly) {
  Session row_session(&db_);
  Session col_session(&db_);
  ASSERT_TRUE(row_session.Query("set storage = row").ok());
  const std::string sql = "select count(*) from partsupp where ps_availqty > 100";
  QueryStats row_stats;
  QueryStats col_stats;
  ASSIGN_OR_FAIL(QueryResult row_result,
                 row_session.Query(sql, QueryOptions{}, &row_stats));
  ASSIGN_OR_FAIL(QueryResult col_result,
                 col_session.Query(sql, QueryOptions{}, &col_stats));
  tutil::ExpectSameSequence(row_result.rows, col_result.rows, "row vs columnar session");
  // The columnar session scanned morsels; the row session did not.
  EXPECT_GT(col_stats.counters.morsels_scanned, 0u);
  EXPECT_EQ(row_stats.counters.morsels_scanned, 0u);
}

// --- PREPARE / EXECUTE / DEALLOCATE --------------------------------------

TEST_F(EngineSessionTest, PrepareExecuteDeallocateSemantics) {
  Session session(&db_);
  const std::string sql =
      "select p_name, p_retailprice from part "
      "where p_retailprice > 1500 order by p_name";
  ASSIGN_OR_FAIL(QueryResult direct, session.Query(sql));
  ASSERT_TRUE(session.Query("prepare q1 as " + sql).ok());
  EXPECT_EQ(session.PreparedNames(), std::vector<std::string>{"q1"});
  ASSIGN_OR_FAIL(QueryResult via_execute, session.Query("execute q1"));
  tutil::ExpectSameSequence(via_execute.rows, direct.rows, "execute vs direct");

  // Duplicate PREPARE is an error until DEALLOCATE.
  Result<QueryResult> dup = session.Query("prepare q1 as " + sql);
  ASSERT_FALSE(dup.ok());
  EXPECT_NE(dup.status().message().find("already exists"), std::string::npos);

  // EXECUTE of an unknown name is NotFound.
  Result<QueryResult> unknown = session.Query("execute nope");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);

  ASSERT_TRUE(session.Query("deallocate q1").ok());
  EXPECT_FALSE(session.Query("execute q1").ok());
  // DEALLOCATE of a missing name errors; DEALLOCATE ALL never does.
  EXPECT_FALSE(session.Query("deallocate q1").ok());
  ASSERT_TRUE(session.Query("prepare q2 as " + sql).ok());
  ASSERT_TRUE(session.Query("deallocate all").ok());
  EXPECT_TRUE(session.PreparedNames().empty());
}

TEST_F(EngineSessionTest, PrepareErrorsSurfaceAtPrepareTime) {
  Session session(&db_);
  // Unknown table binds (and fails) at PREPARE, not EXECUTE.
  Result<QueryResult> bad =
      session.Query("prepare q as select x from no_such_table");
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(session.PreparedNames().empty());
}

TEST_F(EngineSessionTest, PreparedStatementsArePerSession) {
  Session a(&db_);
  Session b(&db_);
  ASSERT_TRUE(a.Query("prepare q as select count(*) from part").ok());
  EXPECT_TRUE(a.Query("execute q").ok());
  // b never prepared q.
  EXPECT_FALSE(b.Query("execute q").ok());
}

// EXECUTE keeps the parsed query and binds it again whenever the plan cache
// misses, so it sees every catalog and statistics change an ad-hoc run of
// the same text sees.
TEST_F(EngineSessionTest, ExecuteFollowsCatalogChanges) {
  // Installs `table` as t, replacing any previous t.
  auto install = [&](std::unique_ptr<Table> table) {
    return db_.WithExclusiveSchema([&] {
      if (db_.catalog()->FindTable("t") != nullptr) {
        RETURN_NOT_OK(db_.catalog()->RemoveTable("t"));
      }
      return db_.catalog()->AddTable(std::move(table));
    });
  };
  ASSERT_TRUE(install(tutil::MakeTable(
                          "t",
                          Schema({{"v", TypeId::kInt64, "t"},
                                  {"w", TypeId::kString, "t"}}),
                          {{Value::Int(1), Value::Str("a")},
                           {Value::Int(2), Value::Str("b")},
                           {Value::Int(3), Value::Str("c")}}))
                  .ok());
  Session session(&db_);
  const std::string sql = "select w, v from t where v > 1 order by v";
  ASSERT_TRUE(session.Query("prepare q as " + sql).ok());
  auto execute_matches_adhoc = [&](const std::string& step) {
    Result<QueryResult> adhoc = session.Query(sql);
    Result<QueryResult> executed = session.Query("execute q");
    EXPECT_TRUE(adhoc.ok()) << step << ": " << adhoc.status().ToString();
    EXPECT_TRUE(executed.ok()) << step << ": "
                               << executed.status().ToString();
    if (!adhoc.ok() || !executed.ok()) return QueryResult{};
    tutil::ExpectSameSequence(executed->rows, adhoc->rows, step);
    return std::move(executed).value();
  };
  const QueryResult first = execute_matches_adhoc("initial");
  EXPECT_EQ(first.rows.size(), 2u);

  ASSERT_TRUE(db_.Analyze().ok());
  execute_matches_adhoc("after Analyze");

  // Same name, columns swapped and new rows: a plan bound to the old t
  // would read the wrong columns.
  ASSERT_TRUE(install(tutil::MakeTable(
                          "t",
                          Schema({{"w", TypeId::kString, "t"},
                                  {"v", TypeId::kInt64, "t"}}),
                          {{Value::Str("x"), Value::Int(5)},
                           {Value::Str("y"), Value::Int(0)},
                           {Value::Str("z"), Value::Int(9)},
                           {Value::Str("u"), Value::Int(7)}}))
                  .ok());
  const QueryResult replaced = execute_matches_adhoc("after replacing t");
  ASSERT_EQ(replaced.rows.size(), 3u);
  EXPECT_EQ(replaced.rows[0][0].str_val(), "x");
  EXPECT_EQ(replaced.rows[2][1].int_val(), 9);

  // The plan EXECUTE just cached serves EXPLAIN ANALYZE EXECUTE.
  ASSIGN_OR_FAIL(QueryResult report,
                 session.Query("explain analyze execute q"));
  std::string text;
  for (const Row& row : report.rows) {
    text += std::string(row[0].str_val()) + "\n";
  }
  EXPECT_NE(text.find("plan cache: hit"), std::string::npos) << text;

  ASSERT_TRUE(
      db_.WithExclusiveSchema([&] { return db_.catalog()->RemoveTable("t"); })
          .ok());
  Result<QueryResult> adhoc = session.Query(sql);
  Result<QueryResult> executed = session.Query("execute q");
  ASSERT_FALSE(adhoc.ok());
  ASSERT_FALSE(executed.ok());
  EXPECT_EQ(executed.status().code(), adhoc.status().code())
      << executed.status().ToString();
  EXPECT_EQ(executed.status().message(), adhoc.status().message());
}

// --- per-layer statement times ----------------------------------------------

TEST_F(EngineSessionTest, LayerTimesTileTheStatement) {
  Session session(&db_);
  const std::string join =
      "select p_name, ps_availqty from partsupp, part "
      "where ps_partkey = p_partkey and ps_availqty > 100 order by p_name";
  ASSERT_TRUE(session.Query("prepare q as " + join).ok());
  // A plan-cache miss, a hit, the hit through EXECUTE, and a SET.
  for (const std::string& sql :
       {join, join, std::string("execute q"),
        std::string("set batch_size = 512")}) {
    // The layers tile the call, so they cover all of its wall time but
    // the few instructions around the first and last clock reads. A
    // preemption there can cost the margin; three tries absorb it.
    double ratio = 0;
    for (int attempt = 0; attempt < 3 && ratio < 0.95; ++attempt) {
      QueryStats stats;
      const auto t0 = std::chrono::steady_clock::now();
      Result<QueryResult> r = session.Query(sql, QueryOptions{}, &stats);
      const auto t1 = std::chrono::steady_clock::now();
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      const uint64_t wall = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count());
      const QueryStats::LayerNs& ns = stats.layer_ns;
      ASSERT_LE(ns.total(), wall) << sql;
      ratio = static_cast<double>(ns.total()) / static_cast<double>(wall);
      EXPECT_GT(ns.parse, 0u) << sql;
      if (sql[0] == 's' && sql[1] == 'e') continue;  // SET: nothing to run
      EXPECT_GT(ns.cache_lookup, 0u) << sql;
      EXPECT_GT(ns.lower, 0u) << sql;
      EXPECT_GT(ns.execute, 0u) << sql;
      // Only a miss binds and optimizes.
      EXPECT_EQ(ns.bind > 0, !stats.plan_cache_hit) << sql;
      EXPECT_EQ(ns.optimize > 0, !stats.plan_cache_hit) << sql;
    }
    EXPECT_GE(ratio, 0.95) << sql;
  }

  // Untimed calls leave the layers at zero.
  QueryStats untimed;
  ASSERT_TRUE(session.Query(join).ok());
  EXPECT_EQ(untimed.layer_ns.total(), 0u);

  // EXPLAIN ANALYZE prints them on one line.
  ASSIGN_OR_FAIL(std::string report, session.ExplainAnalyze("execute q"));
  EXPECT_NE(report.find("\nlayers: parse "), std::string::npos) << report;
  EXPECT_NE(report.find(" execute "), std::string::npos) << report;
}

// --- admission control ----------------------------------------------------

TEST_F(EngineSessionTest, AdmissionScalesDownRequestedDop) {
  db_.admission()->set_budget(2);
  Session session(&db_);
  ASSERT_TRUE(session.Query("set parallelism = 8").ok());
  QueryStats stats;
  ASSIGN_OR_FAIL(QueryResult result,
                 session.Query("select gapply(select count(*) from g) "
                               "from partsupp group by ps_suppkey : g",
                               QueryOptions{}, &stats));
  EXPECT_EQ(stats.admission_requested, 8u);
  EXPECT_EQ(stats.admission_granted, 2u);  // bucket was full and free
  EXPECT_FALSE(stats.admission_waited);    // never empty → no wait
  // The clamp bounds actual workers, not just bookkeeping.
  EXPECT_LE(stats.counters.gapply_workers, 2u);

  // The same query serial (budget back up) is bit-for-bit identical.
  db_.admission()->set_budget(16);
  ASSERT_TRUE(session.Query("set parallelism = 1").ok());
  ASSIGN_OR_FAIL(QueryResult serial,
                 session.Query("select gapply(select count(*) from g) "
                               "from partsupp group by ps_suppkey : g"));
  tutil::ExpectSameSequence(result.rows, serial.rows, "admitted vs serial");
}

TEST_F(EngineSessionTest, AdmissionKeepsTotalWorkersWithinBudget) {
  const size_t kBudget = 3;
  db_.admission()->set_budget(kBudget);
  const std::string sql =
      "select ps_suppkey, sum(ps_availqty) from partsupp "
      "group by ps_suppkey order by ps_suppkey";
  ASSIGN_OR_FAIL(QueryResult expected, db_.Query(sql));

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  std::atomic<bool> go{false};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      Session session(&db_);
      if (!session.Query("set parallelism = 4").ok()) {
        ++failures;
        return;
      }
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; i < 3; ++i) {
        QueryStats stats;
        Result<QueryResult> r = session.Query(sql, QueryOptions{}, &stats);
        if (!r.ok() || !SameRowSequence(r->rows, expected.rows) ||
            stats.admission_granted > kBudget) {
          ++failures;
        }
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  // The acceptance criterion: concurrency tokens in flight never exceeded
  // the budget, even with 8 clients × DOP 4 demanding 32.
  const AdmissionController::Stats stats = db_.admission()->stats();
  EXPECT_LE(stats.peak_in_use, kBudget);
  EXPECT_EQ(stats.in_use, 0u);  // every slot released
  EXPECT_GT(stats.scaled_down + stats.waits, 0u);  // pressure was real
}

// --- EXPLAIN ANALYZE surfaces ---------------------------------------------

TEST_F(EngineSessionTest, ExplainAnalyzeReportsCacheAndAdmission) {
  Session session(&db_);
  const std::string sql = "select count(*) from part";
  ASSIGN_OR_FAIL(std::string first, session.ExplainAnalyze(sql));
  EXPECT_NE(first.find("plan cache: miss"), std::string::npos) << first;
  EXPECT_NE(first.find("admission: requested 1, granted 1"),
            std::string::npos)
      << first;
  ASSIGN_OR_FAIL(std::string second, session.ExplainAnalyze(sql));
  EXPECT_NE(second.find("plan cache: hit"), std::string::npos) << second;
}

TEST_F(EngineSessionTest, ExplainAnalyzeOfPreparedStatement) {
  Session session(&db_);
  ASSERT_TRUE(
      session.Query("prepare q as select count(*) from partsupp").ok());
  ASSIGN_OR_FAIL(QueryResult report, session.Query("explain analyze execute q"));
  ASSERT_FALSE(report.rows.empty());
  std::string text;
  for (const Row& row : report.rows) text += std::string(row[0].str_val()) + "\n";
  EXPECT_NE(text.find("result rows: 1"), std::string::npos) << text;
  EXPECT_NE(text.find("plan cache:"), std::string::npos) << text;
}

// --- N-thread × M-statement stress with serial replay ---------------------

struct Outcome {
  bool ok = false;
  std::string error;
  std::vector<std::string> rows;

  bool operator==(const Outcome& other) const {
    return ok == other.ok && error == other.error && rows == other.rows;
  }
};

Outcome RunStatement(Session* session, const std::string& sql) {
  Outcome outcome;
  Result<QueryResult> r = session->Query(sql);
  outcome.ok = r.ok();
  if (!r.ok()) {
    outcome.error = r.status().message();
    return outcome;
  }
  outcome.rows.reserve(r->rows.size());
  for (const Row& row : r->rows) outcome.rows.push_back(RowToString(row));
  return outcome;
}

/// Deterministic mixed schedule for session `s`: SELECT (plain, grouped,
/// GApply, subquery), SET (parallelism/batch/storage/plan cache), PREPARE /
/// EXECUTE / DEALLOCATE — including deliberate errors (EXECUTE before
/// PREPARE) that must reproduce identically in the serial replay.
std::vector<std::string> MakeSchedule(int s) {
  std::string name = "p";
  name += std::to_string(s % 2);
  std::vector<std::string> schedule;
  schedule.push_back("execute " + name);  // error: not prepared yet
  schedule.push_back("set parallelism = " + std::to_string(1 + s % 4));
  schedule.push_back("select count(*) from partsupp");
  schedule.push_back("prepare " + name +
                     " as select ps_suppkey, sum(ps_availqty) from partsupp "
                     "group by ps_suppkey order by ps_suppkey");
  schedule.push_back("execute " + name);
  schedule.push_back(s % 2 == 0 ? "set storage = row"
                                : "set plan_cache = off");
  schedule.push_back("select gapply(select count(*) from g) "
                     "from partsupp group by ps_suppkey : g");
  schedule.push_back("set batch_size = " + std::to_string(1 + (s * 7) % 64));
  schedule.push_back("execute " + name);
  schedule.push_back(
      "select p_name from part where p_retailprice > "
      "(select avg(p_retailprice) from part) order by p_name");
  schedule.push_back("deallocate " + name);
  schedule.push_back("execute " + name);  // error again after DEALLOCATE
  return schedule;
}

TEST_F(EngineSessionTest, ConcurrentSessionsMatchSerialReplayBitForBit) {
  constexpr int kSessions = 8;
  db_.admission()->set_budget(4);  // tighter than demand → real contention

  std::vector<std::vector<std::string>> schedules;
  schedules.reserve(kSessions);
  for (int s = 0; s < kSessions; ++s) schedules.push_back(MakeSchedule(s));

  // Concurrent run: one thread per session against the shared Database.
  std::vector<std::vector<Outcome>> concurrent(kSessions);
  {
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (int s = 0; s < kSessions; ++s) {
      threads.emplace_back([&, s] {
        Session session(&db_);
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        for (const std::string& sql : schedules[s]) {
          concurrent[s].push_back(RunStatement(&session, sql));
        }
      });
    }
    go.store(true, std::memory_order_release);
    for (std::thread& t : threads) t.join();
  }

  // Serial replay: a fresh identically-loaded Database, each session's
  // stream run to completion in isolation.
  Database replay_db;
  tpch::TpchConfig config;
  config.scale_factor = 0.001;
  ASSERT_TRUE(replay_db.LoadTpch(config).ok());
  replay_db.admission()->set_budget(4);
  for (int s = 0; s < kSessions; ++s) {
    Session session(&replay_db);
    for (size_t j = 0; j < schedules[s].size(); ++j) {
      const Outcome serial = RunStatement(&session, schedules[s][j]);
      EXPECT_TRUE(concurrent[s][j] == serial)
          << "session " << s << " statement " << j << " ["
          << schedules[s][j] << "] diverged: concurrent ok="
          << concurrent[s][j].ok << " rows=" << concurrent[s][j].rows.size()
          << " err=" << concurrent[s][j].error << " | serial ok=" << serial.ok
          << " rows=" << serial.rows.size() << " err=" << serial.error;
    }
  }

  // Shared state stayed within contract.
  EXPECT_LE(db_.admission()->stats().peak_in_use, 4u);
  EXPECT_EQ(db_.admission()->stats().in_use, 0u);
  // The repeated EXECUTEs across 8 sessions must have hit the shared cache.
  EXPECT_GT(db_.plan_cache()->stats().hits, 0u);
}

TEST_F(EngineSessionTest, ConcurrentSchemaChangeSerializesAgainstQueries) {
  // Queries hold the schema lock shared; Analyze takes it exclusive. Mixing
  // them across threads must be race-free (tsan) and every query must see
  // a consistent catalog.
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      Session session(&db_);
      for (int i = 0; i < 10; ++i) {
        if (!session.Query("select count(*) from supplier").ok()) ++failures;
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < 5; ++i) {
      if (!db_.Analyze().ok()) ++failures;
    }
  });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace gapply
