#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/engine/database.h"
#include "src/storage/columnar.h"
#include "tests/differential_util.h"
#include "tests/test_util.h"

namespace gapply {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tpch::TpchConfig config;
    config.scale_factor = 0.001;
    ASSERT_TRUE(db_.LoadTpch(config).ok());
  }

  Database db_;
};

TEST_F(EngineTest, QueryReportsCountersAndRules) {
  QueryStats stats;
  Result<QueryResult> r = db_.Query(
      "select gapply(select avg(p_retailprice) from g) "
      "from partsupp, part where ps_partkey = p_partkey "
      "group by ps_suppkey : g",
      QueryOptions{}, &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(stats.fired_rules.empty());
  EXPECT_GT(stats.counters.rows_scanned, 0u);
}

TEST_F(EngineTest, OptimizeOffExecutesBoundPlanVerbatim) {
  const std::string sql =
      "select gapply(select count(*) from g) "
      "from partsupp group by ps_suppkey : g";
  QueryOptions off;
  off.optimize = false;
  QueryStats stats;
  Result<QueryResult> r = db_.Query(sql, off, &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(stats.fired_rules.empty());
  // GApply really ran: once, loop-lifted over all 10 groups.
  EXPECT_EQ(stats.counters.pgq_executions, 1u);

  // With the optimizer on, GApplyToGroupBy removes the GApply entirely.
  QueryStats on_stats;
  Result<QueryResult> on = db_.Query(sql, QueryOptions{}, &on_stats);
  ASSERT_TRUE(on.ok());
  EXPECT_EQ(on_stats.counters.pgq_executions, 0u);
  EXPECT_TRUE(SameRowMultiset(r->rows, on->rows));
}

TEST_F(EngineTest, PartitionModePlumbedThroughOptions) {
  const std::string sql =
      "select gapply(select p_name from g) "
      "from partsupp, part where ps_partkey = p_partkey "
      "group by ps_suppkey : g";
  QueryOptions sort_mode;
  sort_mode.lowering.force_partition_mode = PartitionMode::kSort;
  QueryStats stats;
  Result<QueryResult> r = db_.Query(sql, sort_mode, &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(stats.counters.rows_sorted, 0u);
  EXPECT_EQ(stats.counters.rows_hash_partitioned, 0u);

  QueryOptions hash_mode;
  hash_mode.lowering.force_partition_mode = PartitionMode::kHash;
  QueryStats hash_stats;
  Result<QueryResult> h = db_.Query(sql, hash_mode, &hash_stats);
  ASSERT_TRUE(h.ok());
  EXPECT_GT(hash_stats.counters.rows_hash_partitioned, 0u);
  EXPECT_TRUE(SameRowMultiset(r->rows, h->rows));
}

TEST_F(EngineTest, RuleTogglesIsolateIndividualRules) {
  const std::string sql =
      "select gapply(select avg(p_retailprice) from g) "
      "from partsupp, part where ps_partkey = p_partkey "
      "group by ps_suppkey : g";
  QueryOptions only_projection;
  only_projection.optimizer = Optimizer::Options::AllDisabled();
  only_projection.optimizer.projection_before_gapply = true;
  QueryStats stats;
  ASSERT_TRUE(db_.Query(sql, only_projection, &stats).ok());
  ASSERT_EQ(stats.fired_rules.size(), 1u);
  EXPECT_EQ(stats.fired_rules[0], "ProjectionBeforeGApply");
}

TEST_F(EngineTest, ErrorsPropagateWithContext) {
  Result<QueryResult> parse_err = db_.Query("selec nonsense");
  ASSERT_FALSE(parse_err.ok());
  Result<QueryResult> bind_err = db_.Query("select zzz from part");
  ASSERT_FALSE(bind_err.ok());
  EXPECT_EQ(bind_err.status().code(), StatusCode::kNotFound);
  // Runtime type error: adding a string column to an int.
  Result<QueryResult> run_err =
      db_.Query("select p_name + 1 from part");
  ASSERT_FALSE(run_err.ok());
  EXPECT_EQ(run_err.status().code(), StatusCode::kTypeError);
}

TEST_F(EngineTest, AnalyzeRefreshesStats) {
  // Add a table after the initial ANALYZE; stats appear after re-analyze.
  Schema schema({{"v", TypeId::kInt64, "extra"}});
  auto table = std::make_unique<Table>("extra", schema);
  ASSERT_TRUE(table->Append({Value::Int(1)}).ok());
  ASSERT_TRUE(db_.catalog()->AddTable(std::move(table)).ok());
  EXPECT_EQ(db_.stats()->Get("extra"), nullptr);
  ASSERT_TRUE(db_.Analyze().ok());
  ASSERT_NE(db_.stats()->Get("extra"), nullptr);
  EXPECT_EQ(db_.stats()->Get("extra")->row_count, 1);
}

TEST_F(EngineTest, RepeatedQueriesAreIndependent) {
  const std::string sql = "select count(*) from partsupp";
  for (int i = 0; i < 3; ++i) {
    Result<QueryResult> r = db_.Query(sql);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->rows[0][0].int_val(), 800);
  }
}

TEST_F(EngineTest, SetParallelismPersistsForTheSession) {
  EXPECT_EQ(db_.default_gapply_parallelism(), 1u);
  Result<QueryResult> set_r = db_.Query("set parallelism = 4");
  ASSERT_TRUE(set_r.ok()) << set_r.status().ToString();
  EXPECT_TRUE(set_r->rows.empty());  // SET produces no rows
  EXPECT_EQ(db_.default_gapply_parallelism(), 4u);

  // The session default reaches GApply: identical results to a query that
  // explicitly forces serial execution, and the plan advertises the DOP.
  const std::string sql =
      "select gapply(select p_name from g) "
      "from partsupp, part where ps_partkey = p_partkey "
      "group by ps_suppkey : g";
  QueryStats par_stats;
  Result<QueryResult> par = db_.Query(sql, QueryOptions{}, &par_stats);
  ASSERT_TRUE(par.ok()) << par.status().ToString();

  QueryOptions serial;
  serial.lowering.gapply_parallelism = 1;  // overrides the session default
  QueryStats serial_stats;
  Result<QueryResult> ser = db_.Query(sql, serial, &serial_stats);
  ASSERT_TRUE(ser.ok());
  ASSERT_EQ(par->rows.size(), ser->rows.size());
  for (size_t i = 0; i < par->rows.size(); ++i) {
    EXPECT_TRUE(RowsEqual(par->rows[i], ser->rows[i])) << "row " << i;
  }
  EXPECT_EQ(par_stats.counters.pgq_executions,
            serial_stats.counters.pgq_executions);

  Result<std::string> explain = db_.Explain(sql);
  ASSERT_TRUE(explain.ok());
  EXPECT_NE(explain->find("parallelism=4"), std::string::npos) << *explain;
}

TEST_F(EngineTest, SetParallelismZeroMeansAllHardwareThreads) {
  ASSERT_TRUE(db_.Query("set parallelism = 0").ok());
  EXPECT_GE(db_.default_gapply_parallelism(), 1u);
}

TEST_F(EngineTest, SetStorageSwitchesScanPathAndKeepsResults) {
  const std::string sql =
      "select ps_partkey, ps_availqty from partsupp where ps_availqty > 100";
  // Columnar (the default): the WHERE is pushed into the scan, so the
  // physical plan shows the pushdown and loses the Filter.
  ASSIGN_OR_FAIL(std::string columnar_plan, db_.Explain(sql));
  EXPECT_NE(columnar_plan.find("pushdown: ps_availqty > 100"),
            std::string::npos)
      << columnar_plan;
  ASSIGN_OR_FAIL(QueryResult columnar, db_.Query(sql));

  ASSERT_TRUE(db_.Query("set storage = row").ok());
  EXPECT_FALSE(db_.default_columnar_storage());
  ASSIGN_OR_FAIL(std::string row_plan, db_.Explain(sql));
  EXPECT_EQ(row_plan.find("pushdown"), std::string::npos) << row_plan;
  ASSIGN_OR_FAIL(QueryResult row, db_.Query(sql));
  tutil::ExpectSameSequence(row.rows, columnar.rows, "storage=row");

  ASSERT_TRUE(db_.Query("set storage = columnar").ok());
  EXPECT_TRUE(db_.default_columnar_storage());
}

TEST_F(EngineTest, SetStorageRejectsBadValues) {
  for (const char* bad : {"set storage = 1", "set storage = fast",
                          "set storage = on"}) {
    Result<QueryResult> r = db_.Query(bad);
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << bad;
  }
  EXPECT_TRUE(db_.default_columnar_storage());  // unchanged by failures
  // Word values are rejected by the numeric knobs.
  Result<QueryResult> r = db_.Query("set parallelism = columnar");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(EngineTest, PushdownAccumulatesAcrossStackedSelects) {
  // Fuzzer regression (seed 147): with the optimizer off, `a AND b` binds
  // as two stacked Selects over the scan; lowering absorbs them one at a
  // time, and the second PushPredicates call must add to — not replace —
  // the conjuncts the first one pushed. The row (v0=13) violates the first
  // conjunct, so a dropped conjunct shows up as count 1 instead of 0.
  auto t0 = std::make_unique<Table>(
      "t0", Schema({{"v0", TypeId::kInt64, "t0"},
                    {"s1", TypeId::kString, "t0"}}));
  ASSERT_TRUE(t0->Append({Value::Int(13), Value::Str("vdkou")}).ok());
  ASSERT_TRUE(db_.catalog()->AddTable(std::move(t0)).ok());

  const std::string sql =
      "select count(s1) from t0 where v0 <= 0 and s1 <> 'nzocmy'";
  QueryOptions off;
  off.optimize = false;
  ASSIGN_OR_FAIL(QueryResult unopt, db_.Query(sql, off));
  EXPECT_EQ(unopt.rows[0][0].int_val(), 0);
  ASSIGN_OR_FAIL(QueryResult opt, db_.Query(sql));
  EXPECT_EQ(opt.rows[0][0].int_val(), 0);
}

TEST_F(EngineTest, ExplainAnalyzeSurfacesMorselCounters) {
  // A clustered two-morsel table: `k < 10` lives entirely in morsel 0, so
  // the scan must prune morsel 1 and say so in the report.
  auto big = std::make_unique<Table>(
      "big", Schema({{"k", TypeId::kInt64, "big"}}));
  for (size_t i = 0; i < 2 * ColumnarTable::kMorselRows; ++i) {
    ASSERT_TRUE(big->Append({Value::Int(static_cast<int64_t>(i))}).ok());
  }
  ASSERT_TRUE(db_.catalog()->AddTable(std::move(big)).ok());

  ASSIGN_OR_FAIL(std::string report,
                 db_.ExplainAnalyze("select k from big where k < 10"));
  EXPECT_NE(report.find("morsels_pruned=1"), std::string::npos) << report;
  EXPECT_NE(report.find("morsels_scanned=1"), std::string::npos) << report;

  ASSIGN_OR_FAIL(
      JsonValue json,
      db_.ExplainAnalyzeJson("select k from big where k < 10"));
  const std::string dump = json.Dump(2);
  EXPECT_NE(dump.find("morsels_pruned"), std::string::npos) << dump;
  EXPECT_NE(dump.find("\"result_rows\": 10"), std::string::npos) << dump;
}

TEST_F(EngineTest, SetStatementErrors) {
  // Unknown option, with a number and with a word.
  Result<QueryResult> unknown = db_.Query("set no_such_option = 1");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);
  Result<QueryResult> unknown_word = db_.Query("set no_such_option = bytecode");
  ASSERT_FALSE(unknown_word.ok());
  EXPECT_EQ(unknown_word.status().code(), StatusCode::kInvalidArgument);
  // Negative DOP.
  Result<QueryResult> negative = db_.Query("set parallelism = -2");
  ASSERT_FALSE(negative.ok());
  EXPECT_EQ(negative.status().code(), StatusCode::kInvalidArgument);
  // Malformed: missing '='.
  Result<QueryResult> malformed = db_.Query("set parallelism 4");
  ASSERT_FALSE(malformed.ok());
  // Failed SETs leave the session default untouched.
  EXPECT_EQ(db_.default_gapply_parallelism(), 1u);
}

}  // namespace
}  // namespace gapply
