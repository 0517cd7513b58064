#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/engine/database.h"
#include "src/exec/agg_ops.h"
#include "src/exec/exchange_op.h"
#include "src/exec/filter_project_ops.h"
#include "src/exec/gapply_op.h"
#include "src/exec/join_ops.h"
#include "src/exec/scan_ops.h"
#include "src/expr/aggregate.h"
#include "src/expr/expr.h"
#include "tests/differential_util.h"
#include "tests/test_util.h"

namespace gapply {
namespace {

using tutil::GroupedSchema;
using tutil::MakeTable;
using tutil::RandomGroupedRows;

// The parallel paths promise bit-for-bit the same output as serial:
// tutil::ExpectSameSequence (ordered, element-wise row equality), not just
// the same multiset.

Result<QueryResult> RunWithBatch(PhysOp* root, size_t batch_size) {
  ExecContext ctx;
  ctx.set_batch_size(batch_size);
  return ExecuteToVector(root, &ctx);
}

// ---------------------------------------------------------------------------
// Streaming-segment shapes driven through ExchangeOp directly.
// ---------------------------------------------------------------------------

using SpineBuilder = std::function<PhysOpPtr(const Table*, const Table*)>;

PhysOpPtr ScanSpine(const Table* big, const Table* /*dim*/) {
  return std::make_unique<TableScanOp>(big);
}

PhysOpPtr FilterProjectSpine(const Table* big, const Table* /*dim*/) {
  auto scan = std::make_unique<TableScanOp>(big);
  const Schema s = scan->output_schema();
  auto filter = std::make_unique<FilterOp>(
      std::move(scan),
      Binary(BinaryOp::kGe, Col(s, "v"), Lit(int64_t{25})));
  std::vector<ExprPtr> exprs;
  exprs.push_back(Col(s, "k"));
  exprs.push_back(Binary(BinaryOp::kMultiply, Col(s, "v"), Lit(int64_t{3})));
  auto proj = ProjectOp::Make(std::move(filter), std::move(exprs),
                              std::vector<std::string>{"k", "v3"});
  EXPECT_TRUE(proj.ok());
  return std::move(proj).value();
}

PhysOpPtr JoinSpine(const Table* big, const Table* dim) {
  // Probe = morsel-driven big-table scan; build = dim, rebuilt per clone.
  auto probe = std::make_unique<TableScanOp>(big);
  auto build = std::make_unique<TableScanOp>(dim);
  return std::make_unique<HashJoinOp>(std::move(probe), std::move(build),
                                      std::vector<int>{0},
                                      std::vector<int>{0});
}

class ExchangeDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(31);
    big_ = MakeTable("t", GroupedSchema(),
                     RandomGroupedRows(&rng, 1000, 23, 0.05));
    Schema ds({{"dk", TypeId::kInt64, "d"}, {"dv", TypeId::kInt64, "d"}});
    std::vector<Row> drows;
    for (int i = 1; i <= 23; ++i) {
      drows.push_back({Value::Int(i), Value::Int(i * 100)});
    }
    dim_ = MakeTable("d", std::move(ds), std::move(drows));
  }

  std::unique_ptr<Table> big_;
  std::unique_ptr<Table> dim_;
};

TEST_F(ExchangeDeterminismTest, BitForBitIdenticalAcrossDopAndBatch) {
  const std::vector<std::pair<const char*, SpineBuilder>> spines = {
      {"scan", ScanSpine},
      {"filter+project", FilterProjectSpine},
      {"join", JoinSpine}};
  for (const auto& [name, spine] : spines) {
    PhysOpPtr serial = spine(big_.get(), dim_.get());
    ASSIGN_OR_FAIL(QueryResult expected, RunWithBatch(serial.get(), 1024));
    ASSERT_FALSE(expected.rows.empty());
    for (const auto& [dop, batch] : tutil::DopBatchMatrix()) {
      ExchangeOp ex(spine(big_.get(), dim_.get()), dop,
                    /*morsel_rows=*/64);
      ASSIGN_OR_FAIL(QueryResult got, RunWithBatch(&ex, batch));
      tutil::ExpectSameSequence(
          got.rows, expected.rows,
          std::string("spine=") + name + " dop=" + std::to_string(dop) +
              " batch=" + std::to_string(batch));
    }
  }
}

TEST_F(ExchangeDeterminismTest, SingleMorselDegeneratesToPassthrough) {
  // The whole table fits in one morsel: no clones, no buffering, and the
  // child streams through untouched.
  PhysOpPtr serial = ScanSpine(big_.get(), dim_.get());
  ASSIGN_OR_FAIL(QueryResult expected, RunWithBatch(serial.get(), 1024));
  ExchangeOp ex(ScanSpine(big_.get(), dim_.get()), /*parallelism=*/8,
                /*morsel_rows=*/100000);
  ASSIGN_OR_FAIL(QueryResult got, RunWithBatch(&ex, 1024));
  tutil::ExpectSameSequence(got.rows, expected.rows, "single-morsel");
  EXPECT_EQ(ex.effective_dop(), 1u);
}

TEST_F(ExchangeDeterminismTest, WorkerRowsAccountForEveryRow) {
  ExchangeOp ex(ScanSpine(big_.get(), dim_.get()), /*parallelism=*/4,
                /*morsel_rows=*/64);
  ExecContext ctx;
  ctx.set_profiling(true);  // the phase timers run only under profiling
  ASSIGN_OR_FAIL(QueryResult got, ExecuteToVector(&ex, &ctx));
  EXPECT_EQ(got.rows.size(), big_->num_rows());
  uint64_t attributed = 0;
  for (uint64_t r : ex.worker_rows()) attributed += r;
  EXPECT_EQ(attributed, big_->num_rows());
  EXPECT_EQ(ex.runtime_profile().rows_out(), big_->num_rows());
  EXPECT_GT(ex.runtime_profile().work.exchange_partition_ns, 0u);
}

TEST_F(ExchangeDeterminismTest, RejectsBlockingSegment) {
  // An aggregation is a pipeline breaker: it would consume the scan's
  // initial (empty) morsel range at Open, so Exchange must refuse it.
  auto scan = std::make_unique<TableScanOp>(big_.get());
  std::vector<AggregateDesc> aggs;
  aggs.push_back(CountStar("cnt"));
  auto agg = std::make_unique<HashGroupByOp>(
      std::move(scan), std::vector<int>{0}, std::move(aggs));
  EXPECT_EQ(FindExchangeMorselSource(agg.get()), nullptr);
  ExchangeOp ex(std::move(agg), /*parallelism=*/4, /*morsel_rows=*/64);
  ExecContext ctx;
  Status st = ex.Open(&ctx);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("streaming segment"), std::string::npos);
}

TEST_F(ExchangeDeterminismTest, DebugNameShowsDopAndMorsel) {
  ExchangeOp ex(ScanSpine(big_.get(), dim_.get()), 4, 512);
  EXPECT_NE(ex.DebugName().find("dop=4"), std::string::npos);
  EXPECT_NE(ex.DebugName().find("morsel=512"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Error propagation: a failing worker must surface the same error serial
// execution hits first, at any DOP, and leave no thread behind.
// ---------------------------------------------------------------------------

TEST(ExchangeErrorTest, FailingWorkerPropagatesSerialError) {
  // Rows whose v == 0 poison the projection 100 / v. Poisons sit in
  // distinct morsels (morsel_rows = 64): row 200 (morsel 3) and row 700
  // (morsel 10); the surfaced error must be morsel 3's — the one serial
  // execution hits first.
  std::vector<Row> rows;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = (i == 200 || i == 700) ? 0 : (i % 90) + 1;
    rows.push_back({Value::Int(i % 23), Value::Int(v), Value::Double(0.5)});
  }
  auto table = MakeTable("t", GroupedSchema(), std::move(rows));

  auto make_plan = [&] {
    auto scan = std::make_unique<TableScanOp>(table.get());
    const Schema s = scan->output_schema();
    std::vector<ExprPtr> exprs;
    exprs.push_back(
        Binary(BinaryOp::kDivide, Lit(int64_t{100}), Col(s, "v")));
    auto proj = ProjectOp::Make(std::move(scan), std::move(exprs),
                                std::vector<std::string>{"q"});
    EXPECT_TRUE(proj.ok());
    return std::move(proj).value();
  };

  PhysOpPtr serial = make_plan();
  Result<QueryResult> serial_r = RunWithBatch(serial.get(), 1024);
  ASSERT_FALSE(serial_r.ok());
  const std::string expected_error = serial_r.status().ToString();
  EXPECT_NE(expected_error.find("division by zero"), std::string::npos);

  for (size_t dop : {2u, 8u}) {
    for (size_t batch : {1u, 1024u}) {
      ExchangeOp ex(make_plan(), dop, /*morsel_rows=*/64);
      Result<QueryResult> r = RunWithBatch(&ex, batch);
      ASSERT_FALSE(r.ok()) << "dop=" << dop << " batch=" << batch;
      EXPECT_EQ(r.status().ToString(), expected_error)
          << "dop=" << dop << " batch=" << batch;
    }
  }
}

// Two poisons with *different* messages, so a test can tell which one
// surfaced: v == -1 trips "division by zero" in the left operand, v == -2
// trips "modulo by zero" in the right one.
ExprPtr TwoPoisonExpr(const Schema& s) {
  return Binary(
      BinaryOp::kAdd,
      Binary(BinaryOp::kDivide, Lit(int64_t{100}),
             Binary(BinaryOp::kAdd, Col(s, "v"), Lit(int64_t{1}))),
      Binary(BinaryOp::kModulo, Lit(int64_t{100}),
             Binary(BinaryOp::kAdd, Col(s, "v"), Lit(int64_t{2}))));
}

TEST(ExchangeErrorTest, DistinctFailuresSurfaceSmallestMorselsError) {
  // Row 200 (morsel 3 at morsel_rows = 64) divides by zero; row 700
  // (morsel 10) takes modulo by zero. Serial hits morsel 3 first, so every
  // parallel run must report the division even when morsel 10 fails first.
  std::vector<Row> rows;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = i == 200 ? -1 : i == 700 ? -2 : (i % 90) + 1;
    rows.push_back({Value::Int(i % 23), Value::Int(v), Value::Double(0.5)});
  }
  auto table = MakeTable("t", GroupedSchema(), std::move(rows));

  auto make_plan = [&] {
    auto scan = std::make_unique<TableScanOp>(table.get());
    const Schema s = scan->output_schema();
    std::vector<ExprPtr> exprs;
    exprs.push_back(TwoPoisonExpr(s));
    auto proj = ProjectOp::Make(std::move(scan), std::move(exprs),
                                std::vector<std::string>{"q"});
    EXPECT_TRUE(proj.ok());
    return std::move(proj).value();
  };

  PhysOpPtr serial = make_plan();
  Result<QueryResult> serial_r = RunWithBatch(serial.get(), 1024);
  ASSERT_FALSE(serial_r.ok());
  const std::string expected_error = serial_r.status().ToString();
  EXPECT_NE(expected_error.find("division by zero"), std::string::npos);

  for (size_t dop : {1u, 2u, 4u, 8u}) {
    for (size_t batch : {1u, 1024u}) {
      ExchangeOp ex(make_plan(), dop, /*morsel_rows=*/64);
      Result<QueryResult> r = RunWithBatch(&ex, batch);
      ASSERT_FALSE(r.ok()) << "dop=" << dop << " batch=" << batch;
      EXPECT_EQ(r.status().ToString(), expected_error)
          << "dop=" << dop << " batch=" << batch;
    }
  }
}

// ---------------------------------------------------------------------------
// Parallel hash-join build: shard-partitioned build must be invisible —
// identical probe results at every DOP and batch size.
// ---------------------------------------------------------------------------

TEST(ParallelJoinBuildTest, BitForBitIdenticalAcrossDop) {
  Rng rng(41);
  // Build side above kParallelBuildMinRows, with duplicate keys so
  // equal_range enumeration order matters.
  auto build_tbl = MakeTable(
      "b", GroupedSchema(),
      RandomGroupedRows(&rng, HashJoinOp::kParallelBuildMinRows + 1000, 37));
  auto probe_tbl =
      MakeTable("p", GroupedSchema(), RandomGroupedRows(&rng, 500, 37));

  auto make_join = [&](size_t dop) {
    auto probe = std::make_unique<TableScanOp>(probe_tbl.get());
    auto build = std::make_unique<TableScanOp>(build_tbl.get());
    return std::make_unique<HashJoinOp>(std::move(probe), std::move(build),
                                        std::vector<int>{0},
                                        std::vector<int>{0}, nullptr, dop);
  };

  auto serial = make_join(1);
  ASSIGN_OR_FAIL(QueryResult expected, RunWithBatch(serial.get(), 1024));
  ASSERT_FALSE(expected.rows.empty());
  for (const auto& [dop, batch] : tutil::DopBatchMatrix(false)) {
    auto par = make_join(dop);
    ASSIGN_OR_FAIL(QueryResult got, RunWithBatch(par.get(), batch));
    tutil::ExpectSameSequence(got.rows, expected.rows,
                              "dop=" + std::to_string(dop) +
                                  " batch=" + std::to_string(batch));
  }
}

TEST(ParallelJoinBuildTest, SmallBuildSideStaysSerial) {
  Rng rng(42);
  auto build_tbl =
      MakeTable("b", GroupedSchema(), RandomGroupedRows(&rng, 100, 7));
  auto probe_tbl =
      MakeTable("p", GroupedSchema(), RandomGroupedRows(&rng, 100, 7));
  auto probe = std::make_unique<TableScanOp>(probe_tbl.get());
  auto build = std::make_unique<TableScanOp>(build_tbl.get());
  HashJoinOp join(std::move(probe), std::move(build), {0}, {0}, nullptr, 8);
  auto probe2 = std::make_unique<TableScanOp>(probe_tbl.get());
  auto build2 = std::make_unique<TableScanOp>(build_tbl.get());
  HashJoinOp ser(std::move(probe2), std::move(build2), {0}, {0});
  ASSIGN_OR_FAIL(QueryResult expected, RunWithBatch(&ser, 1024));
  ASSIGN_OR_FAIL(QueryResult got, RunWithBatch(&join, 1024));
  tutil::ExpectSameSequence(got.rows, expected.rows, "small-build-side");
}

TEST(ParallelJoinBuildTest, DebugNameShowsDop) {
  Rng rng(43);
  auto t = MakeTable("t", GroupedSchema(), RandomGroupedRows(&rng, 10, 3));
  auto probe = std::make_unique<TableScanOp>(t.get());
  auto build = std::make_unique<TableScanOp>(t.get());
  HashJoinOp join(std::move(probe), std::move(build), {0}, {0}, nullptr, 6);
  EXPECT_NE(join.DebugName().find("dop=6"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Parallel hash aggregation: partial tables merged in first-appearance
// order must be indistinguishable from the serial streaming path.
// ---------------------------------------------------------------------------

TEST(ParallelHashAggTest, ExactAggsBitForBitIdenticalAcrossDop) {
  Rng rng(51);
  auto table = MakeTable(
      "t", GroupedSchema(),
      RandomGroupedRows(&rng, HashGroupByOp::kParallelAggMinRows + 2000, 61,
                        0.1));

  auto make_agg = [&](size_t dop) {
    auto scan = std::make_unique<TableScanOp>(table.get());
    const Schema s = scan->output_schema();
    std::vector<AggregateDesc> aggs;
    aggs.push_back(CountStar("cnt"));
    aggs.push_back(Count(Col(s, "v"), "cnt_v"));
    aggs.push_back(Sum(Col(s, "v"), "sum_v"));
    aggs.push_back(Min(Col(s, "v"), "min_v"));
    aggs.push_back(Max(Col(s, "d"), "max_d"));
    return std::make_unique<HashGroupByOp>(
        std::move(scan), std::vector<int>{0}, std::move(aggs), dop);
  };

  auto serial = make_agg(1);
  ASSIGN_OR_FAIL(QueryResult expected, RunWithBatch(serial.get(), 1024));
  ASSERT_EQ(expected.rows.size(), 61u);
  for (const auto& [dop, batch] : tutil::DopBatchMatrix(false)) {
    auto par = make_agg(dop);
    ASSIGN_OR_FAIL(QueryResult got, RunWithBatch(par.get(), batch));
    tutil::ExpectSameSequence(got.rows, expected.rows,
                              "dop=" + std::to_string(dop) +
                                  " batch=" + std::to_string(batch));
  }
}

TEST(ParallelHashAggTest, SmallestFailingMorselsErrorWins) {
  // Over 2 x kParallelAggMinRows rows, so the input splits into three
  // 4,096-row morsels. Row 5000 (morsel 1) divides by zero in the SUM
  // argument; row 8500 (morsel 2) takes modulo by zero. The serial
  // streaming path hits row 5000 first, so every parallel run must too.
  const size_t n = 2 * HashGroupByOp::kParallelAggMinRows + 1000;
  std::vector<Row> rows;
  for (size_t i = 0; i < n; ++i) {
    const int64_t v = i == 5000 ? -1 : i == 8500 ? -2 : int64_t(i % 50);
    rows.push_back({Value::Int(int64_t(i % 31)), Value::Int(v),
                    Value::Double(0.5)});
  }
  auto table = MakeTable("t", GroupedSchema(), std::move(rows));
  auto make_agg = [&](size_t dop) {
    auto scan = std::make_unique<TableScanOp>(table.get());
    const Schema s = scan->output_schema();
    std::vector<AggregateDesc> aggs;
    aggs.push_back(CountStar("cnt"));
    aggs.push_back(Sum(TwoPoisonExpr(s), "poisoned"));
    return std::make_unique<HashGroupByOp>(
        std::move(scan), std::vector<int>{0}, std::move(aggs), dop);
  };

  auto serial = make_agg(1);
  Result<QueryResult> serial_r = RunWithBatch(serial.get(), 1024);
  ASSERT_FALSE(serial_r.ok());
  const std::string expected_error = serial_r.status().ToString();
  EXPECT_NE(expected_error.find("division by zero"), std::string::npos);

  for (size_t dop : {1u, 2u, 4u, 8u}) {
    for (size_t batch : {1u, 1024u}) {
      auto par = make_agg(dop);
      Result<QueryResult> r = RunWithBatch(par.get(), batch);
      ASSERT_FALSE(r.ok()) << "dop=" << dop << " batch=" << batch;
      EXPECT_EQ(r.status().ToString(), expected_error)
          << "dop=" << dop << " batch=" << batch;
    }
  }
}

TEST(ParallelHashAggTest, InexactAggsFallBackToSerialAndMatch) {
  // AVG partials re-associate float addition, so the exactness gate must
  // route this plan down the serial path — same results, any knob.
  Rng rng(52);
  auto table = MakeTable(
      "t", GroupedSchema(),
      RandomGroupedRows(&rng, HashGroupByOp::kParallelAggMinRows + 500, 19));
  auto make_agg = [&](size_t dop) {
    auto scan = std::make_unique<TableScanOp>(table.get());
    const Schema s = scan->output_schema();
    std::vector<AggregateDesc> aggs;
    aggs.push_back(Avg(Col(s, "d"), "avg_d"));
    aggs.push_back(Sum(Col(s, "d"), "sum_d"));  // double sum: also inexact
    return std::make_unique<HashGroupByOp>(
        std::move(scan), std::vector<int>{0}, std::move(aggs), dop);
  };
  auto serial = make_agg(1);
  ASSIGN_OR_FAIL(QueryResult expected, RunWithBatch(serial.get(), 1024));
  auto par = make_agg(8);
  ASSIGN_OR_FAIL(QueryResult got, RunWithBatch(par.get(), 1024));
  tutil::ExpectSameSequence(got.rows, expected.rows, "inexact-aggs");
}

TEST(ParallelHashAggTest, SmallInputStaysSerial) {
  Rng rng(53);
  auto table =
      MakeTable("t", GroupedSchema(), RandomGroupedRows(&rng, 200, 7));
  auto make_agg = [&](size_t dop) {
    auto scan = std::make_unique<TableScanOp>(table.get());
    const Schema s = scan->output_schema();
    std::vector<AggregateDesc> aggs;
    aggs.push_back(Sum(Col(s, "v"), "sum_v"));
    return std::make_unique<HashGroupByOp>(
        std::move(scan), std::vector<int>{0}, std::move(aggs), dop);
  };
  auto serial = make_agg(1);
  auto par = make_agg(8);
  ASSIGN_OR_FAIL(QueryResult expected, RunWithBatch(serial.get(), 1024));
  ASSIGN_OR_FAIL(QueryResult got, RunWithBatch(par.get(), 1024));
  tutil::ExpectSameSequence(got.rows, expected.rows, "small-input");
}

// ---------------------------------------------------------------------------
// Exchange nested under parallel GApply: both levels draw from task groups
// (transient pools here; the shared engine pool at the Database level) and
// the composition must stay deterministic.
// ---------------------------------------------------------------------------

TEST(ExchangeNestingTest, ExchangeFeedingParallelGApply) {
  Rng rng(61);
  auto table = MakeTable("t", GroupedSchema(),
                         RandomGroupedRows(&rng, 800, 13, 0.05));

  auto make_plan = [&](size_t exchange_dop, size_t gapply_dop) {
    auto scan = std::make_unique<TableScanOp>(table.get());
    const Schema gs = scan->output_schema();
    PhysOpPtr outer = std::move(scan);
    if (exchange_dop > 1) {
      outer = std::make_unique<ExchangeOp>(std::move(outer), exchange_dop,
                                           /*morsel_rows=*/64);
    }
    auto group_scan = std::make_unique<GroupScanOp>("g", gs);
    std::vector<AggregateDesc> aggs;
    aggs.push_back(CountStar("cnt"));
    aggs.push_back(Sum(Col(gs, "v"), "sum_v"));
    auto pgq = std::make_unique<ScalarAggOp>(std::move(group_scan),
                                             std::move(aggs));
    return std::make_unique<GApplyOp>(std::move(outer), std::vector<int>{0},
                                      "g", std::move(pgq),
                                      PartitionMode::kHash, gapply_dop);
  };

  auto serial = make_plan(1, 1);
  ASSIGN_OR_FAIL(QueryResult expected, RunWithBatch(serial.get(), 1024));
  ASSERT_EQ(expected.rows.size(), 13u);
  for (size_t ex_dop : {2u, 4u}) {
    for (size_t ga_dop : {2u, 4u}) {
      auto par = make_plan(ex_dop, ga_dop);
      ASSIGN_OR_FAIL(QueryResult got, RunWithBatch(par.get(), 1024));
      tutil::ExpectSameSequence(got.rows, expected.rows,
                                "exchange_dop=" + std::to_string(ex_dop) +
                                    " gapply_dop=" + std::to_string(ga_dop));
    }
  }
}

// ---------------------------------------------------------------------------
// End to end through the Database: SET parallelism drives Exchange
// insertion, the shared engine pool, and parallel join/agg — and the
// results must not move.
// ---------------------------------------------------------------------------

class ExchangeEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tpch::TpchConfig config;
    config.scale_factor = 0.005;
    ASSERT_TRUE(db_.LoadTpch(config).ok());
  }

  // Lowers the insertion gates so the ~0.005-scale tables morselize.
  QueryOptions ExchangeFriendly() {
    QueryOptions options;
    options.lowering.exchange_min_rows = 16;
    options.lowering.exchange_morsel_rows = 64;
    return options;
  }

  Database db_;
};

TEST_F(ExchangeEngineTest, SetParallelismKeepsResultsBitForBit) {
  const std::vector<std::string> queries = {
      "select ps_suppkey, count(*), sum(ps_availqty) from partsupp "
      "group by ps_suppkey",
      "select p_name, ps_availqty from partsupp, part "
      "where ps_partkey = p_partkey and ps_availqty > 100",
      "select gapply(select count(*) from g) "
      "from partsupp group by ps_suppkey : g",
  };
  for (const std::string& sql : queries) {
    ASSERT_TRUE(db_.Query("set parallelism = 1").ok());
    ASSIGN_OR_FAIL(QueryResult expected,
                   db_.Query(sql, ExchangeFriendly()));
    for (int dop : {2, 8}) {
      ASSERT_TRUE(
          db_.Query("set parallelism = " + std::to_string(dop)).ok());
      QueryStats stats;
      ASSIGN_OR_FAIL(QueryResult got,
                     db_.Query(sql, ExchangeFriendly(), &stats));
      tutil::ExpectSameSequence(got.rows, expected.rows,
                                "sql=" + sql + " dop=" + std::to_string(dop));
    }
  }
}

TEST_F(ExchangeEngineTest, ParallelPlanCountsExchangeRows) {
  ASSERT_TRUE(db_.Query("set parallelism = 4").ok());
  QueryOptions options = ExchangeFriendly();
  options.profile = true;  // the phase timers run only under profiling
  QueryStats stats;
  ASSIGN_OR_FAIL(
      QueryResult r,
      db_.Query("select ps_suppkey, sum(ps_availqty) from partsupp "
                "group by ps_suppkey",
                options, &stats));
  ASSERT_FALSE(r.rows.empty());
  // The rows the Exchange produced are its profile's rows_out.
  const std::function<uint64_t(const ProfileNode&)> exchange_rows =
      [&](const ProfileNode& node) {
        uint64_t rows = node.name.rfind("Exchange", 0) == 0
                            ? node.profile.rows_out()
                            : 0;
        for (const ProfileNode& child : node.children) {
          rows += exchange_rows(child);
        }
        return rows;
      };
  EXPECT_GT(exchange_rows(stats.profile), 0u);
  EXPECT_GT(stats.counters.exchange_partition_ns, 0u);
}

TEST_F(ExchangeEngineTest, ExplainShowsExchangeAndPerOperatorDop) {
  ASSERT_TRUE(db_.Query("set parallelism = 4").ok());
  ASSIGN_OR_FAIL(
      std::string plan,
      db_.Explain("select ps_suppkey, sum(ps_availqty) from partsupp "
                  "group by ps_suppkey",
                  ExchangeFriendly()));
  EXPECT_NE(plan.find("Exchange(dop=4"), std::string::npos) << plan;
  // The aggregation above the Exchange advertises its own DOP too.
  size_t dop_mentions = 0;
  for (size_t pos = plan.find("dop=4"); pos != std::string::npos;
       pos = plan.find("dop=4", pos + 1)) {
    ++dop_mentions;
  }
  EXPECT_GE(dop_mentions, 2u) << plan;
}

TEST_F(ExchangeEngineTest, SerialSessionNeverInsertsExchange) {
  ASSERT_TRUE(db_.Query("set parallelism = 1").ok());
  ASSIGN_OR_FAIL(
      std::string plan,
      db_.Explain("select ps_suppkey, sum(ps_availqty) from partsupp "
                  "group by ps_suppkey",
                  ExchangeFriendly()));
  EXPECT_EQ(plan.find("Exchange"), std::string::npos) << plan;
}

}  // namespace
}  // namespace gapply
