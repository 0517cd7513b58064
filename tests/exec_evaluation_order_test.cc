// Evaluation-order tests: EXISTS stops at the first qualifying row, so the
// operators below it must not evaluate rows past it. Each query below
// divides by zero on a row that only a full evaluation of the EXISTS input
// reaches; it must succeed at every batch size and DOP. Lowering keeps an
// EXISTS input serial at any DOP; the operator-level HashJoin test runs a
// parallel hash build under EXISTS. A join whose build key is sorted is a
// LookupJoin; the bu table keeps the HashJoin query on an unsorted key.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/engine/database.h"
#include "src/exec/apply_ops.h"
#include "src/exec/filter_project_ops.h"
#include "src/exec/join_ops.h"
#include "src/exec/scan_ops.h"
#include "src/expr/expr.h"
#include "tests/test_util.h"

namespace gapply {
namespace {

class EvaluationOrderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // o: the outer rows. a's row matches both of b's rows on its key: the
    // hash join enumerates the y = 4 match first and the nested-loops join
    // the y = 5 one, and each query divides by zero on the other. c drives
    // the correlated subquery: its second row (ck = x) divides by zero.
    AddTable("o", {{"ok", TypeId::kInt64, "o"}},
             {{Value::Int(1)}, {Value::Int(2)}});
    AddTable("a",
             {{"ak", TypeId::kInt64, "a"}, {"x", TypeId::kInt64, "a"}},
             {{Value::Int(1), Value::Int(5)}});
    AddTable("b",
             {{"bk", TypeId::kInt64, "b"}, {"y", TypeId::kInt64, "b"}},
             {{Value::Int(1), Value::Int(5)}, {Value::Int(1), Value::Int(4)}});
    // bu: b's two rows around an unmatched one, so its key is unsorted and
    // lowering keeps the hash join (b's sorted key is looked up).
    AddTable("bu",
             {{"bk", TypeId::kInt64, "bu"}, {"y", TypeId::kInt64, "bu"}},
             {{Value::Int(1), Value::Int(5)},
              {Value::Int(2), Value::Int(0)},
              {Value::Int(1), Value::Int(4)}});
    AddTable("c", {{"ck", TypeId::kInt64, "c"}},
             {{Value::Int(1)}, {Value::Int(5)}});
    // bb: b's two rows followed by unmatched filler, enough rows for
    // HashJoin's parallel build.
    std::vector<Row> bb_rows = {{Value::Int(1), Value::Int(5)},
                                {Value::Int(1), Value::Int(4)}};
    for (int64_t k = 2; bb_rows.size() < HashJoinOp::kParallelBuildMinRows;
         ++k) {
      bb_rows.push_back({Value::Int(k), Value::Int(0)});
    }
    AddTable("bb",
             {{"bk", TypeId::kInt64, "bb"}, {"y", TypeId::kInt64, "bb"}},
             std::move(bb_rows));
    ASSERT_TRUE(db_.Analyze().ok());
  }

  void AddTable(const std::string& name, std::vector<Column> columns,
                std::vector<Row> rows) {
    Status st = db_.catalog()->AddTable(
        tutil::MakeTable(name, Schema(std::move(columns)), std::move(rows)));
    ASSERT_TRUE(st.ok()) << st.ToString();
  }

  // Runs `sql` at batch {1, 3, 1024} x DOP {1, 4}; every run must succeed
  // with `expected_rows` rows, and the plan must contain `op`.
  void ExpectSucceedsEverywhere(const std::string& sql, const std::string& op,
                                size_t expected_rows) {
    Result<std::string> plan = db_.Explain(sql);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_NE(plan->find(op), std::string::npos) << *plan;
    for (size_t batch : {size_t{1}, size_t{3}, size_t{1024}}) {
      for (size_t dop : {size_t{1}, size_t{4}}) {
        QueryOptions options;
        options.batch_size = batch;
        options.lowering.gapply_parallelism = dop;
        options.lowering.exchange_parallelism = dop;
        options.lowering.exchange_min_rows = 1;
        Result<QueryResult> r = db_.Query(sql, options);
        ASSERT_TRUE(r.ok()) << "batch=" << batch << " dop=" << dop << ": "
                            << r.status().ToString();
        EXPECT_EQ(r->rows.size(), expected_rows)
            << "batch=" << batch << " dop=" << dop;
      }
    }
  }

  Database db_;
};

TEST_F(EvaluationOrderTest, ExistsOverHashJoinResidual) {
  ExpectSucceedsEverywhere(
      "select ok from o where exists (select ak from a, bu "
      "where ak = bk and 10 / (x - y) > 1)",
      "HashJoin", 2);
}

TEST_F(EvaluationOrderTest, ExistsOverLookupJoinResidual) {
  // b's key [1, 1] is sorted: the lookup join emits the run from its last
  // row, the y = 4 match first, just as the hash join does.
  ExpectSucceedsEverywhere(
      "select ok from o where exists (select ak from a, b "
      "where ak = bk and 10 / (x - y) > 1)",
      "LookupJoin", 2);
}

TEST_F(EvaluationOrderTest, ExistsOverNestedLoopJoin) {
  ExpectSucceedsEverywhere(
      "select ok from o where exists (select ak from a, b "
      "where 10 / (y - x + 1) > 1)",
      "NestedLoopJoin", 2);
}

TEST_F(EvaluationOrderTest, ExistsOverCorrelatedApply) {
  // The scalar subquery is correlated on c's row: 10 / (5 - 1) for the
  // first, 10 / (5 - 5) for the second.
  ExpectSucceedsEverywhere(
      "select ok from o where exists (select ck from c "
      "where (select max(10 / (x - ck)) from a where ak = 1) > 1)",
      "Apply", 2);
}

TEST_F(EvaluationOrderTest, ExistsOverHashJoinResidualOperator) {
  // The same join with the division as the HashJoin's own residual. Over
  // bb, DOP 4 builds the hash table in parallel.
  const Table* a = *db_.catalog()->GetTable("a");
  const Table* o = *db_.catalog()->GetTable("o");
  for (const char* build_table : {"b", "bb"}) {
    const Table* b = *db_.catalog()->GetTable(build_table);
    for (size_t batch : {size_t{1}, size_t{3}, size_t{1024}}) {
      for (size_t dop : {size_t{1}, size_t{4}}) {
        auto probe = std::make_unique<TableScanOp>(a);
        auto build = std::make_unique<TableScanOp>(b);
        const Schema joined =
            Schema::Concat(probe->output_schema(), build->output_schema());
        ExprPtr residual = Gt(
            Binary(BinaryOp::kDivide, Lit(int64_t{10}),
                   Binary(BinaryOp::kSubtract, Col(joined, "x"),
                          Col(joined, "y"))),
            Lit(int64_t{1}));
        auto join = std::make_unique<HashJoinOp>(
            std::move(probe), std::move(build), std::vector<int>{0},
            std::vector<int>{0}, std::move(residual), dop);
        ApplyOp plan(std::make_unique<TableScanOp>(o),
                     std::make_unique<ExistsOp>(std::move(join)),
                     /*cache_uncorrelated_inner=*/true);
        ExecContext ctx;
        ctx.set_batch_size(batch);
        Result<QueryResult> r = ExecuteToVector(&plan, &ctx);
        ASSERT_TRUE(r.ok()) << build_table << " batch=" << batch
                            << " dop=" << dop << ": "
                            << r.status().ToString();
        EXPECT_EQ(r->rows.size(), 2u);
      }
    }
  }
}

TEST_F(EvaluationOrderTest, ExistsOverCorrelatedApplyOperator) {
  // Apply whose inner yields several rows per outer row: b's rows filtered
  // on 10 / (y - outer x + 1), which divides by zero on b's second row.
  const Table* a = *db_.catalog()->GetTable("a");
  const Table* b = *db_.catalog()->GetTable("b");
  const Table* o = *db_.catalog()->GetTable("o");
  for (size_t batch : {size_t{1}, size_t{3}, size_t{1024}}) {
    auto inner_scan = std::make_unique<TableScanOp>(b);
    const Schema bs = inner_scan->output_schema();
    ExprPtr outer_x =
        std::make_unique<CorrelatedColumnRefExpr>(0, 1, TypeId::kInt64, "x");
    ExprPtr pred = Gt(
        Binary(BinaryOp::kDivide, Lit(int64_t{10}),
               Binary(BinaryOp::kAdd,
                      Binary(BinaryOp::kSubtract, Col(bs, "y"),
                             std::move(outer_x)),
                      Lit(int64_t{1}))),
        Lit(int64_t{1}));
    auto apply = std::make_unique<ApplyOp>(
        std::make_unique<TableScanOp>(a),
        std::make_unique<FilterOp>(std::move(inner_scan), std::move(pred)));
    ApplyOp plan(std::make_unique<TableScanOp>(o),
                 std::make_unique<ExistsOp>(std::move(apply)),
                 /*cache_uncorrelated_inner=*/true);
    ExecContext ctx;
    ctx.set_batch_size(batch);
    Result<QueryResult> r = ExecuteToVector(&plan, &ctx);
    ASSERT_TRUE(r.ok()) << "batch=" << batch << ": " << r.status().ToString();
    EXPECT_EQ(r->rows.size(), 2u);
  }
}

}  // namespace
}  // namespace gapply
