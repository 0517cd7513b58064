#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "src/exec/agg_ops.h"
#include "src/exec/apply_ops.h"
#include "src/exec/filter_project_ops.h"
#include "src/exec/join_ops.h"
#include "src/exec/scan_ops.h"
#include "src/expr/aggregate.h"
#include "src/expr/expr.h"
#include "tests/test_util.h"

namespace gapply {
namespace {

using tutil::ExpectRows;
using tutil::GroupedSchema;
using tutil::MakeTable;
using tutil::RunPlan;

std::unique_ptr<Table> SmallTable() {
  return MakeTable("t", GroupedSchema(),
                   {{Value::Int(1), Value::Int(10), Value::Double(1.5)},
                    {Value::Int(1), Value::Int(20), Value::Double(2.5)},
                    {Value::Int(2), Value::Int(30), Value::Double(3.5)},
                    {Value::Int(2), Value::Null(), Value::Double(4.5)},
                    {Value::Int(3), Value::Int(50), Value::Double(5.5)}});
}

TEST(TableScanTest, ScansAllRowsAndCounts) {
  auto table = SmallTable();
  TableScanOp scan(table.get());
  ExecContext ctx;
  auto result = ExecuteToVector(&scan, &ctx);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 5u);
  EXPECT_EQ(SumWorkCounters(scan).rows_scanned, 5u);
  EXPECT_EQ(result->schema.column(0).FullName(), "t.k");
}

TEST(TableScanTest, AliasRequalifiesSchema) {
  auto table = SmallTable();
  TableScanOp scan(table.get(), "x");
  EXPECT_EQ(scan.output_schema().column(0).FullName(), "x.k");
}

TEST(TableScanTest, ReopenRescans) {
  auto table = SmallTable();
  TableScanOp scan(table.get());
  ExecContext ctx;
  ASSERT_TRUE(ExecuteToVector(&scan, &ctx).ok());
  auto again = ExecuteToVector(&scan, &ctx);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->rows.size(), 5u);
}

TEST(FilterTest, KeepsMatchingRows) {
  auto table = SmallTable();
  const Schema& s = table->schema();
  FilterOp filter(std::make_unique<TableScanOp>(table.get()),
                  Gt(Col(s, "v"), Lit(int64_t{15})));
  QueryResult r = RunPlan(&filter);
  EXPECT_EQ(r.rows.size(), 3u);  // 20, 30, 50; NULL row rejected
}

TEST(FilterTest, NullPredicateRejects) {
  auto table = SmallTable();
  const Schema& s = table->schema();
  // v > NULL is UNKNOWN for every row → empty result.
  FilterOp filter(std::make_unique<TableScanOp>(table.get()),
                  Gt(Col(s, "v"), Lit(Value::Null())));
  EXPECT_TRUE(RunPlan(&filter).rows.empty());
}

TEST(FilterTest, TypeErrorSurfaces) {
  auto table = SmallTable();
  const Schema& s = table->schema();
  FilterOp filter(std::make_unique<TableScanOp>(table.get()),
                  Binary(BinaryOp::kAdd, Col(s, "v"), Lit(int64_t{1})));
  ExecContext ctx;
  auto result = ExecuteToVector(&filter, &ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kTypeError);
}

TEST(ProjectTest, ComputesExpressions) {
  auto table = SmallTable();
  const Schema& s = table->schema();
  std::vector<ExprPtr> exprs;
  exprs.push_back(Col(s, "k"));
  exprs.push_back(Binary(BinaryOp::kMultiply, Col(s, "d"), Lit(2.0)));
  auto project = ProjectOp::Make(std::make_unique<TableScanOp>(table.get()),
                                 std::move(exprs), {"k", "d2"});
  ASSERT_TRUE(project.ok());
  QueryResult r = RunPlan(project->get());
  ASSERT_EQ(r.schema.num_columns(), 2u);
  EXPECT_EQ(r.schema.column(1).name, "d2");
  EXPECT_EQ(r.schema.column(1).type, TypeId::kDouble);
  EXPECT_DOUBLE_EQ(r.rows[0][1].double_val(), 3.0);
}

TEST(ProjectTest, MismatchedNamesRejected) {
  auto table = SmallTable();
  std::vector<ExprPtr> exprs;
  exprs.push_back(Col(table->schema(), "k"));
  EXPECT_FALSE(ProjectOp::Make(std::make_unique<TableScanOp>(table.get()),
                               std::move(exprs), {"a", "b"})
                   .ok());
}

TEST(SortTest, OrdersWithNullsFirst) {
  auto table = SmallTable();
  SortOp sort(std::make_unique<TableScanOp>(table.get()),
              {{1, /*ascending=*/true}});
  QueryResult r = RunPlan(&sort);
  ASSERT_EQ(r.rows.size(), 5u);
  EXPECT_TRUE(r.rows[0][1].is_null());
  EXPECT_EQ(r.rows[1][1].int_val(), 10);
  EXPECT_EQ(r.rows[4][1].int_val(), 50);
}

TEST(SortTest, DescendingAndMultiKey) {
  auto table = SmallTable();
  SortOp sort(std::make_unique<TableScanOp>(table.get()),
              {{0, false}, {1, true}});
  QueryResult r = RunPlan(&sort);
  EXPECT_EQ(r.rows[0][0].int_val(), 3);
  EXPECT_EQ(r.rows[1][0].int_val(), 2);
  EXPECT_TRUE(r.rows[1][1].is_null());  // NULL first within key 2
}

TEST(HashJoinTest, InnerEquiJoin) {
  auto left = MakeTable(
      "l", Schema({{"id", TypeId::kInt64, "l"}, {"x", TypeId::kString, "l"}}),
      {{Value::Int(1), Value::Str("a")},
       {Value::Int(2), Value::Str("b")},
       {Value::Int(2), Value::Str("c")},
       {Value::Int(9), Value::Str("z")}});
  auto right = MakeTable(
      "r", Schema({{"id", TypeId::kInt64, "r"}, {"y", TypeId::kString, "r"}}),
      {{Value::Int(1), Value::Str("p")}, {Value::Int(2), Value::Str("q")}});
  HashJoinOp join(std::make_unique<TableScanOp>(left.get()),
                  std::make_unique<TableScanOp>(right.get()), {0}, {0});
  ExpectRows(&join, {{Value::Int(1), Value::Str("a"), Value::Int(1),
                      Value::Str("p")},
                     {Value::Int(2), Value::Str("b"), Value::Int(2),
                      Value::Str("q")},
                     {Value::Int(2), Value::Str("c"), Value::Int(2),
                      Value::Str("q")}});
}

TEST(HashJoinTest, NullKeysNeverMatch) {
  Schema s({{"id", TypeId::kInt64, "t"}});
  auto left = MakeTable("l", s, {{Value::Null()}, {Value::Int(1)}});
  auto right = MakeTable("r", s, {{Value::Null()}, {Value::Int(1)}});
  HashJoinOp join(std::make_unique<TableScanOp>(left.get()),
                  std::make_unique<TableScanOp>(right.get()), {0}, {0});
  ExpectRows(&join, {{Value::Int(1), Value::Int(1)}});
}

TEST(HashJoinTest, ResidualPredicateFilters) {
  Schema s({{"id", TypeId::kInt64, "t"}, {"v", TypeId::kInt64, "t"}});
  auto left = MakeTable("l", s, {{Value::Int(1), Value::Int(10)},
                                 {Value::Int(1), Value::Int(20)}});
  auto right = MakeTable("r", s, {{Value::Int(1), Value::Int(15)}});
  auto ls = std::make_unique<TableScanOp>(left.get());
  auto rs = std::make_unique<TableScanOp>(right.get());
  Schema joined = Schema::Concat(ls->output_schema(), rs->output_schema());
  // l.v < r.v
  HashJoinOp join(std::move(ls), std::move(rs), {0}, {0},
                  Lt(Col(joined, 1), Col(joined, 3)));
  ExpectRows(&join, {{Value::Int(1), Value::Int(10), Value::Int(1),
                      Value::Int(15)}});
}

TEST(NestedLoopJoinTest, MatchesHashJoinOnEquiPredicate) {
  auto left = SmallTable();
  auto right = SmallTable();
  auto ls = std::make_unique<TableScanOp>(left.get(), "a");
  auto rs = std::make_unique<TableScanOp>(right.get(), "b");
  Schema joined = Schema::Concat(ls->output_schema(), rs->output_schema());
  NestedLoopJoinOp nlj(std::move(ls), std::move(rs),
                       Eq(Col(joined, 0), Col(joined, 3)));
  HashJoinOp hj(std::make_unique<TableScanOp>(left.get(), "a"),
                std::make_unique<TableScanOp>(right.get(), "b"), {0}, {0});
  QueryResult r1 = RunPlan(&nlj);
  QueryResult r2 = RunPlan(&hj);
  EXPECT_TRUE(SameRowMultiset(r1.rows, r2.rows));
  EXPECT_EQ(r1.rows.size(), 9u);  // 2*2 + 2*2 + 1
}

TEST(NestedLoopJoinTest, NullPredicateIsCrossProduct) {
  Schema s({{"v", TypeId::kInt64, "t"}});
  auto left = MakeTable("l", s, {{Value::Int(1)}, {Value::Int(2)}});
  auto right = MakeTable("r", s, {{Value::Int(3)}, {Value::Int(4)}});
  NestedLoopJoinOp join(std::make_unique<TableScanOp>(left.get()),
                        std::make_unique<TableScanOp>(right.get()), nullptr);
  EXPECT_EQ(RunPlan(&join).rows.size(), 4u);
}

TEST(HashGroupByTest, GroupsAndAggregates) {
  auto table = SmallTable();
  const Schema& s = table->schema();
  std::vector<AggregateDesc> aggs;
  aggs.push_back(CountStar("cnt"));
  aggs.push_back(Sum(Col(s, "v"), "sum_v"));
  aggs.push_back(Avg(Col(s, "d"), "avg_d"));
  HashGroupByOp gb(std::make_unique<TableScanOp>(table.get()), {0},
                   std::move(aggs));
  ExpectRows(&gb,
             {{Value::Int(1), Value::Int(2), Value::Int(30), Value::Double(2.0)},
              {Value::Int(2), Value::Int(2), Value::Int(30), Value::Double(4.0)},
              {Value::Int(3), Value::Int(1), Value::Int(50), Value::Double(5.5)}});
}

TEST(HashGroupByTest, CountIgnoresNullsCountStarDoesNot) {
  auto table = SmallTable();
  const Schema& s = table->schema();
  std::vector<AggregateDesc> aggs;
  aggs.push_back(CountStar("cstar"));
  aggs.push_back(Count(Col(s, "v"), "cv"));
  HashGroupByOp gb(std::make_unique<TableScanOp>(table.get()), {0},
                   std::move(aggs));
  ExpectRows(&gb, {{Value::Int(1), Value::Int(2), Value::Int(2)},
                   {Value::Int(2), Value::Int(2), Value::Int(1)},
                   {Value::Int(3), Value::Int(1), Value::Int(1)}});
}

TEST(ScalarAggTest, EmptyInputYieldsOneRow) {
  Schema s({{"v", TypeId::kInt64, "t"}});
  auto table = MakeTable("t", s, {});
  std::vector<AggregateDesc> aggs;
  aggs.push_back(CountStar("cnt"));
  aggs.push_back(Sum(Col(s, "v"), "sum_v"));
  aggs.push_back(Avg(Col(s, "v"), "avg_v"));
  aggs.push_back(Min(Col(s, "v"), "min_v"));
  ScalarAggOp agg(std::make_unique<TableScanOp>(table.get()),
                  std::move(aggs));
  QueryResult r = RunPlan(&agg);
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].int_val(), 0);     // count(*) = 0
  EXPECT_TRUE(r.rows[0][1].is_null());      // sum NULL
  EXPECT_TRUE(r.rows[0][2].is_null());      // avg NULL
  EXPECT_TRUE(r.rows[0][3].is_null());      // min NULL
}

TEST(ScalarAggTest, DistinctAggregation) {
  Schema s({{"v", TypeId::kInt64, "t"}});
  auto table = MakeTable(
      "t", s, {{Value::Int(1)}, {Value::Int(1)}, {Value::Int(2)}});
  std::vector<AggregateDesc> aggs;
  aggs.push_back(Count(Col(s, "v"), "cd", /*distinct=*/true));
  aggs.push_back(Sum(Col(s, "v"), "sum_all"));
  ScalarAggOp agg(std::make_unique<TableScanOp>(table.get()),
                  std::move(aggs));
  ExpectRows(&agg, {{Value::Int(2), Value::Int(4)}});
}

TEST(DistinctTest, RemovesDuplicatesIncludingNulls) {
  Schema s({{"v", TypeId::kInt64, "t"}});
  auto table = MakeTable("t", s,
                         {{Value::Int(1)},
                          {Value::Null()},
                          {Value::Int(1)},
                          {Value::Null()},
                          {Value::Int(2)}});
  DistinctOp distinct(std::make_unique<TableScanOp>(table.get()));
  ExpectRows(&distinct, {{Value::Int(1)}, {Value::Null()}, {Value::Int(2)}});
}

TEST(UnionAllTest, ConcatenatesBranches) {
  Schema s({{"v", TypeId::kInt64, "t"}});
  auto t1 = MakeTable("a", s, {{Value::Int(1)}});
  auto t2 = MakeTable("b", s, {{Value::Int(2)}, {Value::Int(3)}});
  std::vector<PhysOpPtr> branches;
  branches.push_back(std::make_unique<TableScanOp>(t1.get()));
  branches.push_back(std::make_unique<TableScanOp>(t2.get()));
  auto u = UnionAllOp::Make(std::move(branches));
  ASSERT_TRUE(u.ok());
  ExpectRows(u->get(), {{Value::Int(1)}, {Value::Int(2)}, {Value::Int(3)}});
}

TEST(UnionAllTest, NullColumnsUnifyWithTyped) {
  // The sorted-outer-union pattern: one branch projects NULL where the other
  // has data.
  Schema s1({{"a", TypeId::kInt64, ""}, {"b", TypeId::kNull, ""}});
  Schema s2({{"a", TypeId::kNull, ""}, {"b", TypeId::kDouble, ""}});
  auto t1 = MakeTable("x", s1, {{Value::Int(1), Value::Null()}});
  auto t2 = MakeTable("y", s2, {{Value::Null(), Value::Double(2.5)}});
  std::vector<PhysOpPtr> branches;
  branches.push_back(std::make_unique<TableScanOp>(t1.get()));
  branches.push_back(std::make_unique<TableScanOp>(t2.get()));
  auto u = UnionAllOp::Make(std::move(branches));
  ASSERT_TRUE(u.ok());
  EXPECT_EQ((*u)->output_schema().column(0).type, TypeId::kInt64);
  EXPECT_EQ((*u)->output_schema().column(1).type, TypeId::kDouble);
  EXPECT_EQ(RunPlan(u->get()).rows.size(), 2u);
}

TEST(UnionAllTest, IncompatibleBranchesRejected) {
  auto t1 = MakeTable("x", Schema({{"a", TypeId::kInt64, ""}}),
                      {{Value::Int(1)}});
  auto t2 = MakeTable("y", Schema({{"a", TypeId::kString, ""}}),
                      {{Value::Str("s")}});
  std::vector<PhysOpPtr> branches;
  branches.push_back(std::make_unique<TableScanOp>(t1.get()));
  branches.push_back(std::make_unique<TableScanOp>(t2.get()));
  EXPECT_FALSE(UnionAllOp::Make(std::move(branches)).ok());
}

TEST(ApplyTest, CorrelatedScalarSubquery) {
  // For each row of l, compute sum(r.v) over rows of r with r.k = l.k.
  Schema s({{"k", TypeId::kInt64, "t"}, {"v", TypeId::kInt64, "t"}});
  auto l = MakeTable("l", s, {{Value::Int(1), Value::Int(0)},
                              {Value::Int(2), Value::Int(0)},
                              {Value::Int(3), Value::Int(0)}});
  auto r = MakeTable("r", s, {{Value::Int(1), Value::Int(10)},
                              {Value::Int(1), Value::Int(20)},
                              {Value::Int(2), Value::Int(5)}});

  // Inner: ScalarAgg(sum v) over Filter(r.k = outer.k, Scan(r)).
  auto r_scan = std::make_unique<TableScanOp>(r.get());
  ExprPtr corr = std::make_unique<CorrelatedColumnRefExpr>(
      0, 0, TypeId::kInt64, "l.k");
  auto filter = std::make_unique<FilterOp>(
      std::move(r_scan), Eq(Col(s, "k"), std::move(corr)));
  std::vector<AggregateDesc> aggs;
  aggs.push_back(Sum(Col(s, "v"), "s"));
  auto inner = std::make_unique<ScalarAggOp>(std::move(filter),
                                             std::move(aggs));

  ApplyOp apply(std::make_unique<TableScanOp>(l.get()), std::move(inner));
  ExpectRows(&apply, {{Value::Int(1), Value::Int(0), Value::Int(30)},
                      {Value::Int(2), Value::Int(0), Value::Int(5)},
                      {Value::Int(3), Value::Int(0), Value::Null()}});
}

TEST(ApplyTest, ExistsSemijoin) {
  Schema s({{"k", TypeId::kInt64, "t"}});
  auto l = MakeTable("l", s, {{Value::Int(1)}, {Value::Int(2)}});
  auto r = MakeTable("r", s, {{Value::Int(2)}});

  ExprPtr corr =
      std::make_unique<CorrelatedColumnRefExpr>(0, 0, TypeId::kInt64, "l.k");
  auto inner = std::make_unique<ExistsOp>(std::make_unique<FilterOp>(
      std::make_unique<TableScanOp>(r.get()),
      Eq(Col(s, "k"), std::move(corr))));
  ApplyOp apply(std::make_unique<TableScanOp>(l.get()), std::move(inner));
  // Exists has a null schema: S x {phi} = S.
  EXPECT_EQ(apply.output_schema().num_columns(), 1u);
  ExpectRows(&apply, {{Value::Int(2)}});
}

TEST(ApplyTest, NotExistsAntijoin) {
  Schema s({{"k", TypeId::kInt64, "t"}});
  auto l = MakeTable("l", s, {{Value::Int(1)}, {Value::Int(2)}});
  auto r = MakeTable("r", s, {{Value::Int(2)}});
  ExprPtr corr =
      std::make_unique<CorrelatedColumnRefExpr>(0, 0, TypeId::kInt64, "l.k");
  auto inner = std::make_unique<ExistsOp>(
      std::make_unique<FilterOp>(std::make_unique<TableScanOp>(r.get()),
                                 Eq(Col(s, "k"), std::move(corr))),
      /*negated=*/true);
  ApplyOp apply(std::make_unique<TableScanOp>(l.get()), std::move(inner));
  ExpectRows(&apply, {{Value::Int(1)}});
}

TEST(ApplyTest, UncorrelatedInnerIsCrossProduct) {
  Schema s({{"v", TypeId::kInt64, "t"}});
  auto l = MakeTable("l", s, {{Value::Int(1)}, {Value::Int(2)}});
  auto r = MakeTable("r", s, {{Value::Int(7)}, {Value::Int(8)}});
  ApplyOp apply(std::make_unique<TableScanOp>(l.get()),
                std::make_unique<TableScanOp>(r.get()));
  EXPECT_EQ(RunPlan(&apply).rows.size(), 4u);
}

}  // namespace
}  // namespace gapply
