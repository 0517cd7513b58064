#include <gtest/gtest.h>

#include <memory>

#include "src/exec/agg_ops.h"
#include "src/exec/apply_ops.h"
#include "src/exec/filter_project_ops.h"
#include "src/exec/gapply_op.h"
#include "src/exec/scan_ops.h"
#include "tests/test_util.h"

namespace gapply {
namespace {

using tutil::GroupedSchema;
using tutil::MakeTable;
using tutil::RunPlan;

TEST(ExecEdgeCases, GroupScanWithoutBindingFails) {
  GroupScanOp scan("nope", GroupedSchema());
  ExecContext ctx;
  Status st = scan.Open(&ctx);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
}

TEST(ExecEdgeCases, GroupScanArityMismatchDetected) {
  GroupScanOp scan("g", GroupedSchema());
  ExecContext ctx;
  Schema narrow({{"k", TypeId::kInt64, "t"}});
  std::vector<Row> rows;
  ctx.BindGroup("g", &narrow, &rows);
  EXPECT_FALSE(scan.Open(&ctx).ok());
}

TEST(ExecEdgeCases, UnbindWithoutBindIsInternalError) {
  ExecContext ctx;
  EXPECT_FALSE(ctx.UnbindGroup("ghost").ok());
}

TEST(ExecEdgeCases, GroupBindingShadowsByName) {
  ExecContext ctx;
  Schema s = GroupedSchema();
  std::vector<Row> outer_rows{{Value::Int(1), Value::Int(1), Value::Double(1)}};
  std::vector<Row> inner_rows{{Value::Int(2), Value::Int(2), Value::Double(2)}};
  ctx.BindGroup("g", &s, &outer_rows);
  ctx.BindGroup("g", &s, &inner_rows);
  ASSERT_TRUE(ctx.GetGroup("g").ok());
  EXPECT_EQ(ctx.GetGroup("g")->rows, inner_rows.data());
  ASSERT_TRUE(ctx.UnbindGroup("g").ok());
  EXPECT_EQ(ctx.GetGroup("g")->rows, outer_rows.data());
}

TEST(ExecEdgeCases, SortOnEmptyInput) {
  auto table = MakeTable("t", GroupedSchema(), {});
  SortOp sort(std::make_unique<TableScanOp>(table.get()), {{0, true}});
  EXPECT_TRUE(RunPlan(&sort).rows.empty());
}

TEST(ExecEdgeCases, UnionAllReopens) {
  Schema s({{"v", TypeId::kInt64, "t"}});
  auto t1 = MakeTable("a", s, {{Value::Int(1)}});
  auto t2 = MakeTable("b", s, {{Value::Int(2)}});
  std::vector<PhysOpPtr> branches;
  branches.push_back(std::make_unique<TableScanOp>(t1.get()));
  branches.push_back(std::make_unique<TableScanOp>(t2.get()));
  auto u = UnionAllOp::Make(std::move(branches));
  ASSERT_TRUE(u.ok());
  // Run twice through the same operator: Open must fully reset.
  EXPECT_EQ(RunPlan(u->get()).rows.size(), 2u);
  EXPECT_EQ(RunPlan(u->get()).rows.size(), 2u);
}

TEST(ExecEdgeCases, GApplyReopensCleanly) {
  Rng rng(21);
  auto table = MakeTable("t", GroupedSchema(),
                         tutil::RandomGroupedRows(&rng, 60, 6));
  auto outer = std::make_unique<TableScanOp>(table.get());
  const Schema gs = outer->output_schema();
  std::vector<AggregateDesc> aggs;
  aggs.push_back(CountStar("c"));
  auto pgq = std::make_unique<ScalarAggOp>(
      std::make_unique<GroupScanOp>("g", gs), std::move(aggs));
  GApplyOp op(std::move(outer), {0}, "g", std::move(pgq));
  QueryResult first = RunPlan(&op);
  QueryResult second = RunPlan(&op);
  EXPECT_TRUE(SameRowMultiset(first.rows, second.rows));
  EXPECT_EQ(first.rows.size(), 6u);
}

TEST(ExecEdgeCases, GApplyAsApplyInnerReExecutesPerOuterRow) {
  // Apply whose inner is a whole GApply over a base table: the GApply must
  // re-open (re-partition) every time without state leakage.
  Schema s({{"v", TypeId::kInt64, "t"}});
  auto l = MakeTable("l", s, {{Value::Int(10)}, {Value::Int(20)}});
  auto r = MakeTable("r", GroupedSchema(),
                     {{Value::Int(1), Value::Int(1), Value::Double(1)},
                      {Value::Int(1), Value::Int(2), Value::Double(2)},
                      {Value::Int(2), Value::Int(3), Value::Double(3)}});

  auto gapply_outer = std::make_unique<TableScanOp>(r.get());
  const Schema gs = gapply_outer->output_schema();
  std::vector<AggregateDesc> aggs;
  aggs.push_back(Sum(Col(gs, "v"), "s"));
  auto inner_gapply = std::make_unique<GApplyOp>(
      std::move(gapply_outer), std::vector<int>{0}, "g",
      std::make_unique<ScalarAggOp>(std::make_unique<GroupScanOp>("g", gs),
                                    std::move(aggs)));
  ApplyOp apply(std::make_unique<TableScanOp>(l.get()),
                std::move(inner_gapply));
  QueryResult result = RunPlan(&apply);
  // 2 outer rows × 2 groups each.
  EXPECT_EQ(result.rows.size(), 4u);
}

TEST(ExecEdgeCases, ScalarSubqueryErrorPropagatesThroughApply) {
  // Inner plan raising a type error mid-stream must surface, not crash.
  Schema s({{"v", TypeId::kInt64, "t"}, {"w", TypeId::kString, "t"}});
  auto l = MakeTable("l", s, {{Value::Int(1), Value::Str("a")}});
  auto r = MakeTable("r", s, {{Value::Int(1), Value::Str("b")}});
  auto inner = std::make_unique<FilterOp>(
      std::make_unique<TableScanOp>(r.get()),
      Binary(BinaryOp::kAdd, Col(s, "w"), Lit(int64_t{1})));  // string + int
  ApplyOp apply(std::make_unique<TableScanOp>(l.get()), std::move(inner));
  ExecContext ctx;
  auto result = ExecuteToVector(&apply, &ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kTypeError);
}

TEST(ExecEdgeCases, CachedApplyRecomputesPerOpen) {
  // The uncorrelated-inner cache must be per-execution: mutate nothing, but
  // verify two runs of the same operator agree (cache cleared on Open).
  Schema s({{"v", TypeId::kInt64, "t"}});
  auto l = MakeTable("l", s, {{Value::Int(1)}, {Value::Int(2)}});
  auto r = MakeTable("r", s, {{Value::Int(7)}});
  ApplyOp apply(std::make_unique<TableScanOp>(l.get()),
                std::make_unique<TableScanOp>(r.get()),
                /*cache_uncorrelated_inner=*/true);
  ExecContext ctx;
  auto r1 = ExecuteToVector(&apply, &ctx);
  ASSERT_TRUE(r1.ok());
  const uint64_t invocations_after_first =
      SumWorkCounters(apply).apply_invocations;
  EXPECT_EQ(invocations_after_first, 1u);  // inner ran once, not per row
  auto r2 = ExecuteToVector(&apply, &ctx);
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(SameRowMultiset(r1->rows, r2->rows));
  EXPECT_EQ(SumWorkCounters(apply).apply_invocations,
            2u);  // once more per Open
}

TEST(ExecEdgeCases, DistinctOnZeroColumnRows) {
  // Exists produces zero-column rows; Distinct over them must collapse to
  // at most one row.
  Schema s({{"v", TypeId::kInt64, "t"}});
  auto t = MakeTable("t", s, {{Value::Int(1)}, {Value::Int(2)}});
  auto exists = std::make_unique<ExistsOp>(
      std::make_unique<TableScanOp>(t.get()));
  DistinctOp distinct(std::move(exists));
  EXPECT_EQ(RunPlan(&distinct).rows.size(), 1u);
}

TEST(ExecEdgeCases, QueryResultToStringTruncates) {
  Schema s({{"v", TypeId::kInt64, "t"}});
  QueryResult r;
  r.schema = s;
  for (int i = 0; i < 10; ++i) r.rows.push_back({Value::Int(i)});
  const std::string text = r.ToString(3);
  EXPECT_NE(text.find("... (7 more)"), std::string::npos);
}

}  // namespace
}  // namespace gapply
