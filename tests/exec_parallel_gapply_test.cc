#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/exec/agg_ops.h"
#include "src/exec/apply_ops.h"
#include "src/exec/filter_project_ops.h"
#include "src/exec/gapply_op.h"
#include "src/exec/scan_ops.h"
#include "src/expr/aggregate.h"
#include "src/expr/expr.h"
#include "tests/test_util.h"

namespace gapply {
namespace {

using tutil::GroupedSchema;
using tutil::MakeTable;
using tutil::RandomGroupedRows;
using tutil::RunPlan;

// The parallel path promises bit-for-bit the same output as serial —
// SameRowSequence (ordered, element-wise row equality), not just the same
// multiset.

// PGQ shapes used across the determinism tests.
using PgqBuilder = std::function<PhysOpPtr(const Schema&, const std::string&)>;

PhysOpPtr IdentityPgq(const Schema& gs, const std::string& var) {
  return std::make_unique<GroupScanOp>(var, gs);
}

PhysOpPtr AggPgq(const Schema& gs, const std::string& var) {
  auto scan = std::make_unique<GroupScanOp>(var, gs);
  std::vector<AggregateDesc> aggs;
  aggs.push_back(CountStar("cnt"));
  aggs.push_back(Sum(Col(gs, "v"), "sum_v"));
  aggs.push_back(Avg(Col(gs, "d"), "avg_d"));
  return std::make_unique<ScalarAggOp>(std::move(scan), std::move(aggs));
}

PhysOpPtr FilterPgq(const Schema& gs, const std::string& var) {
  auto scan = std::make_unique<GroupScanOp>(var, gs);
  return std::make_unique<FilterOp>(
      std::move(scan), Binary(BinaryOp::kGe, Col(gs, "v"), Lit(int64_t{50})));
}

std::unique_ptr<GApplyOp> BuildGApply(const Table* table, PartitionMode mode,
                                      size_t dop, const PgqBuilder& pgq) {
  auto outer = std::make_unique<TableScanOp>(table);
  const Schema gs = outer->output_schema();
  return std::make_unique<GApplyOp>(std::move(outer), std::vector<int>{0},
                                    "g", pgq(gs, "g"), mode, dop);
}

// ---------------------------------------------------------------------------
// Determinism: for every PGQ shape, partition mode, and thread count, the
// parallel output must equal the serial output element-for-element.
// ---------------------------------------------------------------------------

struct DeterminismCase {
  const char* name;
  PgqBuilder pgq;
};

class ParallelDeterminismTest
    : public ::testing::TestWithParam<PartitionMode> {};

TEST_P(ParallelDeterminismTest, BitForBitIdenticalToSerial) {
  const PartitionMode mode = GetParam();
  Rng rng(mode == PartitionMode::kSort ? 11 : 12);
  auto table = MakeTable("t", GroupedSchema(),
                         RandomGroupedRows(&rng, 400, 23, 0.1));
  const std::vector<DeterminismCase> cases = {
      {"identity", IdentityPgq}, {"agg", AggPgq}, {"filter", FilterPgq}};
  for (const DeterminismCase& c : cases) {
    auto serial = BuildGApply(table.get(), mode, 1, c.pgq);
    const QueryResult expected = RunPlan(serial.get());
    for (size_t threads : {1u, 2u, 8u}) {
      auto par = BuildGApply(table.get(), mode, threads, c.pgq);
      const QueryResult got = RunPlan(par.get());
      EXPECT_TRUE(SameRowSequence(got.rows, expected.rows))
          << "pgq=" << c.name << " mode=" << PartitionModeName(mode)
          << " threads=" << threads << "\nserial:\n"
          << expected.ToString() << "\nparallel:\n"
          << got.ToString();
    }
  }
}

TEST_P(ParallelDeterminismTest, MoreWorkersThanGroups) {
  const PartitionMode mode = GetParam();
  Rng rng(13);
  // 3 groups, 16 workers: the cursor must hand each group to at most one
  // worker and idle workers must exit cleanly.
  auto table =
      MakeTable("t", GroupedSchema(), RandomGroupedRows(&rng, 30, 3));
  auto serial = BuildGApply(table.get(), mode, 1, AggPgq);
  auto par = BuildGApply(table.get(), mode, 16, AggPgq);
  EXPECT_TRUE(
      SameRowSequence(RunPlan(par.get()).rows, RunPlan(serial.get()).rows));
}

TEST_P(ParallelDeterminismTest, CountersMatchSerialExactly) {
  const PartitionMode mode = GetParam();
  Rng rng(14);
  auto table =
      MakeTable("t", GroupedSchema(), RandomGroupedRows(&rng, 250, 17));

  ExecContext serial_ctx;
  auto serial = BuildGApply(table.get(), mode, 1, AggPgq);
  ASSERT_TRUE(ExecuteToVector(serial.get(), &serial_ctx).ok());

  for (size_t threads : {2u, 8u}) {
    ExecContext par_ctx;
    auto par = BuildGApply(table.get(), mode, threads, AggPgq);
    ASSERT_TRUE(ExecuteToVector(par.get(), &par_ctx).ok());
    const ExecContext::Counters s = SumWorkCounters(*serial);
    const ExecContext::Counters p = SumWorkCounters(*par);
    EXPECT_EQ(p.pgq_executions, s.pgq_executions) << "threads=" << threads;
    EXPECT_EQ(p.group_rows_scanned, s.group_rows_scanned);
    EXPECT_EQ(p.rows_scanned, s.rows_scanned);
    EXPECT_EQ(p.rows_sorted, s.rows_sorted);
    EXPECT_EQ(p.rows_hash_partitioned, s.rows_hash_partitioned);
    EXPECT_EQ(p.pgq_executions, 17u);
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, ParallelDeterminismTest,
                         ::testing::Values(PartitionMode::kSort,
                                           PartitionMode::kHash),
                         [](const auto& info) {
                           return std::string(PartitionModeName(info.param));
                         });

// ---------------------------------------------------------------------------
// Nested GApply with the SAME variable name on both levels: the inner
// GApply's binding of "g" must shadow the outer one inside the inner PGQ,
// and that shadowing must survive per-worker context forks on both levels.
// ---------------------------------------------------------------------------

std::unique_ptr<GApplyOp> BuildNestedShadowed(const Table* table,
                                              size_t outer_dop,
                                              size_t inner_dop,
                                              PartitionMode mode) {
  auto outer = std::make_unique<TableScanOp>(table);
  const Schema gs = outer->output_schema();

  // Innermost PGQ: sum(v) over the *inner* binding of "g".
  auto inner_scan = std::make_unique<GroupScanOp>("g", gs);
  std::vector<AggregateDesc> aggs;
  aggs.push_back(Sum(Col(gs, "v"), "s"));
  auto inner_pgq =
      std::make_unique<ScalarAggOp>(std::move(inner_scan), std::move(aggs));

  // Outer PGQ: GApply over the outer binding of "g", re-grouping by b
  // (column 1) and re-binding the same name "g".
  auto outer_pgq = std::make_unique<GApplyOp>(
      std::make_unique<GroupScanOp>("g", gs), std::vector<int>{1}, "g",
      std::move(inner_pgq), mode, inner_dop);

  return std::make_unique<GApplyOp>(std::move(outer), std::vector<int>{0},
                                    "g", std::move(outer_pgq), mode,
                                    outer_dop);
}

TEST(ParallelNestedGApplyTest, ShadowedVariableNamesAllDopCombinations) {
  Schema s({{"a", TypeId::kInt64, "t"},
            {"b", TypeId::kInt64, "t"},
            {"v", TypeId::kInt64, "t"}});
  std::vector<Row> rows;
  Rng rng(21);
  for (int i = 0; i < 120; ++i) {
    rows.push_back({Value::Int(rng.UniformInt(1, 6)),
                    Value::Int(rng.UniformInt(1, 4)),
                    Value::Int(rng.UniformInt(0, 50))});
  }
  auto table = MakeTable("t", s, rows);

  for (PartitionMode mode : {PartitionMode::kSort, PartitionMode::kHash}) {
    auto serial = BuildNestedShadowed(table.get(), 1, 1, mode);
    const QueryResult expected = RunPlan(serial.get());
    ASSERT_FALSE(expected.rows.empty());
    for (size_t outer_dop : {1u, 4u}) {
      for (size_t inner_dop : {1u, 4u}) {
        auto par =
            BuildNestedShadowed(table.get(), outer_dop, inner_dop, mode);
        const QueryResult got = RunPlan(par.get());
        EXPECT_TRUE(SameRowSequence(got.rows, expected.rows))
            << "mode=" << PartitionModeName(mode) << " outer=" << outer_dop
            << " inner=" << inner_dop;
      }
    }
  }
}

TEST(ParallelNestedGApplyTest, ShadowedSmallCaseHandChecked) {
  Schema s({{"a", TypeId::kInt64, "t"},
            {"b", TypeId::kInt64, "t"},
            {"v", TypeId::kInt64, "t"}});
  auto table = MakeTable(
      "t", s,
      {{Value::Int(1), Value::Int(1), Value::Int(1)},
       {Value::Int(1), Value::Int(1), Value::Int(2)},
       {Value::Int(1), Value::Int(2), Value::Int(3)},
       {Value::Int(2), Value::Int(1), Value::Int(4)}});
  auto op = BuildNestedShadowed(table.get(), 4, 4, PartitionMode::kSort);
  EXPECT_TRUE(SameRowMultiset(
      RunPlan(op.get()).rows, {{Value::Int(1), Value::Int(1), Value::Int(3)},
                               {Value::Int(1), Value::Int(2), Value::Int(3)},
                               {Value::Int(2), Value::Int(1), Value::Int(4)}}));
}

// ---------------------------------------------------------------------------
// Error propagation from workers.
// ---------------------------------------------------------------------------

// PGQ whose predicate divides by v: any group containing v == 0 fails with
// "division by zero" mid-stream.
PhysOpPtr DivByVPgq(const Schema& gs, const std::string& var) {
  auto scan = std::make_unique<GroupScanOp>(var, gs);
  return std::make_unique<FilterOp>(
      std::move(scan),
      Binary(BinaryOp::kGt,
             Binary(BinaryOp::kDivide, Lit(int64_t{100}), Col(gs, "v")),
             Lit(int64_t{-1000000})));
}

TEST(ParallelErrorTest, WorkerFailureMatchesSerialError) {
  // 40 groups of 3 rows; group 23 contains a poison row (v = 0).
  std::vector<Row> rows;
  for (int k = 1; k <= 40; ++k) {
    for (int j = 0; j < 3; ++j) {
      const int64_t v = (k == 23 && j == 1) ? 0 : k + j;
      rows.push_back({Value::Int(k), Value::Int(v), Value::Double(k)});
    }
  }
  auto table = MakeTable("t", GroupedSchema(), rows);

  for (PartitionMode mode : {PartitionMode::kSort, PartitionMode::kHash}) {
    ExecContext serial_ctx;
    auto serial = BuildGApply(table.get(), mode, 1, DivByVPgq);
    Result<QueryResult> serial_r = ExecuteToVector(serial.get(), &serial_ctx);
    ASSERT_FALSE(serial_r.ok());
    EXPECT_NE(serial_r.status().ToString().find("division by zero"),
              std::string::npos)
        << serial_r.status().ToString();

    for (size_t threads : {2u, 8u}) {
      ExecContext ctx;
      auto par = BuildGApply(table.get(), mode, threads, DivByVPgq);
      Result<QueryResult> r = ExecuteToVector(par.get(), &ctx);
      ASSERT_FALSE(r.ok()) << "threads=" << threads;
      EXPECT_EQ(r.status().ToString(), serial_r.status().ToString())
          << "threads=" << threads
          << " mode=" << PartitionModeName(mode);
    }
  }
}

// When several groups fail, the error reported must be the one serial
// execution would hit first (smallest group index), independent of worker
// scheduling. The two poison groups fail with *different* messages so the
// test can tell which one was picked: v == -1 trips "division by zero" in
// the left conjunct, v == -2 trips "modulo by zero" in the right one.
PhysOpPtr TwoPoisonPgq(const Schema& gs, const std::string& var) {
  auto scan = std::make_unique<GroupScanOp>(var, gs);
  ExprPtr left = Binary(
      BinaryOp::kGt,
      Binary(BinaryOp::kDivide, Lit(int64_t{100}),
             Binary(BinaryOp::kAdd, Col(gs, "v"), Lit(int64_t{1}))),
      Lit(int64_t{-1000000}));
  ExprPtr right = Binary(
      BinaryOp::kGt,
      Binary(BinaryOp::kModulo, Lit(int64_t{100}),
             Binary(BinaryOp::kAdd, Col(gs, "v"), Lit(int64_t{2}))),
      Lit(int64_t{-1000000}));
  return std::make_unique<FilterOp>(
      std::move(scan),
      Binary(BinaryOp::kAnd, std::move(left), std::move(right)));
}

TEST(ParallelErrorTest, SmallestFailingGroupWinsDeterministically) {
  // Keys appear in ascending order, so group order is the same for sort and
  // hash partitioning. Group 7 divides by zero; group 30 takes modulo by
  // zero. Serial hits group 7 first, so every parallel run must report the
  // division error even if a worker finishes group 30's failure earlier.
  std::vector<Row> rows;
  for (int k = 1; k <= 40; ++k) {
    for (int j = 0; j < 2; ++j) {
      int64_t v = 10 * k + j;
      if (k == 7 && j == 1) v = -1;
      if (k == 30 && j == 0) v = -2;
      rows.push_back({Value::Int(k), Value::Int(v), Value::Double(0)});
    }
  }
  auto table = MakeTable("t", GroupedSchema(), rows);

  for (PartitionMode mode : {PartitionMode::kSort, PartitionMode::kHash}) {
    for (size_t threads : {1u, 2u, 8u}) {
      ExecContext ctx;
      auto op = BuildGApply(table.get(), mode, threads, TwoPoisonPgq);
      Result<QueryResult> r = ExecuteToVector(op.get(), &ctx);
      ASSERT_FALSE(r.ok());
      EXPECT_NE(r.status().ToString().find("division by zero"),
                std::string::npos)
          << "threads=" << threads << " mode=" << PartitionModeName(mode)
          << " got: " << r.status().ToString();
    }
  }
}

// ---------------------------------------------------------------------------
// Interaction with enclosing operators: a parallel GApply as the inner side
// of Apply must see the enclosing Apply's correlated row from every worker
// (ForkForWorker shares the correlated-row stack).
// ---------------------------------------------------------------------------

TEST(ParallelGApplyTest, UnderCorrelatedApplySeesOuterRow) {
  Schema outer_schema({{"a", TypeId::kInt64, "o"}});
  auto outer_table = MakeTable("o", outer_schema,
                               {{Value::Int(30)}, {Value::Int(70)}});
  Rng rng(31);
  auto grouped = MakeTable("t", GroupedSchema(),
                           RandomGroupedRows(&rng, 200, 11));

  auto build = [&](size_t dop) {
    auto scan = std::make_unique<TableScanOp>(outer_table.get());
    auto inner_scan = std::make_unique<TableScanOp>(grouped.get());
    const Schema gs = inner_scan->output_schema();
    // PGQ: rows of the group whose v >= the enclosing Apply's outer a.
    auto pgq = std::make_unique<FilterOp>(
        std::make_unique<GroupScanOp>("g", gs),
        Binary(BinaryOp::kGe, Col(gs, "v"),
               std::make_unique<CorrelatedColumnRefExpr>(0, 0, TypeId::kInt64,
                                                         "a")));
    auto ga = std::make_unique<GApplyOp>(std::move(inner_scan),
                                         std::vector<int>{0}, "g",
                                         std::move(pgq), PartitionMode::kSort,
                                         dop);
    return std::make_unique<ApplyOp>(std::move(scan), std::move(ga),
                                     /*cache_uncorrelated_inner=*/false);
  };

  auto serial = build(1);
  const QueryResult expected = RunPlan(serial.get());
  ASSERT_FALSE(expected.rows.empty());
  for (size_t dop : {2u, 8u}) {
    auto par = build(dop);
    EXPECT_TRUE(SameRowSequence(RunPlan(par.get()).rows, expected.rows))
        << "dop=" << dop;
  }
}

// ---------------------------------------------------------------------------
// Clone: the parallel path leans on PhysOp::Clone for worker-private plans,
// so the deep copy must be complete and independent.
// ---------------------------------------------------------------------------

TEST(ParallelGApplyTest, CloneIsDeepAndIndependent) {
  Rng rng(41);
  auto table =
      MakeTable("t", GroupedSchema(), RandomGroupedRows(&rng, 150, 9));
  auto original = BuildGApply(table.get(), PartitionMode::kHash, 4, AggPgq);
  PhysOpPtr clone = original->Clone();

  EXPECT_EQ(original->DebugString(), clone->DebugString());

  // Run the original, then the clone, then the original again: a shallow
  // copy (shared PGQ or shared partition state) would corrupt one of them.
  const QueryResult first = RunPlan(original.get());
  const QueryResult cloned = RunPlan(clone.get());
  const QueryResult second = RunPlan(original.get());
  EXPECT_TRUE(SameRowSequence(cloned.rows, first.rows));
  EXPECT_TRUE(SameRowSequence(second.rows, first.rows));
}

TEST(ParallelGApplyTest, DebugNameShowsParallelism) {
  Rng rng(42);
  auto table = MakeTable("t", GroupedSchema(), RandomGroupedRows(&rng, 10, 2));
  auto serial = BuildGApply(table.get(), PartitionMode::kSort, 1, AggPgq);
  auto par = BuildGApply(table.get(), PartitionMode::kSort, 6, AggPgq);
  EXPECT_EQ(serial->DebugName().find("parallelism"), std::string::npos);
  EXPECT_NE(par->DebugName().find("parallelism=6"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Counters are mergeable first-class values.
// ---------------------------------------------------------------------------

TEST(CountersTest, MergeFromSumsEveryField) {
  ExecContext::Counters a;
  a.rows_scanned = 1;
  a.group_rows_scanned = 2;
  a.pgq_executions = 3;
  a.apply_invocations = 4;
  a.rows_sorted = 5;
  a.rows_hash_partitioned = 6;
  a.gapply_partition_ns = 7;
  a.gapply_pgq_ns = 8;
  a.exchange_partition_ns = 9;
  a.exchange_merge_ns = 10;
  ExecContext::Counters b = a;
  b.rows_scanned = 10;
  a.MergeFrom(b);
  EXPECT_EQ(a.rows_scanned, 11u);
  EXPECT_EQ(a.group_rows_scanned, 4u);
  EXPECT_EQ(a.pgq_executions, 6u);
  EXPECT_EQ(a.apply_invocations, 8u);
  EXPECT_EQ(a.rows_sorted, 10u);
  EXPECT_EQ(a.rows_hash_partitioned, 12u);
  EXPECT_EQ(a.gapply_partition_ns, 14u);
  EXPECT_EQ(a.gapply_pgq_ns, 16u);
  EXPECT_EQ(a.exchange_partition_ns, 18u);
  EXPECT_EQ(a.exchange_merge_ns, 20u);
}

TEST(CountersTest, ResetZeroesEveryField) {
  ExecContext::Counters a;
  a.rows_scanned = 1;
  a.gapply_pgq_ns = 9;
  a.batches_produced = 4;
  a.Reset();
  EXPECT_EQ(a.rows_scanned, 0u);
  EXPECT_EQ(a.gapply_pgq_ns, 0u);
  EXPECT_EQ(a.batches_produced, 0u);
}

TEST(ParallelGApplyTest, PhaseCountersAttributePartitionAndExecution) {
  Rng rng(51);
  auto table =
      MakeTable("t", GroupedSchema(), RandomGroupedRows(&rng, 300, 20));
  for (size_t dop : {1u, 4u}) {
    ExecContext ctx;
    ctx.set_profiling(true);  // the phase timers run only under profiling
    auto op = BuildGApply(table.get(), PartitionMode::kSort, dop, AggPgq);
    ASSERT_TRUE(ExecuteToVector(op.get(), &ctx).ok());
    const ExecContext::Counters work = SumWorkCounters(*op);
    EXPECT_GT(work.gapply_partition_ns, 0u) << "dop=" << dop;
    EXPECT_GT(work.gapply_pgq_ns, 0u) << "dop=" << dop;
  }
}

}  // namespace
}  // namespace gapply
