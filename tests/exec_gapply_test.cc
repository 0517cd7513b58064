#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "src/common/memory_tracker.h"
#include "src/common/spill_file.h"
#include "src/exec/agg_ops.h"
#include "src/exec/apply_ops.h"
#include "src/exec/filter_project_ops.h"
#include "src/exec/gapply_op.h"
#include "src/exec/lowering.h"
#include "src/exec/scan_ops.h"
#include "src/expr/aggregate.h"
#include "src/sql/binder.h"
#include "src/storage/catalog.h"
#include "tests/test_util.h"

namespace gapply {
namespace {

using tutil::GroupedSchema;
using tutil::MakeTable;
using tutil::RandomGroupedRows;
using tutil::RunPlan;

// ---------------------------------------------------------------------------
// Naive reference implementation of GApply semantics:
//   U_{c in distinct(pi_C(outer))} ({c} x PGQ(sigma_{C=c} outer))
// computed by materializing partitions with a std::map and invoking a
// PGQ-as-function callback. Property tests compare the operator against it.
// ---------------------------------------------------------------------------
using PgqFn = std::function<std::vector<Row>(const std::vector<Row>&)>;

std::vector<Row> ReferenceGApply(const std::vector<Row>& input,
                                 const std::vector<int>& gcols,
                                 const PgqFn& pgq) {
  // Map with first-appearance ordering is not needed; output is compared as
  // a multiset.
  std::vector<Row> keys;
  std::vector<std::vector<Row>> groups;
  for (const Row& row : input) {
    Row key;
    for (int c : gcols) key.push_back(row[static_cast<size_t>(c)]);
    size_t g = keys.size();
    for (size_t i = 0; i < keys.size(); ++i) {
      if (RowsEqual(keys[i], key)) {
        g = i;
        break;
      }
    }
    if (g == keys.size()) {
      keys.push_back(key);
      groups.emplace_back();
    }
    groups[g].push_back(row);
  }
  std::vector<Row> out;
  for (size_t g = 0; g < groups.size(); ++g) {
    for (const Row& pgq_row : pgq(groups[g])) {
      Row full = keys[g];
      full.insert(full.end(), pgq_row.begin(), pgq_row.end());
      out.push_back(std::move(full));
    }
  }
  return out;
}

// PGQ plan: scan the group, compute scalar aggregates (count(*), sum v,
// avg d).
PhysOpPtr AggPgq(const Schema& group_schema, const std::string& var) {
  auto scan = std::make_unique<GroupScanOp>(var, group_schema);
  std::vector<AggregateDesc> aggs;
  aggs.push_back(CountStar("cnt"));
  aggs.push_back(Sum(Col(group_schema, "v"), "sum_v"));
  aggs.push_back(Avg(Col(group_schema, "d"), "avg_d"));
  return std::make_unique<ScalarAggOp>(std::move(scan), std::move(aggs));
}

TEST(GApplyTest, AggregatePerGroup) {
  auto table = MakeTable("t", GroupedSchema(),
                         {{Value::Int(1), Value::Int(10), Value::Double(2.0)},
                          {Value::Int(1), Value::Int(30), Value::Double(4.0)},
                          {Value::Int(2), Value::Int(5), Value::Double(1.0)}});
  auto outer = std::make_unique<TableScanOp>(table.get());
  const Schema group_schema = outer->output_schema();
  GApplyOp op(std::move(outer), {0}, "g", AggPgq(group_schema, "g"),
              PartitionMode::kHash);
  // Output: k, cnt, sum_v, avg_d.
  QueryResult r = RunPlan(&op);
  ASSERT_EQ(r.schema.num_columns(), 4u);
  EXPECT_TRUE(SameRowMultiset(
      r.rows,
      {{Value::Int(1), Value::Int(2), Value::Int(40), Value::Double(3.0)},
       {Value::Int(2), Value::Int(1), Value::Int(5), Value::Double(1.0)}}));
}

TEST(GApplyTest, SortModeClustersOutputByGroupingColumns) {
  Rng rng(3);
  auto table =
      MakeTable("t", GroupedSchema(), RandomGroupedRows(&rng, 200, 12));
  auto outer = std::make_unique<TableScanOp>(table.get());
  const Schema group_schema = outer->output_schema();

  // PGQ returns the group itself (identity scan): output is the whole input
  // with the key prefixed, clustered by key in sort mode.
  GApplyOp op(std::move(outer), {0}, "g",
              std::make_unique<GroupScanOp>("g", group_schema),
              PartitionMode::kSort);
  QueryResult r = RunPlan(&op);
  ASSERT_EQ(r.rows.size(), 200u);
  for (size_t i = 1; i < r.rows.size(); ++i) {
    EXPECT_GE(r.rows[i][0].int_val(), r.rows[i - 1][0].int_val())
        << "sort-mode GApply output must be clustered and ordered by key";
  }
}

TEST(GApplyTest, HashModeClustersByGroupEvenIfUnordered) {
  Rng rng(4);
  auto table =
      MakeTable("t", GroupedSchema(), RandomGroupedRows(&rng, 100, 7));
  auto outer = std::make_unique<TableScanOp>(table.get());
  const Schema group_schema = outer->output_schema();
  GApplyOp op(std::move(outer), {0}, "g",
              std::make_unique<GroupScanOp>("g", group_schema),
              PartitionMode::kHash);
  QueryResult r = RunPlan(&op);
  ASSERT_EQ(r.rows.size(), 100u);
  // Rows of the same key must be contiguous (clustered), though key order is
  // arbitrary.
  std::map<int64_t, int> runs;
  int64_t prev = -1;
  for (const Row& row : r.rows) {
    const int64_t k = row[0].int_val();
    if (k != prev) {
      runs[k]++;
      prev = k;
    }
  }
  for (const auto& [k, n] : runs) {
    EXPECT_EQ(n, 1) << "key " << k << " appears in " << n << " runs";
  }
}

TEST(GApplyTest, EmptyInputProducesNoGroups) {
  auto table = MakeTable("t", GroupedSchema(), {});
  auto outer = std::make_unique<TableScanOp>(table.get());
  const Schema group_schema = outer->output_schema();
  GApplyOp op(std::move(outer), {0}, "g", AggPgq(group_schema, "g"));
  EXPECT_TRUE(RunPlan(&op).rows.empty());
}

TEST(GApplyTest, NullGroupingValuesFormTheirOwnGroup) {
  auto table = MakeTable("t", GroupedSchema(),
                         {{Value::Null(), Value::Int(1), Value::Double(1)},
                          {Value::Null(), Value::Int(2), Value::Double(2)},
                          {Value::Int(1), Value::Int(3), Value::Double(3)}});
  auto outer = std::make_unique<TableScanOp>(table.get());
  const Schema group_schema = outer->output_schema();
  GApplyOp op(std::move(outer), {0}, "g", AggPgq(group_schema, "g"));
  QueryResult r = RunPlan(&op);
  EXPECT_TRUE(SameRowMultiset(
      r.rows,
      {{Value::Null(), Value::Int(2), Value::Int(3), Value::Double(1.5)},
       {Value::Int(1), Value::Int(1), Value::Int(3), Value::Double(3.0)}}));
}

TEST(GApplyTest, MultiColumnGroupingKeys) {
  Schema s({{"a", TypeId::kInt64, "t"},
            {"b", TypeId::kInt64, "t"},
            {"v", TypeId::kInt64, "t"}});
  auto table = MakeTable(
      "t", s,
      {{Value::Int(1), Value::Int(1), Value::Int(10)},
       {Value::Int(1), Value::Int(2), Value::Int(20)},
       {Value::Int(1), Value::Int(1), Value::Int(30)}});
  auto outer = std::make_unique<TableScanOp>(table.get());
  const Schema group_schema = outer->output_schema();
  auto scan = std::make_unique<GroupScanOp>("g", group_schema);
  std::vector<AggregateDesc> aggs;
  aggs.push_back(Sum(Col(group_schema, "v"), "s"));
  auto pgq = std::make_unique<ScalarAggOp>(std::move(scan), std::move(aggs));
  GApplyOp op(std::move(outer), {0, 1}, "g", std::move(pgq));
  EXPECT_TRUE(SameRowMultiset(
      RunPlan(&op).rows, {{Value::Int(1), Value::Int(1), Value::Int(40)},
                      {Value::Int(1), Value::Int(2), Value::Int(20)}}));
}

TEST(GApplyTest, PgqCountersTrackExecutions) {
  Rng rng(5);
  auto table =
      MakeTable("t", GroupedSchema(), RandomGroupedRows(&rng, 50, 9));
  auto outer = std::make_unique<TableScanOp>(table.get());
  const Schema group_schema = outer->output_schema();
  GApplyOp op(std::move(outer), {0}, "g", AggPgq(group_schema, "g"));
  ExecContext ctx;
  ASSERT_TRUE(ExecuteToVector(&op, &ctx).ok());
  const ExecContext::Counters work = SumWorkCounters(op);
  EXPECT_EQ(work.pgq_executions, 9u);
  EXPECT_EQ(work.group_rows_scanned, 50u);
}

// Nested GApply: outer groups by a, inner GApply (inside the PGQ) groups the
// group by b. Exercises binding-stack shadowing with distinct names.
TEST(GApplyTest, NestedGApplyInsidePgq) {
  Schema s({{"a", TypeId::kInt64, "t"},
            {"b", TypeId::kInt64, "t"},
            {"v", TypeId::kInt64, "t"}});
  auto table = MakeTable(
      "t", s,
      {{Value::Int(1), Value::Int(1), Value::Int(1)},
       {Value::Int(1), Value::Int(1), Value::Int(2)},
       {Value::Int(1), Value::Int(2), Value::Int(3)},
       {Value::Int(2), Value::Int(1), Value::Int(4)}});
  auto outer = std::make_unique<TableScanOp>(table.get());
  const Schema group_schema = outer->output_schema();

  // Inner PGQ (for inner GApply over $h): sum(v).
  auto inner_scan = std::make_unique<GroupScanOp>("h", group_schema);
  std::vector<AggregateDesc> inner_aggs;
  inner_aggs.push_back(Sum(Col(group_schema, "v"), "s"));
  auto inner_pgq = std::make_unique<ScalarAggOp>(std::move(inner_scan),
                                                 std::move(inner_aggs));
  // Outer PGQ: GApply over the group, grouping by b (column 1).
  auto outer_pgq = std::make_unique<GApplyOp>(
      std::make_unique<GroupScanOp>("g", group_schema), std::vector<int>{1},
      "h", std::move(inner_pgq));

  GApplyOp op(std::move(outer), {0}, "g", std::move(outer_pgq));
  // Output: a, b, s.
  EXPECT_TRUE(SameRowMultiset(
      RunPlan(&op).rows, {{Value::Int(1), Value::Int(1), Value::Int(3)},
                      {Value::Int(1), Value::Int(2), Value::Int(3)},
                      {Value::Int(2), Value::Int(1), Value::Int(4)}}));
}

// ---------------------------------------------------------------------------
// Property tests: GApply(sort) == GApply(hash) == reference, over random
// data, for three PGQ shapes.
// ---------------------------------------------------------------------------

class GApplyPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(GApplyPropertyTest, AggPgqMatchesReference) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  const int num_rows = static_cast<int>(rng.UniformInt(0, 300));
  const int num_keys = static_cast<int>(rng.UniformInt(1, 20));
  auto rows = RandomGroupedRows(&rng, num_rows, num_keys, 0.15);
  auto table = MakeTable("t", GroupedSchema(), rows);
  const Schema gs = table->schema();

  const std::vector<Row> expected = ReferenceGApply(
      table->rows(), {0}, [&](const std::vector<Row>& group) {
        int64_t cnt = 0, sum = 0;
        bool any = false;
        double dsum = 0;
        for (const Row& r : group) {
          ++cnt;
          if (!r[1].is_null()) {
            sum += r[1].int_val();
            any = true;
          }
          dsum += r[2].double_val();
        }
        Row out{Value::Int(cnt), any ? Value::Int(sum) : Value::Null(),
                Value::Double(dsum / static_cast<double>(group.size()))};
        return std::vector<Row>{out};
      });

  for (PartitionMode mode : {PartitionMode::kSort, PartitionMode::kHash}) {
    GApplyOp op(std::make_unique<TableScanOp>(table.get()), {0}, "g",
                AggPgq(gs, "g"), mode);
    QueryResult r = RunPlan(&op);
    EXPECT_TRUE(SameRowMultiset(r.rows, expected))
        << "mode=" << PartitionModeName(mode) << " rows=" << num_rows
        << " keys=" << num_keys;
  }
}

TEST_P(GApplyPropertyTest, FilteredIdentityPgqMatchesReference) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919);
  const int num_rows = static_cast<int>(rng.UniformInt(0, 300));
  const int num_keys = static_cast<int>(rng.UniformInt(1, 15));
  const int64_t cutoff = rng.UniformInt(0, 100);
  auto rows = RandomGroupedRows(&rng, num_rows, num_keys, 0.1);
  auto table = MakeTable("t", GroupedSchema(), rows);
  const Schema gs = table->schema();

  const std::vector<Row> expected = ReferenceGApply(
      table->rows(), {0}, [&](const std::vector<Row>& group) {
        std::vector<Row> out;
        for (const Row& r : group) {
          if (!r[1].is_null() && r[1].int_val() > cutoff) out.push_back(r);
        }
        return out;
      });

  for (PartitionMode mode : {PartitionMode::kSort, PartitionMode::kHash}) {
    auto pgq = std::make_unique<FilterOp>(
        std::make_unique<GroupScanOp>("g", gs),
        Gt(Col(gs, "v"), Lit(cutoff)));
    GApplyOp op(std::make_unique<TableScanOp>(table.get()), {0}, "g",
                std::move(pgq), mode);
    EXPECT_TRUE(SameRowMultiset(RunPlan(&op).rows, expected))
        << "mode=" << PartitionModeName(mode);
  }
}

TEST_P(GApplyPropertyTest, CorrelatedSubqueryPgqMatchesReference) {
  // PGQ of paper query Q2 shape: count rows above the group average.
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729);
  const int num_rows = static_cast<int>(rng.UniformInt(1, 250));
  const int num_keys = static_cast<int>(rng.UniformInt(1, 12));
  auto rows = RandomGroupedRows(&rng, num_rows, num_keys);
  auto table = MakeTable("t", GroupedSchema(), rows);
  const Schema gs = table->schema();

  const std::vector<Row> expected = ReferenceGApply(
      table->rows(), {0}, [&](const std::vector<Row>& group) {
        double sum = 0;
        for (const Row& r : group) sum += r[2].double_val();
        const double avg = sum / static_cast<double>(group.size());
        int64_t above = 0;
        for (const Row& r : group) {
          if (r[2].double_val() >= avg) ++above;
        }
        return std::vector<Row>{{Value::Int(above)}};
      });

  for (PartitionMode mode : {PartitionMode::kSort, PartitionMode::kHash}) {
    // PGQ: ScalarAgg(count(*)) over Filter(d >= (ScalarAgg(avg d) of the
    // group)). The scalar subquery is modeled with Apply: the Apply's outer
    // is the group scan, the inner is the avg; a filter over the combined
    // row compares, and a final count aggregates.
    auto group_scan = std::make_unique<GroupScanOp>("g", gs);
    std::vector<AggregateDesc> avg_aggs;
    avg_aggs.push_back(Avg(Col(gs, "d"), "avg_d"));
    auto avg_plan = std::make_unique<ScalarAggOp>(
        std::make_unique<GroupScanOp>("g", gs), std::move(avg_aggs));
    auto apply = std::make_unique<ApplyOp>(std::move(group_scan),
                                           std::move(avg_plan));
    const Schema applied = apply->output_schema();  // k, v, d, avg_d
    auto filtered = std::make_unique<FilterOp>(
        std::move(apply), Ge(Col(applied, "d"), Col(applied, "avg_d")));
    std::vector<AggregateDesc> cnt;
    cnt.push_back(CountStar("above"));
    auto pgq =
        std::make_unique<ScalarAggOp>(std::move(filtered), std::move(cnt));

    GApplyOp op(std::make_unique<TableScanOp>(table.get()), {0}, "g",
                std::move(pgq), mode);
    EXPECT_TRUE(SameRowMultiset(RunPlan(&op).rows, expected))
        << "mode=" << PartitionModeName(mode);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GApplyPropertyTest,
                         ::testing::Range(1, 13));

// ---------------------------------------------------------------------------
// Loop-lifted GApply (DESIGN.md §17). Lowering lifts the PGQ shapes it can;
// the lifted run must reproduce per-group execution of the same plan
// (LoweringOptions::per_group_gapply) row for row, in order, for every
// partition mode, DOP, batch size and memory budget.
// ---------------------------------------------------------------------------

class LiftedGApplyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Keys 1..40 (skewed towards small keys) plus NULL; group sizes vary
    // from 1 to a few dozen rows, so filters leave some groups (and some
    // segments) empty.
    Schema s({{"k", TypeId::kInt64, "t"},
              {"j", TypeId::kInt64, "t"},
              {"v", TypeId::kInt64, "t"},
              {"d", TypeId::kDouble, "t"},
              {"s", TypeId::kString, "t"}});
    Rng rng(17);
    std::vector<Row> rows;
    for (int i = 0; i < 600; ++i) {
      const int64_t key = rng.UniformInt(0, 40);
      const int64_t skew = rng.UniformInt(1, key == 0 ? 1 : key);
      Row row;
      row.push_back(key == 0 ? Value::Null() : Value::Int(skew));
      row.push_back(rng.Bernoulli(0.1) ? Value::Null()
                                       : Value::Int(rng.UniformInt(0, 2)));
      row.push_back(Value::Int(rng.UniformInt(0, 100)));
      row.push_back(Value::Double(rng.UniformDouble(0.0, 10.0)));
      std::string str = "s";
      str += std::to_string(rng.UniformInt(0, 9));
      row.push_back(Value::Str(std::move(str)));
      rows.push_back(std::move(row));
    }
    ASSERT_TRUE(
        catalog_.AddTable(MakeTable("t", std::move(s), std::move(rows))).ok());
  }

  PhysOpPtr LowerSql(const std::string& sql, PartitionMode mode,
                     size_t dop, bool per_group = false) {
    Result<LogicalOpPtr> plan = sql::ParseAndBind(catalog_, sql);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString() << "\n" << sql;
    if (!plan.ok()) return nullptr;
    LoweringOptions opts;
    opts.force_partition_mode = mode;
    opts.gapply_parallelism = dop;
    opts.exchange_parallelism = 1;
    opts.per_group_gapply = per_group;
    Result<PhysOpPtr> phys = LowerPlan(**plan, opts);
    EXPECT_TRUE(phys.ok()) << phys.status().ToString();
    return phys.ok() ? std::move(*phys) : nullptr;
  }

  /// The outermost GApply of a lowered plan.
  static GApplyOp* FindGApply(const PhysOp* op) {
    if (auto* ga = dynamic_cast<const GApplyOp*>(op)) {
      return const_cast<GApplyOp*>(ga);
    }
    for (const PhysOp* child : op->children()) {
      if (GApplyOp* found = FindGApply(child)) return found;
    }
    return nullptr;
  }

  struct Run {
    QueryResult result;
    ExecContext::Counters counters;
  };

  static Run Execute(PhysOp* plan, size_t batch, size_t budget = 0) {
    ExecContext ctx;
    ctx.set_batch_size(batch);
    MemoryTracker memory(budget);
    SpillManager spill("lifted-test");
    if (budget > 0) {
      ctx.set_memory(&memory);
      ctx.set_spill(&spill);
    }
    Result<QueryResult> r = ExecuteToVector(plan, &ctx);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return {r.ok() ? std::move(*r) : QueryResult{}, SumWorkCounters(*plan)};
  }

  /// Runs `sql` per group (the per-group reference lowering) and lifted at
  /// DOP {1, 4}, batch {1, 1024}, hash and sort partitioning; demands
  /// identical schemas and row sequences, one PGQ plan under the GApply and
  /// one PGQ execution per lifted run. Returns the row count.
  size_t ExpectLiftedMatchesPerGroup(const std::string& sql) {
    size_t rows = 0;
    for (PartitionMode mode : {PartitionMode::kHash, PartitionMode::kSort}) {
      PhysOpPtr per_group = LowerSql(sql, mode, 1, /*per_group=*/true);
      if (per_group == nullptr) return 0;
      GApplyOp* ga = FindGApply(per_group.get());
      EXPECT_NE(ga, nullptr);
      if (ga == nullptr) return 0;
      EXPECT_FALSE(ga->lifted()) << per_group->DebugString();
      const Run expected = Execute(per_group.get(), 1024);
      EXPECT_GT(expected.counters.pgq_executions, 1u);
      rows = expected.result.rows.size();

      for (size_t dop : {size_t{1}, size_t{4}}) {
        for (size_t batch : {size_t{1}, size_t{1024}}) {
          PhysOpPtr lifted = LowerSql(sql, mode, dop);
          const GApplyOp* lifted_ga = FindGApply(lifted.get());
          EXPECT_TRUE(lifted_ga->lifted());
          EXPECT_EQ(lifted_ga->children().size(), 2u);
          const std::string explain = lifted->DebugString();
          EXPECT_NE(explain.find(", lifted)"), std::string::npos) << explain;
          EXPECT_EQ(explain.find("GroupScan($"), std::string::npos) << explain;
          const Run got = Execute(lifted.get(), batch);
          EXPECT_EQ(got.result.schema.ToString(),
                    expected.result.schema.ToString());
          EXPECT_TRUE(SameRowSequence(got.result.rows, expected.result.rows))
              << "mode=" << PartitionModeName(mode) << " dop=" << dop
              << " batch=" << batch << "\n" << sql << "\ngot:\n"
              << got.result.ToString() << "expected:\n"
              << expected.result.ToString();
          EXPECT_EQ(got.counters.pgq_executions, 1u)
              << "mode=" << PartitionModeName(mode) << " dop=" << dop;
        }
      }
    }
    return rows;
  }

  Catalog catalog_;
};

TEST_F(LiftedGApplyTest, EmptySegmentsAfterFilterUnderScalarAgg) {
  // Many groups have no row with v > 90: count 0, sum/avg/min NULL.
  EXPECT_GT(ExpectLiftedMatchesPerGroup(
                "select gapply(select count(*), sum(v), avg(d), min(s) "
                "from g where v > 90) from t group by k : g"),
            0u);
}

TEST_F(LiftedGApplyTest, GroupsWithoutPgqOutput) {
  EXPECT_GT(ExpectLiftedMatchesPerGroup(
                "select gapply(select s, v, d from g where v > 95) "
                "from t group by k : g"),
            0u);
}

TEST_F(LiftedGApplyTest, NullGroupingKeys) {
  // k is NULL for a whole group, j for rows scattered over all groups.
  ExpectLiftedMatchesPerGroup(
      "select gapply(select s, v + 1, null from g) from t group by k, j : g");
  ExpectLiftedMatchesPerGroup(
      "select gapply(select count(*), max(d) from g) from t group by j : g");
}

TEST_F(LiftedGApplyTest, UnionAllKeepsBranchOrderWithinEachGroup) {
  ExpectLiftedMatchesPerGroup(
      "select gapply(select v, d from g where v < 30 "
      "              union all select count(*), avg(d) from g "
      "              union all select v, d from g where v > 70) "
      "from t group by k : g");
}

TEST_F(LiftedGApplyTest, ExistsAndNotExists) {
  ExpectLiftedMatchesPerGroup(
      "select gapply(select * from g where exists "
      "              (select v from g where v > 95)) from t group by k : g");
  ExpectLiftedMatchesPerGroup(
      "select gapply(select s, v from g where not exists "
      "              (select v from g where v > 95)) from t group by k : g");
}

TEST_F(LiftedGApplyTest, ScalarSubqueryBecomesGidMergeJoin) {
  // The Fig. 8 Q4 shape: rows above their group's average.
  ExpectLiftedMatchesPerGroup(
      "select gapply(select s, d from g where d > (select avg(d) from g)) "
      "from t group by k, j : g");
  ExpectLiftedMatchesPerGroup(
      "select gapply(select count(*), null from g "
      "              where d >= (select avg(d) from g where v > 50) "
      "              union all select null, count(*) from g "
      "              where d < (select avg(d) from g)) "
      "from t group by k : g");
}

TEST_F(LiftedGApplyTest, NonLiftableShapesRunPerGroup) {
  for (const char* sql :
       {"select gapply(select v, count(*) from g group by v) "
        "from t group by k : g",
        "select gapply(select gapply(select count(*) from h) "
        "              from g group by j : h) from t group by k : g"}) {
    PhysOpPtr plan = LowerSql(sql, PartitionMode::kHash, 1);
    ASSERT_NE(plan, nullptr);
    GApplyOp* ga = FindGApply(plan.get());
    ASSERT_NE(ga, nullptr);
    EXPECT_FALSE(ga->lifted()) << plan->DebugString();
    EXPECT_EQ(ga->DebugName().find(", lifted)"), std::string::npos);
    const Run run = Execute(plan.get(), 1024);
    EXPECT_GT(run.counters.pgq_executions, 1u) << sql;
  }
}

/// The spill partitions a spilled GApply over `groups` hash-assigned gids
/// runs when every non-empty partition above level `depth` overflows: the
/// distinct partition paths of its gids, each a non-empty leaf.
size_t SpillLeavesRun(uint64_t groups, int depth) {
  std::set<std::vector<size_t>> paths;
  for (uint64_t gid = 0; gid < groups; ++gid) {
    std::vector<size_t> path;
    for (int level = 0; level <= depth; ++level) {
      path.push_back(SpillPartitionOf(std::hash<uint64_t>{}(gid), level));
    }
    paths.insert(std::move(path));
  }
  return paths.size();
}

TEST_F(LiftedGApplyTest, SpilledPartitionRunsPerGroup) {
  // A spilled liftable PGQ runs lifted once per spill partition it loads,
  // recursive repartition leaves included; only the per-group reference
  // runs once per group.
  const std::string sql =
      "select gapply(select s, d from g where d > (select avg(d) from g)) "
      "from t group by k : g";
  PhysOpPtr plan = LowerSql(sql, PartitionMode::kHash, 1);
  ASSERT_NE(plan, nullptr);
  ASSERT_TRUE(FindGApply(plan.get())->lifted());
  const Run unlimited = Execute(plan.get(), 1024);
  EXPECT_EQ(unlimited.counters.pgq_executions, 1u);
  EXPECT_EQ(unlimited.counters.spill_bytes, 0u);
  PhysOpPtr per_group = LowerSql(sql, PartitionMode::kHash, 1,
                                 /*per_group=*/true);
  const uint64_t groups = Execute(per_group.get(), 1024).counters.pgq_executions;
  ASSERT_GT(groups, uint64_t{kSpillFanout});

  // 16 KB holds every level-0 partition of the ~60 KB input; 64 B holds no
  // row, so every partition repartitions down to the depth cap.
  struct Budget {
    size_t bytes;
    int leaf_level;
  };
  for (const Budget& budget : {Budget{16 << 10, 0},
                               Budget{64, kMaxSpillDepth - 1}}) {
    const size_t leaves = SpillLeavesRun(groups, budget.leaf_level);
    EXPECT_LT(leaves, groups);
    for (size_t dop : {size_t{1}, size_t{4}}) {
      for (size_t batch : {size_t{1}, size_t{1024}}) {
        PhysOpPtr lifted = LowerSql(sql, PartitionMode::kHash, dop);
        const Run spilled = Execute(lifted.get(), batch, budget.bytes);
        const std::string where = "budget=" + std::to_string(budget.bytes) +
                                  " dop=" + std::to_string(dop) +
                                  " batch=" + std::to_string(batch);
        EXPECT_GT(spilled.counters.spill_bytes, 0u) << where;
        if (budget.leaf_level == 0) {
          EXPECT_EQ(spilled.counters.spill_partitions, kSpillFanout) << where;
        } else {
          EXPECT_GT(spilled.counters.spill_partitions, kSpillFanout) << where;
        }
        EXPECT_EQ(spilled.counters.pgq_executions, leaves) << where;
        EXPECT_TRUE(
            SameRowSequence(spilled.result.rows, unlimited.result.rows))
            << where;
      }
    }
    PhysOpPtr reference = LowerSql(sql, PartitionMode::kHash, 1,
                                   /*per_group=*/true);
    const Run spilled_reference = Execute(reference.get(), 1024, budget.bytes);
    EXPECT_EQ(spilled_reference.counters.pgq_executions, groups);
    EXPECT_TRUE(SameRowSequence(spilled_reference.result.rows,
                                unlimited.result.rows));
  }
}

TEST_F(LiftedGApplyTest, FallibleExpressionsOutsideSkippedRowsStayLifted) {
  // A division evaluated on every row per group too (a Project, a Filter
  // outside Exists and Apply inners), or one by a nonzero literal.
  ExpectLiftedMatchesPerGroup(
      "select gapply(select s, 1000 / (v + 1) from g where v % 7 > 2) "
      "from t group by k : g");
  ExpectLiftedMatchesPerGroup(
      "select gapply(select * from g where exists "
      "              (select v from g where v / 2 > 45)) from t group by k : g");
}

TEST_F(LiftedGApplyTest, RowsPerGroupExecutionSkipsStayPerGroup) {
  // In `e`, group 1 is x = [5, 0]: its Exists stops at 5 (10 / 5 > 1) and
  // never divides by 0. In `a`, group 2 is x = [0]: the Apply's outer
  // filter leaves it no row, so its inner (10 % 0) never runs. A lifted
  // plan would evaluate both, so these PGQs must stay per group and
  // succeed at every DOP, partition mode, batch size and memory budget.
  const auto add_table = [&](const std::string& name,
                             std::vector<std::pair<int64_t, int64_t>> kx) {
    Schema schema({{"k", TypeId::kInt64, name}, {"x", TypeId::kInt64, name}});
    std::vector<Row> rows;
    for (const auto& [k, x] : kx) rows.push_back({Value::Int(k), Value::Int(x)});
    ASSERT_TRUE(catalog_
                    .AddTable(MakeTable(name, std::move(schema),
                                        std::move(rows)))
                    .ok());
  };
  add_table("e", {{1, 5}, {1, 0}, {3, 20}, {3, 4}});
  add_table("a", {{1, 5}, {1, 7}, {2, 0}, {3, 20}, {3, 4}});
  const auto row = [](int64_t a, int64_t b, int64_t c) {
    return Row{Value::Int(a), Value::Int(b), Value::Int(c)};
  };
  struct Case {
    std::string sql;
    std::vector<Row> expected;
    uint64_t groups;
  };
  const std::vector<Case> cases = {
      {"select gapply(select * from g where exists "
       "              (select * from g where 10 / x > 1)) "
       "from e group by k : g",
       {row(1, 1, 5), row(1, 1, 0), row(3, 3, 20), row(3, 3, 4)},
       2},
      {"select gapply(select x, (select count(*) from g where 10 % x > 1) "
       "              from g where x > 0) "
       "from a group by k : g",
       {row(1, 5, 1), row(1, 7, 1), row(3, 20, 2), row(3, 4, 2)},
       3}};
  for (const Case& c : cases) {
    for (PartitionMode mode : {PartitionMode::kHash, PartitionMode::kSort}) {
      for (size_t dop : {size_t{1}, size_t{4}}) {
        for (size_t batch : {size_t{1}, size_t{1024}}) {
          for (size_t budget : {size_t{0}, size_t{64}}) {
            PhysOpPtr plan = LowerSql(c.sql, mode, dop);
            ASSERT_NE(plan, nullptr);
            EXPECT_FALSE(FindGApply(plan.get())->lifted())
                << plan->DebugString();
            const Run run = Execute(plan.get(), batch, budget);
            EXPECT_TRUE(SameRowSequence(run.result.rows, c.expected))
                << c.sql << "\nmode=" << PartitionModeName(mode)
                << " dop=" << dop << " batch=" << batch
                << " budget=" << budget << "\n"
                << run.result.ToString();
            EXPECT_EQ(run.counters.pgq_executions, c.groups);
            if (budget > 0 && mode == PartitionMode::kHash) {
              EXPECT_GT(run.counters.spill_bytes, 0u);
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace gapply
