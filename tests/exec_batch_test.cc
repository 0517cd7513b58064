// Differential tests for the batch execution layer: every operator must
// produce, at every batch size, exactly the rows a plain std:: loop over the
// generated input computes — the same multiset always, and the same
// sequence where the operator promises an order (Sort, Apply, GApply's
// gid order). The references share no code with the operators under test.
// Every emitted batch is also held to the hard capacity bound.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/row_batch.h"
#include "src/engine/database.h"
#include "src/exec/agg_ops.h"
#include "src/exec/apply_ops.h"
#include "src/exec/exchange_op.h"
#include "src/exec/filter_project_ops.h"
#include "src/exec/gapply_op.h"
#include "src/exec/join_ops.h"
#include "src/exec/scan_ops.h"
#include "src/expr/aggregate.h"
#include "src/expr/bytecode.h"
#include "src/expr/expr.h"
#include "src/storage/columnar.h"
#include "tests/differential_util.h"
#include "tests/test_util.h"

namespace gapply {
namespace {

using tutil::GroupedSchema;
using tutil::MakeTable;
using tutil::RandomGroupedRows;
using tutil::kDiffBatchSizes;

// Drives `root` batch by batch at `batch_size`, checking every batch
// against its capacity.
std::vector<Row> RunBatchPath(PhysOp* root, size_t batch_size,
                              ExecContext::Counters* counters = nullptr) {
  ExecContext ctx;
  ctx.set_batch_size(batch_size);
  std::vector<Row> rows;
  Status open = root->Open(&ctx);
  EXPECT_TRUE(open.ok()) << open.ToString();
  if (!open.ok()) return rows;
  RowBatch batch(batch_size);
  while (true) {
    Result<bool> more = root->NextBatch(&ctx, &batch);
    EXPECT_TRUE(more.ok()) << (more.ok() ? "" : more.status().ToString());
    if (!more.ok() || !*more) break;
    EXPECT_LE(batch.size(), batch.capacity()) << root->DebugName();
    for (Row& row : batch.rows()) rows.push_back(std::move(row));
  }
  Status close = root->Close(&ctx);
  EXPECT_TRUE(close.ok()) << close.ToString();
  if (counters != nullptr) *counters = SumWorkCounters(*root);
  return rows;
}

using PlanBuilder = std::function<PhysOpPtr()>;

// Executes a fresh plan from `build` at every batch size and compares it
// with `expected`.
void ExpectBatchesMatch(const PlanBuilder& build,
                        const std::vector<Row>& expected,
                        bool ordered = false) {
  for (size_t bs : kDiffBatchSizes) {
    PhysOpPtr plan = build();
    const std::vector<Row> got = RunBatchPath(plan.get(), bs);
    const std::string label = "batch_size=" + std::to_string(bs);
    if (ordered) {
      tutil::ExpectSameSequence(got, expected, label);
    } else {
      tutil::ExpectSameMultiset(got, expected, label);
    }
  }
}

// --- std:: reference helpers over GroupedSchema rows (k, v, d) ----------

int64_t K(const Row& row) { return row[0].int_val(); }
bool HasV(const Row& row) { return !row[1].is_null(); }
int64_t V(const Row& row) { return row[1].int_val(); }
double D(const Row& row) { return row[2].double_val(); }

Row Concat(const Row& a, const Row& b) {
  Row out = a;
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

// count(*), sum(v), avg(d) over `rows`, as SQL defines them (sum over no
// non-NULL v is NULL).
Row CountSumAvg(const std::vector<Row>& rows) {
  int64_t sum = 0;
  bool any_v = false;
  double dsum = 0;
  for (const Row& row : rows) {
    if (HasV(row)) {
      sum += V(row);
      any_v = true;
    }
    dsum += D(row);
  }
  Row out;
  out.push_back(Value::Int(static_cast<int64_t>(rows.size())));
  out.push_back(any_v ? Value::Int(sum) : Value::Null());
  out.push_back(rows.empty()
                    ? Value::Null()
                    : Value::Double(dsum / static_cast<double>(rows.size())));
  return out;
}

// Rows grouped on k, groups in first-appearance order, each group's rows
// in input order.
std::vector<std::pair<int64_t, std::vector<Row>>> GroupByK(
    const std::vector<Row>& rows) {
  std::vector<std::pair<int64_t, std::vector<Row>>> groups;
  std::map<int64_t, size_t> index;
  for (const Row& row : rows) {
    auto [it, inserted] = index.try_emplace(K(row), groups.size());
    if (inserted) groups.push_back({K(row), {}});
    groups[it->second].second.push_back(row);
  }
  return groups;
}

class BatchDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(42);
    rows_ = RandomGroupedRows(&rng, 500, 17, /*null_fraction=*/0.1);
    table_ = MakeTable("t", GroupedSchema(), rows_);
    Rng rng2(43);
    dim_rows_ = RandomGroupedRows(&rng2, 60, 17);
    dim_ = MakeTable("dim", GroupedSchema(), dim_rows_);
  }

  std::vector<Row> rows_;
  std::vector<Row> dim_rows_;
  std::unique_ptr<Table> table_;
  std::unique_ptr<Table> dim_;
};

TEST_F(BatchDifferentialTest, TableScan) {
  ExpectBatchesMatch(
      [this] { return std::make_unique<TableScanOp>(table_.get()); }, rows_,
      /*ordered=*/true);
}

TEST_F(BatchDifferentialTest, Filter) {
  std::vector<Row> expected;
  for (const Row& row : rows_) {
    if (HasV(row) && V(row) > 50) expected.push_back(row);
  }
  ExpectBatchesMatch(
      [this]() -> PhysOpPtr {
        auto scan = std::make_unique<TableScanOp>(table_.get());
        const Schema s = scan->output_schema();
        return std::make_unique<FilterOp>(
            std::move(scan), Gt(Col(s, "v"), Lit(int64_t{50})));
      },
      expected);
}

TEST_F(BatchDifferentialTest, Project) {
  std::vector<Row> expected;
  for (const Row& row : rows_) {
    expected.push_back({row[0], HasV(row) ? Value::Int(V(row) + 7) : Value(),
                        Value::Double(D(row) * 2.0)});
  }
  ExpectBatchesMatch(
      [this]() -> PhysOpPtr {
        auto scan = std::make_unique<TableScanOp>(table_.get());
        const Schema s = scan->output_schema();
        std::vector<ExprPtr> exprs;
        exprs.push_back(Col(s, "k"));
        exprs.push_back(Binary(BinaryOp::kAdd, Col(s, "v"), Lit(int64_t{7})));
        exprs.push_back(Binary(BinaryOp::kMultiply, Col(s, "d"), Lit(2.0)));
        Result<PhysOpPtr> p = ProjectOp::Make(std::move(scan),
                                              std::move(exprs),
                                              {"k", "v7", "d2"});
        EXPECT_TRUE(p.ok());
        return std::move(p).value();
      },
      expected);
}

TEST_F(BatchDifferentialTest, FilterThenProject) {
  std::vector<Row> expected;
  for (const Row& row : rows_) {
    if (HasV(row) && V(row) <= 80) {
      expected.push_back({Value::Int(V(row) - K(row))});
    }
  }
  ExpectBatchesMatch(
      [this]() -> PhysOpPtr {
        auto scan = std::make_unique<TableScanOp>(table_.get());
        const Schema s = scan->output_schema();
        auto filter = std::make_unique<FilterOp>(
            std::move(scan), Le(Col(s, "v"), Lit(int64_t{80})));
        std::vector<ExprPtr> exprs;
        exprs.push_back(Binary(BinaryOp::kSubtract, Col(s, "v"), Col(s, "k")));
        Result<PhysOpPtr> p =
            ProjectOp::Make(std::move(filter), std::move(exprs), {"vk"});
        EXPECT_TRUE(p.ok());
        return std::move(p).value();
      },
      expected);
}

TEST_F(BatchDifferentialTest, SortIsOrderPreserving) {
  // k ascending, then v descending with NULL sorting lowest (so last);
  // ties keep input order.
  std::vector<Row> expected = rows_;
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Row& a, const Row& b) {
                     if (K(a) != K(b)) return K(a) < K(b);
                     if (HasV(a) != HasV(b)) return HasV(a);
                     return HasV(a) && V(a) > V(b);
                   });
  ExpectBatchesMatch(
      [this]() -> PhysOpPtr {
        auto scan = std::make_unique<TableScanOp>(table_.get());
        return std::make_unique<SortOp>(
            std::move(scan), std::vector<SortKey>{{0, true}, {1, false}});
      },
      expected, /*ordered=*/true);
}

TEST_F(BatchDifferentialTest, HashJoin) {
  std::vector<Row> expected;
  for (const Row& probe : rows_) {
    for (const Row& build : dim_rows_) {
      if (K(probe) == K(build)) expected.push_back(Concat(probe, build));
    }
  }
  ExpectBatchesMatch(
      [this]() -> PhysOpPtr {
        auto probe = std::make_unique<TableScanOp>(table_.get());
        auto build = std::make_unique<TableScanOp>(dim_.get());
        return std::make_unique<HashJoinOp>(std::move(probe), std::move(build),
                                            std::vector<int>{0},
                                            std::vector<int>{0});
      },
      expected);
}

TEST_F(BatchDifferentialTest, HashJoinWithResidual) {
  std::vector<Row> expected;
  for (const Row& probe : rows_) {
    for (const Row& build : dim_rows_) {
      if (K(probe) == K(build) && HasV(probe) && V(probe) < V(build)) {
        expected.push_back(Concat(probe, build));
      }
    }
  }
  ExpectBatchesMatch(
      [this]() -> PhysOpPtr {
        auto probe = std::make_unique<TableScanOp>(table_.get());
        auto build = std::make_unique<TableScanOp>(dim_.get());
        const Schema joined =
            Schema::Concat(probe->output_schema(), build->output_schema());
        return std::make_unique<HashJoinOp>(
            std::move(probe), std::move(build), std::vector<int>{0},
            std::vector<int>{0}, Lt(Col(joined, 1), Col(joined, 4)));
      },
      expected);
}

TEST_F(BatchDifferentialTest, NestedLoopJoin) {
  std::vector<Row> expected;
  for (const Row& left : rows_) {
    for (const Row& right : dim_rows_) {
      if (HasV(left) && V(left) + K(right) == V(right)) {
        expected.push_back(Concat(left, right));
      }
    }
  }
  ExpectBatchesMatch(
      [this]() -> PhysOpPtr {
        auto left = std::make_unique<TableScanOp>(table_.get());
        auto right = std::make_unique<TableScanOp>(dim_.get());
        const Schema joined =
            Schema::Concat(left->output_schema(), right->output_schema());
        return std::make_unique<NestedLoopJoinOp>(
            std::move(left), std::move(right),
            Eq(Binary(BinaryOp::kAdd, Col(joined, 1), Col(joined, 3)),
               Col(joined, 4)));
      },
      expected, /*ordered=*/true);
}

TEST_F(BatchDifferentialTest, CorrelatedApply) {
  // Per outer row, the dim rows sharing its k, in dim order.
  std::vector<Row> expected;
  for (const Row& outer : rows_) {
    for (const Row& inner : dim_rows_) {
      if (K(inner) == K(outer)) expected.push_back(Concat(outer, inner));
    }
  }
  ExpectBatchesMatch(
      [this]() -> PhysOpPtr {
        auto outer = std::make_unique<TableScanOp>(table_.get());
        auto inner = std::make_unique<TableScanOp>(dim_.get());
        const Schema is = inner->output_schema();
        auto filter = std::make_unique<FilterOp>(
            std::move(inner),
            Eq(Col(is, "k"), std::make_unique<CorrelatedColumnRefExpr>(
                                 0, 0, TypeId::kInt64, "t.k")));
        return std::make_unique<ApplyOp>(std::move(outer), std::move(filter));
      },
      expected, /*ordered=*/true);
}

TEST_F(BatchDifferentialTest, ApplyWithCachedInner) {
  std::vector<Row> inner_rows;
  for (const Row& inner : dim_rows_) {
    if (V(inner) > 90) inner_rows.push_back(inner);
  }
  std::vector<Row> expected;
  for (const Row& outer : rows_) {
    for (const Row& inner : inner_rows) {
      expected.push_back(Concat(outer, inner));
    }
  }
  ExpectBatchesMatch(
      [this]() -> PhysOpPtr {
        auto outer = std::make_unique<TableScanOp>(table_.get());
        auto inner = std::make_unique<TableScanOp>(dim_.get());
        const Schema is = inner->output_schema();
        auto filter = std::make_unique<FilterOp>(
            std::move(inner), Gt(Col(is, "v"), Lit(int64_t{90})));
        return std::make_unique<ApplyOp>(std::move(outer), std::move(filter),
                                         /*cache_uncorrelated_inner=*/true);
      },
      expected, /*ordered=*/true);
}

TEST_F(BatchDifferentialTest, HashGroupBy) {
  std::vector<Row> expected;
  for (const auto& [k, group] : GroupByK(rows_)) {
    expected.push_back(Concat({Value::Int(k)}, CountSumAvg(group)));
  }
  ExpectBatchesMatch(
      [this]() -> PhysOpPtr {
        auto scan = std::make_unique<TableScanOp>(table_.get());
        const Schema s = scan->output_schema();
        std::vector<AggregateDesc> aggs;
        aggs.push_back(CountStar("cnt"));
        aggs.push_back(Sum(Col(s, "v"), "sum_v"));
        aggs.push_back(Avg(Col(s, "d"), "avg_d"));
        return std::make_unique<HashGroupByOp>(
            std::move(scan), std::vector<int>{0}, std::move(aggs));
      },
      expected);
}

TEST_F(BatchDifferentialTest, ScalarAgg) {
  const Row agg = CountSumAvg(rows_);
  ExpectBatchesMatch(
      [this]() -> PhysOpPtr {
        auto scan = std::make_unique<TableScanOp>(table_.get());
        const Schema s = scan->output_schema();
        std::vector<AggregateDesc> aggs;
        aggs.push_back(CountStar("cnt"));
        aggs.push_back(Sum(Col(s, "v"), "sum_v"));
        return std::make_unique<ScalarAggOp>(std::move(scan),
                                             std::move(aggs));
      },
      {{agg[0], agg[1]}});
}

TEST_F(BatchDifferentialTest, Distinct) {
  std::vector<Row> expected;
  std::set<std::pair<int64_t, std::optional<int64_t>>> seen;
  for (const Row& row : rows_) {
    const std::optional<int64_t> v =
        HasV(row) ? std::optional<int64_t>(V(row)) : std::nullopt;
    if (seen.insert({K(row), v}).second) expected.push_back({row[0], row[1]});
  }
  ExpectBatchesMatch(
      [this]() -> PhysOpPtr {
        auto scan = std::make_unique<TableScanOp>(table_.get());
        const Schema s = scan->output_schema();
        // Project to (k, v) so duplicates actually occur.
        std::vector<ExprPtr> exprs;
        exprs.push_back(Col(s, "k"));
        exprs.push_back(Col(s, "v"));
        Result<PhysOpPtr> p =
            ProjectOp::Make(std::move(scan), std::move(exprs), {"k", "v"});
        EXPECT_TRUE(p.ok());
        return std::make_unique<DistinctOp>(std::move(p).value());
      },
      expected, /*ordered=*/true);
}

TEST_F(BatchDifferentialTest, UnionAll) {
  std::vector<Row> expected = rows_;
  expected.insert(expected.end(), dim_rows_.begin(), dim_rows_.end());
  expected.insert(expected.end(), rows_.begin(), rows_.end());
  ExpectBatchesMatch(
      [this]() -> PhysOpPtr {
        std::vector<PhysOpPtr> branches;
        branches.push_back(std::make_unique<TableScanOp>(table_.get()));
        branches.push_back(std::make_unique<TableScanOp>(dim_.get()));
        branches.push_back(std::make_unique<TableScanOp>(table_.get()));
        Result<PhysOpPtr> u = UnionAllOp::Make(std::move(branches));
        EXPECT_TRUE(u.ok());
        return std::move(u).value();
      },
      expected, /*ordered=*/true);
}

// ---------------------------------------------------------------------------
// GApply: both partition modes x parallelism {1, 4}, identity / agg /
// filter PGQs, against a std:: reference in gid order: grouping-column
// order when partitioning by sorting, first appearance when hashing.
// ---------------------------------------------------------------------------

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
      std::move(scan), Ge(Col(gs, "v"), Lit(int64_t{50})));
}

std::vector<Row> IdentityRef(const std::vector<Row>& group) { return group; }

std::vector<Row> AggRef(const std::vector<Row>& group) {
  return {CountSumAvg(group)};
}

std::vector<Row> FilterRef(const std::vector<Row>& group) {
  std::vector<Row> out;
  for (const Row& row : group) {
    if (HasV(row) && V(row) >= 50) out.push_back(row);
  }
  return out;
}

class GApplyBatchTest
    : public ::testing::TestWithParam<std::tuple<PartitionMode, size_t>> {};

TEST_P(GApplyBatchTest, BatchMatchesRowsForAllPgqShapes) {
  const auto [mode, dop] = GetParam();
  Rng rng(7);
  const std::vector<Row> rows = RandomGroupedRows(&rng, 400, 23, 0.05);
  auto table = MakeTable("t", GroupedSchema(), rows);
  std::vector<std::pair<int64_t, std::vector<Row>>> groups = GroupByK(rows);
  if (mode == PartitionMode::kSort) {
    std::sort(groups.begin(), groups.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
  }

  using PgqBuilder =
      std::function<PhysOpPtr(const Schema&, const std::string&)>;
  using PgqReference = std::function<std::vector<Row>(const std::vector<Row>&)>;
  const std::pair<PgqBuilder, PgqReference> pgqs[] = {
      {IdentityPgq, IdentityRef}, {AggPgq, AggRef}, {FilterPgq, FilterRef}};
  for (const auto& [pgq, reference] : pgqs) {
    std::vector<Row> expected;
    for (const auto& [k, group] : groups) {
      for (const Row& row : reference(group)) {
        expected.push_back(Concat({Value::Int(k)}, row));
      }
    }
    for (size_t bs : kDiffBatchSizes) {
      auto outer = std::make_unique<TableScanOp>(table.get());
      const Schema gs = outer->output_schema();
      GApplyOp plan(std::move(outer), std::vector<int>{0}, "g", pgq(gs, "g"),
                    mode, dop);
      const std::vector<Row> got = RunBatchPath(&plan, bs);
      tutil::ExpectSameSequence(got, expected,
                                std::string(PartitionModeName(mode)) +
                                    " dop=" + std::to_string(dop) +
                                    " batch_size=" + std::to_string(bs));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndThreads, GApplyBatchTest,
    ::testing::Combine(::testing::Values(PartitionMode::kSort,
                                         PartitionMode::kHash),
                       ::testing::Values(size_t{1}, size_t{4})),
    [](const ::testing::TestParamInfo<GApplyBatchTest::ParamType>& info) {
      return std::string(PartitionModeName(std::get<0>(info.param))) +
             "_dop" + std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Batch plumbing details.
// ---------------------------------------------------------------------------

TEST(RowBatchTest, CapacityContract) {
  RowBatch b(4);
  EXPECT_EQ(b.capacity(), 4u);
  EXPECT_TRUE(b.empty());
  for (int i = 0; i < 4; ++i) b.Add({Value::Int(i)});
  EXPECT_TRUE(b.full());
  EXPECT_EQ(b.size(), 4u);
  b.Clear();
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.capacity(), 4u);
  // Zero clamps to 1 so full() can ever become true.
  RowBatch one(0);
  EXPECT_EQ(one.capacity(), 1u);
}

TEST(BatchCountersTest, BatchesProducedAndFillTracked) {
  Rng rng(9);
  auto t2 = MakeTable("t2", GroupedSchema(), RandomGroupedRows(&rng, 100, 5));
  TableScanOp scan(t2.get());
  ExecContext::Counters counters;
  const std::vector<Row> got = RunBatchPath(&scan, 32, &counters);
  EXPECT_EQ(got.size(), 100u);
  // 100 rows at batch 32 → 4 batches (32+32+32+4), average fill 25.
  EXPECT_EQ(counters.batches_produced, 4u);
  EXPECT_EQ(counters.batch_rows_produced, 100u);
}

TEST(BatchExprTest, EvalBatchMatchesEvalForFastAndSlowPaths) {
  Schema s({{"a", TypeId::kInt64, "t"}, {"b", TypeId::kDouble, "t"}});
  RowBatch batch(8);
  batch.Add({Value::Int(1), Value::Double(0.5)});
  batch.Add({Value::Int(-3), Value::Double(2.5)});
  batch.Add({Value::Null(), Value::Double(1.0)});
  batch.Add({Value::Int(7), Value::Double(-4.0)});

  // Typed instructions (leaf ⊕ leaf, a nested tree, a bare constant) and
  // boxed ones (negating the NULL literal, adding a string to NULL).
  std::vector<ExprPtr> exprs;
  exprs.push_back(Binary(BinaryOp::kAdd, Col(s, "a"), Lit(int64_t{10})));
  exprs.push_back(Gt(Col(s, "b"), Lit(1.0)));
  exprs.push_back(Binary(BinaryOp::kMultiply,
                         Binary(BinaryOp::kAdd, Col(s, "a"), Col(s, "a")),
                         Lit(int64_t{2})));
  exprs.push_back(Lit(int64_t{99}));
  exprs.push_back(Unary(UnaryOp::kNegate, Lit(Value::Null())));
  exprs.push_back(Binary(BinaryOp::kAdd, Lit("x"), Lit(Value::Null())));

  EvalContext ev;
  for (const ExprPtr& e : exprs) {
    ASSIGN_OR_FAIL(std::unique_ptr<ExprProgram> program,
                   ExprProgram::Compile(*e));
    std::vector<Value> out;
    Status st = program->EvalBatch(batch, ev, &out);
    ASSERT_TRUE(st.ok()) << st.ToString();
    ASSERT_EQ(out.size(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      ASSIGN_OR_FAIL(Value expected, e->Eval(batch[i], ev));
      EXPECT_TRUE(out[i].Equals(expected))
          << e->ToString() << " row " << i << ": " << out[i].ToString()
          << " vs " << expected.ToString();
    }
  }
}

// ---------------------------------------------------------------------------
// Columnar vs row storage. The columnar read path — dense arrays, pushed
// predicates, zone-map pruning — must reproduce the row-store stream
// bit-for-bit (both layouts preserve insertion order) across
// DOP {1, 8} x batch {1, 1024} x predicate shapes.
// ---------------------------------------------------------------------------

BinaryOp ToBinaryOp(value_ops::CmpOp op) {
  switch (op) {
    case value_ops::CmpOp::kEq: return BinaryOp::kEq;
    case value_ops::CmpOp::kNe: return BinaryOp::kNe;
    case value_ops::CmpOp::kLt: return BinaryOp::kLt;
    case value_ops::CmpOp::kLe: return BinaryOp::kLe;
    case value_ops::CmpOp::kGt: return BinaryOp::kGt;
    case value_ops::CmpOp::kGe: return BinaryOp::kGe;
  }
  return BinaryOp::kEq;
}

/// The same conjunction as an ordinary filter expression, for the row-store
/// baseline plan.
ExprPtr PredsToExpr(const Schema& s, const std::vector<ScanPredicate>& preds) {
  ExprPtr out;
  for (const ScanPredicate& p : preds) {
    ExprPtr leaf =
        Binary(ToBinaryOp(p.op), Col(s, p.column), Lit(p.literal));
    out = out == nullptr
              ? std::move(leaf)
              : Binary(BinaryOp::kAnd, std::move(out), std::move(leaf));
  }
  return out;
}

Schema MixedSchema() {
  return Schema({{"k", TypeId::kInt64, "t"},
                 {"v", TypeId::kInt64, "t"},
                 {"d", TypeId::kDouble, "t"},
                 {"s", TypeId::kString, "t"},
                 {"b", TypeId::kBool, "t"}});
}

std::vector<Row> MixedRows(Rng* rng, int n, double null_fraction) {
  const char* words[] = {"ada", "byron", "curie", "darwin", "euler"};
  std::vector<Row> rows;
  rows.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto maybe_null = [&](Value v) {
      return rng->Bernoulli(null_fraction) ? Value::Null() : std::move(v);
    };
    Row row;
    row.push_back(Value::Int(i));  // clustered key
    row.push_back(maybe_null(Value::Int(rng->UniformInt(0, 100))));
    row.push_back(maybe_null(Value::Double(rng->UniformDouble(0.0, 1.0))));
    row.push_back(maybe_null(Value::Str(words[i % 5])));
    row.push_back(maybe_null(Value::Bool(i % 3 == 0)));
    rows.push_back(std::move(row));
  }
  return rows;
}

class ColumnarStorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(77);
    table_ = MakeTable("t", MixedSchema(), MixedRows(&rng, 2000, 0.1));
  }

  /// Row-store baseline: a scan with no pushed predicates reads the row
  /// store; predicates (if any) are evaluated by a FilterOp above it.
  PhysOpPtr RowStorePlan(const std::vector<ScanPredicate>& preds) {
    auto scan = std::make_unique<TableScanOp>(table_.get());
    if (preds.empty()) return scan;
    ExprPtr pred = PredsToExpr(scan->output_schema(), preds);
    return std::make_unique<FilterOp>(std::move(scan), std::move(pred));
  }

  /// Columnar candidate: predicates pushed into the scan itself.
  PhysOpPtr ColumnarPlan(std::vector<ScanPredicate> preds) {
    auto scan = std::make_unique<TableScanOp>(table_.get());
    scan->PushPredicates(std::move(preds));
    return scan;
  }

  void ExpectStorageEquivalence(const std::vector<ScanPredicate>& preds,
                                const std::string& label) {
    PhysOpPtr baseline = RowStorePlan(preds);
    const std::vector<Row> expected = RunBatchPath(baseline.get(), 1024);
    for (size_t dop : {size_t{1}, size_t{8}}) {
      for (size_t batch : {size_t{1}, size_t{1024}}) {
        PhysOpPtr plan = ColumnarPlan(preds);
        if (dop > 1) {
          plan = std::make_unique<ExchangeOp>(std::move(plan), dop,
                                              /*morsel_rows=*/256);
        }
        const std::vector<Row> got = RunBatchPath(plan.get(), batch);
        tutil::ExpectSameSequence(
            got, expected,
            label + " dop=" + std::to_string(dop) +
                " batch=" + std::to_string(batch));
      }
    }
  }

  std::unique_ptr<Table> table_;
};

TEST_F(ColumnarStorageTest, ScanWithoutPredicates) {
  ExpectStorageEquivalence({}, "no-preds");
}

TEST_F(ColumnarStorageTest, IntEquality) {
  ExpectStorageEquivalence({{1, value_ops::CmpOp::kEq, Value::Int(42)}},
                           "v=42");
}

TEST_F(ColumnarStorageTest, IntRangeConjunction) {
  ExpectStorageEquivalence({{1, value_ops::CmpOp::kGe, Value::Int(20)},
                            {1, value_ops::CmpOp::kLt, Value::Int(60)}},
                           "20<=v<60");
}

TEST_F(ColumnarStorageTest, ClusteredKeyRangePrunes) {
  // k is clustered (k = row index), so zone maps refute whole morsels.
  ExpectStorageEquivalence({{0, value_ops::CmpOp::kLt, Value::Int(100)}},
                           "k<100");
  ExpectStorageEquivalence({{0, value_ops::CmpOp::kGe, Value::Int(1990)}},
                           "k>=1990");
  // Empty result: every morsel pruned.
  ExpectStorageEquivalence({{0, value_ops::CmpOp::kLt, Value::Int(0)}},
                           "k<0");
}

TEST_F(ColumnarStorageTest, DoublePredicate) {
  ExpectStorageEquivalence({{2, value_ops::CmpOp::kLe, Value::Double(0.25)}},
                           "d<=0.25");
}

TEST_F(ColumnarStorageTest, IntColumnVsDoubleLiteral) {
  ExpectStorageEquivalence({{1, value_ops::CmpOp::kGt, Value::Double(49.5)}},
                           "v>49.5");
}

TEST_F(ColumnarStorageTest, StringEqualityAndInequality) {
  ExpectStorageEquivalence({{3, value_ops::CmpOp::kEq, Value::Str("curie")}},
                           "s='curie'");
  ExpectStorageEquivalence({{3, value_ops::CmpOp::kNe, Value::Str("ada")}},
                           "s<>'ada'");
  ExpectStorageEquivalence({{3, value_ops::CmpOp::kEq, Value::Str("nobody")}},
                           "s='nobody'");
}

TEST_F(ColumnarStorageTest, BoolPredicate) {
  ExpectStorageEquivalence({{4, value_ops::CmpOp::kEq, Value::Bool(true)}},
                           "b=true");
}

TEST_F(ColumnarStorageTest, MultiColumnConjunction) {
  ExpectStorageEquivalence({{1, value_ops::CmpOp::kGe, Value::Int(10)},
                            {3, value_ops::CmpOp::kEq, Value::Str("euler")},
                            {2, value_ops::CmpOp::kLt, Value::Double(0.8)}},
                           "v>=10 and s='euler' and d<0.8");
}

TEST_F(ColumnarStorageTest, PushedPredicatesUnderResidualFilter) {
  // Mixed shape lowering produces: pushable conjuncts in the scan, the
  // non-pushable remainder in a FilterOp above it.
  const std::vector<ScanPredicate> pushed = {
      {1, value_ops::CmpOp::kGe, Value::Int(5)}};
  auto residual = [&](const Schema& s) {
    // v + k is not `col <op> const`, so it stays a residual.
    return Gt(Binary(BinaryOp::kAdd, Col(s, "v"), Col(s, "k")),
              Lit(int64_t{500}));
  };

  auto row_scan = std::make_unique<TableScanOp>(table_.get());
  const Schema s = row_scan->output_schema();
  auto baseline = std::make_unique<FilterOp>(
      std::move(row_scan),
      Binary(BinaryOp::kAnd, PredsToExpr(s, pushed), residual(s)));
  const std::vector<Row> expected = RunBatchPath(baseline.get(), 1024);

  for (size_t batch : {size_t{1}, size_t{1024}}) {
    auto scan = std::make_unique<TableScanOp>(table_.get());
    scan->PushPredicates(pushed);
    auto candidate =
        std::make_unique<FilterOp>(std::move(scan), residual(s));
    tutil::ExpectSameSequence(RunBatchPath(candidate.get(), batch), expected,
                              "residual batch=" + std::to_string(batch));
  }
}

TEST(ColumnarStorageEdgeTest, NullHeavyTable) {
  Rng rng(78);
  auto table = MakeTable("t", MixedSchema(), MixedRows(&rng, 1500, 0.9));
  const std::vector<std::vector<ScanPredicate>> pred_sets = {
      {{1, value_ops::CmpOp::kGe, Value::Int(0)}},
      {{3, value_ops::CmpOp::kEq, Value::Str("ada")}},
      {{4, value_ops::CmpOp::kEq, Value::Bool(false)}},
  };
  for (const auto& preds : pred_sets) {
    auto row_scan = std::make_unique<TableScanOp>(table.get());
    auto baseline = std::make_unique<FilterOp>(
        std::move(row_scan), PredsToExpr(table->schema(), preds));
    const std::vector<Row> expected = RunBatchPath(baseline.get(), 1024);
    auto scan = std::make_unique<TableScanOp>(table.get());
    scan->PushPredicates(preds);
    tutil::ExpectSameSequence(RunBatchPath(scan.get(), 1024), expected,
                              "null-heavy " + preds[0].ToString(
                                  table->schema()));
  }
}

TEST(ColumnarStorageEdgeTest, AllStringTable) {
  Schema schema({{"a", TypeId::kString, "t"}, {"b", TypeId::kString, "t"}});
  std::vector<Row> rows;
  const char* names[] = {"x", "y", "z", "w"};
  for (int i = 0; i < 500; ++i) {
    rows.push_back({i % 13 == 0 ? Value::Null() : Value::Str(names[i % 4]),
                    Value::Str(names[(i / 4) % 4])});
  }
  auto table = MakeTable("t", schema, std::move(rows));
  const std::vector<ScanPredicate> preds = {
      {0, value_ops::CmpOp::kGe, Value::Str("y")},
      {1, value_ops::CmpOp::kNe, Value::Str("w")}};
  auto row_scan = std::make_unique<TableScanOp>(table.get());
  auto baseline = std::make_unique<FilterOp>(std::move(row_scan),
                                             PredsToExpr(schema, preds));
  const std::vector<Row> expected = RunBatchPath(baseline.get(), 1024);
  ASSERT_FALSE(expected.empty());
  auto scan = std::make_unique<TableScanOp>(table.get());
  scan->PushPredicates(preds);
  tutil::ExpectSameSequence(RunBatchPath(scan.get(), 1024), expected,
                            "all-string");
}

TEST(ColumnarStorageEdgeTest, PruningCountersBookMorselSkips) {
  // Clustered key over 5 storage morsels; k < 100 lives entirely in the
  // first, so the scan must visit 1 morsel and prune 4.
  Schema schema({{"k", TypeId::kInt64, "t"}});
  std::vector<Row> rows;
  const size_t n = 5 * ColumnarTable::kMorselRows;
  for (size_t i = 0; i < n; ++i) {
    rows.push_back({Value::Int(static_cast<int64_t>(i))});
  }
  auto table = MakeTable("t", schema, std::move(rows));
  TableScanOp scan(table.get());
  scan.PushPredicates({{0, value_ops::CmpOp::kLt, Value::Int(100)}});
  ExecContext::Counters counters;
  const std::vector<Row> got = RunBatchPath(&scan, 1024, &counters);
  EXPECT_EQ(got.size(), 100u);
  EXPECT_EQ(counters.morsels_scanned, 1u);
  EXPECT_EQ(counters.morsels_pruned, 4u);
}

TEST(ColumnarStorageEdgeTest, StringEqualityAbsentFromDictionaryPrunesAll) {
  // "melon" sorts inside every morsel's [apple, zebra] range, so the zone
  // maps cannot refute `s = 'melon'`; that the dictionary never interned
  // it can, for every morsel. `<>` keeps scanning every row.
  Schema schema({{"s", TypeId::kString, "t"}});
  std::vector<Row> rows;
  const char* names[] = {"apple", "kiwi", "zebra"};
  const size_t n = 3 * ColumnarTable::kMorselRows + 100;
  for (size_t i = 0; i < n; ++i) rows.push_back({Value::Str(names[i % 3])});
  auto table = MakeTable("t", schema, std::move(rows));

  struct Case {
    value_ops::CmpOp op;
    size_t rows, pruned, evaluated;
  };
  for (const Case& c : {Case{value_ops::CmpOp::kEq, 0, 4, 0},
                        Case{value_ops::CmpOp::kNe, n, 0, n}}) {
    for (size_t dop : {1u, 4u}) {
      for (size_t batch : {1u, 1024u}) {
        auto scan = std::make_unique<TableScanOp>(table.get());
        scan->PushPredicates({{0, c.op, Value::Str("melon")}});
        PhysOpPtr plan = std::move(scan);
        if (dop > 1) {
          plan = std::make_unique<ExchangeOp>(std::move(plan), dop,
                                              ColumnarTable::kMorselRows);
        }
        ExecContext ctx;
        ctx.set_batch_size(batch);
        Result<QueryResult> r = ExecuteToVector(plan.get(), &ctx);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        const ExecContext::Counters got = SumWorkCounters(*plan);
        const std::string where = "op=" + std::to_string(int(c.op)) +
                                  " dop=" + std::to_string(dop) +
                                  " batch=" + std::to_string(batch);
        EXPECT_EQ(r->rows.size(), c.rows) << where;
        EXPECT_EQ(got.morsels_pruned, c.pruned) << where;
        EXPECT_EQ(got.morsels_scanned, 4 - c.pruned) << where;
        EXPECT_EQ(got.scan_rows_evaluated, c.evaluated) << where;
      }
    }
  }
}

TEST(ColumnarStorageEdgeTest, PruningInsideExchangeMorselDriver) {
  // Exchange morsels (odd-sized, smaller than storage morsels) intersect
  // storage morsels; pruning still fires and results stay bit-for-bit.
  Schema schema({{"k", TypeId::kInt64, "t"}, {"v", TypeId::kInt64, "t"}});
  std::vector<Row> rows;
  const size_t n = 3 * ColumnarTable::kMorselRows + 17;
  for (size_t i = 0; i < n; ++i) {
    rows.push_back({Value::Int(static_cast<int64_t>(i)),
                    Value::Int(static_cast<int64_t>(i % 91))});
  }
  auto table = MakeTable("t", schema, std::move(rows));
  const std::vector<ScanPredicate> preds = {
      {0, value_ops::CmpOp::kGe,
       Value::Int(static_cast<int64_t>(n) - 50)}};

  auto row_scan = std::make_unique<TableScanOp>(table.get());
  auto baseline = std::make_unique<FilterOp>(std::move(row_scan),
                                             PredsToExpr(schema, preds));
  const std::vector<Row> expected = RunBatchPath(baseline.get(), 1024);
  ASSERT_EQ(expected.size(), 50u);

  auto scan = std::make_unique<TableScanOp>(table.get());
  scan->PushPredicates(preds);
  ExchangeOp ex(std::move(scan), /*parallelism=*/8, /*morsel_rows=*/997);
  ExecContext ctx;
  ctx.set_batch_size(1024);
  Result<QueryResult> r = ExecuteToVector(&ex, &ctx);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  tutil::ExpectSameSequence(r->rows, expected, "exchange-pruning");
  EXPECT_GT(SumWorkCounters(ex).morsels_pruned, 0u);
}

// ---------------------------------------------------------------------------
// Sorted-column narrowing (ColumnarTable::NarrowMorsel), on the 12,800-row
// SortedRunRows table.
// ---------------------------------------------------------------------------

// The exact scan_rows_evaluated of a scan of `preds` over `table`: nothing
// for a zone-pruned morsel; in a morsel whose key column 0 is sorted
// (`sorted(m)`), the rows passing every int-literal, non-`<>` key conjunct;
// in any other morsel, all its rows.
uint64_t ExpectedRowsEvaluated(const Table& table,
                               const std::vector<ScanPredicate>& preds,
                               const std::function<bool(size_t)>& sorted) {
  const ColumnarTable& ct = table.columnar();
  std::vector<ScanPredicate> narrowing;
  for (const ScanPredicate& p : preds) {
    if (p.column == 0 && p.op != value_ops::CmpOp::kNe &&
        p.literal.type() == TypeId::kInt64) {
      narrowing.push_back(p);
    }
  }
  uint64_t total = 0;
  for (size_t m = 0; m < ct.num_morsels(); ++m) {
    if (ct.CanPruneMorsel(m, preds)) continue;
    const size_t lo = m * ColumnarTable::kMorselRows;
    const size_t hi = std::min(lo + ColumnarTable::kMorselRows, ct.num_rows());
    total += sorted(m) ? tutil::ScanReferenceSelection(ct, table.schema(),
                                                       narrowing, lo, hi)
                             .size()
                       : hi - lo;
  }
  return total;
}

std::vector<Row> RunPushedScan(const Table* table,
                               const std::vector<ScanPredicate>& preds,
                               size_t dop, size_t batch,
                               ExecContext::Counters* counters) {
  auto scan = std::make_unique<TableScanOp>(table);
  scan->PushPredicates(preds);
  PhysOpPtr plan = std::move(scan);
  // Exchange morsels of 997 rows start and end inside storage morsels.
  if (dop > 1) {
    plan = std::make_unique<ExchangeOp>(std::move(plan), dop,
                                        /*morsel_rows=*/997);
  }
  return RunBatchPath(plan.get(), batch, counters);
}

std::vector<Row> RunUnpushedFilter(const Table* table,
                                   const std::vector<ScanPredicate>& preds) {
  auto scan = std::make_unique<TableScanOp>(table);
  auto filter = std::make_unique<FilterOp>(
      std::move(scan), PredsToExpr(table->schema(), preds));
  return RunBatchPath(filter.get(), 1024);
}

TEST(SortedNarrowingTest, EveryCmpOpMatchesTheUnpushedFilter) {
  using value_ops::CmpOp;
  std::vector<std::vector<ScanPredicate>> pred_sets;
  for (const CmpOp op : {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt, CmpOp::kLe,
                         CmpOp::kGt, CmpOp::kGe}) {
    // 585's run straddles the first morsel boundary; 1300 sits in morsel
    // 2 (broken: one descent); the last two miss every row.
    for (const int64_t lit : {585, 1300, -5, 99999}) {
      pred_sets.push_back({{0, op, Value::Int(lit)}});
    }
  }
  pred_sets.push_back(
      {{0, CmpOp::kGe, Value::Int(580)}, {0, CmpOp::kLt, Value::Int(1000)}});
  pred_sets.push_back(
      {{0, CmpOp::kEq, Value::Int(585)}, {1, CmpOp::kEq, Value::Int(3)}});
  // An int column against a double literal never narrows.
  pred_sets.push_back({{0, CmpOp::kGt, Value::Double(1000.5)}});
  pred_sets.push_back({{0, CmpOp::kEq, Value::Double(585.0)}});
  for (const bool broken : {false, true}) {
    auto table =
        MakeTable("t", GroupedSchema(), tutil::SortedRunRows(broken));
    // Broken: morsel 1 holds one NULL key and morsel 2 one descent.
    const auto sorted = [&](size_t m) { return !broken || m == 0 || m == 3; };
    for (const auto& preds : pred_sets) {
      const std::vector<Row> expected = RunUnpushedFilter(table.get(), preds);
      const uint64_t want = ExpectedRowsEvaluated(*table, preds, sorted);
      for (const size_t dop : {size_t{1}, size_t{4}}) {
        for (const size_t batch : {size_t{1}, size_t{1024}}) {
          const std::string where =
              preds[0].ToString(table->schema()) + (broken ? " broken" : "") +
              " dop=" + std::to_string(dop) +
              " batch=" + std::to_string(batch);
          ExecContext::Counters counters;
          tutil::ExpectSameSequence(
              RunPushedScan(table.get(), preds, dop, batch, &counters),
              expected, where);
          EXPECT_EQ(counters.scan_rows_evaluated, want) << where;
        }
      }
    }
  }
}

TEST(SortedNarrowingTest, PointLookupEvaluatesOnlyItsRun) {
  using value_ops::CmpOp;
  auto clean = MakeTable("t", GroupedSchema(), tutil::SortedRunRows(false));
  auto broken = MakeTable("t", GroupedSchema(), tutil::SortedRunRows(true));
  const auto evaluated = [](const Table* table, int64_t key) {
    ExecContext::Counters counters;
    RunPushedScan(table, {{0, CmpOp::kEq, Value::Int(key)}}, 1, 1024,
                  &counters);
    return counters.scan_rows_evaluated;
  };
  // Key 585 is rows 4095..4101: one row in morsel 0, six in morsel 1.
  EXPECT_EQ(evaluated(clean.get(), 585), 7u);
  EXPECT_EQ(evaluated(clean.get(), 1000), 7u);
  // Broken, morsel 1 (one NULL) and morsel 2 (whose descent to key 0
  // widens its zone, so it no longer prunes) evaluate whole; morsel 0
  // still narrows.
  EXPECT_EQ(evaluated(broken.get(), 585), 1u + 2 * ColumnarTable::kMorselRows);
  EXPECT_EQ(evaluated(broken.get(), 1000), 2 * ColumnarTable::kMorselRows);
}

TEST(SortedNarrowingTest, AppendThatBreaksOrderFallsBackToTheWholeMorsel) {
  auto table = MakeTable("t", GroupedSchema(), tutil::SortedRunRows(false));
  const std::vector<ScanPredicate> preds = {
      {0, value_ops::CmpOp::kEq, Value::Int(1828)}};
  ExecContext::Counters counters;
  // Key 1828 is the last run, rows 12796..12799 of the 512-row tail morsel.
  EXPECT_EQ(RunPushedScan(table.get(), preds, 1, 1024, &counters).size(), 4u);
  EXPECT_EQ(counters.scan_rows_evaluated, 4u);

  ASSERT_TRUE(
      table->Append({Value::Int(1828), Value::Int(0), Value::Double(0)}).ok());
  EXPECT_EQ(RunPushedScan(table.get(), preds, 1, 1024, &counters).size(), 5u);
  EXPECT_EQ(counters.scan_rows_evaluated, 5u);

  // One descent: the mirror catches up, the flag drops, and the tail
  // morsel is evaluated whole.
  ASSERT_TRUE(
      table->Append({Value::Int(0), Value::Int(0), Value::Double(0)}).ok());
  tutil::ExpectSameSequence(
      RunPushedScan(table.get(), preds, 1, 1024, &counters),
      RunUnpushedFilter(table.get(), preds), "after descent");
  EXPECT_EQ(counters.scan_rows_evaluated, 514u);
}

// ---------------------------------------------------------------------------
// SetMorsel edge cases.
// ---------------------------------------------------------------------------

std::vector<Row> DrainScan(TableScanOp* scan, ExecContext* ctx) {
  std::vector<Row> rows;
  RowBatch batch(ctx->batch_size());
  while (true) {
    Result<bool> more = scan->NextBatch(ctx, &batch);
    EXPECT_TRUE(more.ok());
    if (!more.ok() || !*more) break;
    for (Row& row : batch.rows()) rows.push_back(std::move(row));
  }
  return rows;
}

TEST(TableScanMorselTest, RejectsInvertedRange) {
  Rng rng(5);
  auto table = MakeTable("t", GroupedSchema(), RandomGroupedRows(&rng, 50, 3));
  TableScanOp scan(table.get());
  scan.EnableMorselMode();
  ExecContext ctx;
  ASSERT_TRUE(scan.Open(&ctx).ok());
  ASSERT_TRUE(scan.SetMorsel(10, 20).ok());
  Status st = scan.SetMorsel(20, 10);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.ToString().find("inverted"), std::string::npos);
  // The previously armed range survives the rejected call.
  EXPECT_EQ(DrainScan(&scan, &ctx).size(), 10u);
  ASSERT_TRUE(scan.Close(&ctx).ok());
}

TEST(TableScanMorselTest, EmptyTableYieldsNothing) {
  auto table = std::make_unique<Table>("t", GroupedSchema());
  TableScanOp scan(table.get());
  scan.EnableMorselMode();
  ExecContext ctx;
  ASSERT_TRUE(scan.Open(&ctx).ok());
  ASSERT_TRUE(scan.SetMorsel(0, 64).ok());  // clamped to the empty table
  EXPECT_TRUE(DrainScan(&scan, &ctx).empty());
  ASSERT_TRUE(scan.Close(&ctx).ok());
}

TEST(TableScanMorselTest, MorselPastEndClampsToNothing) {
  Rng rng(6);
  auto table = MakeTable("t", GroupedSchema(), RandomGroupedRows(&rng, 50, 3));
  TableScanOp scan(table.get());
  scan.EnableMorselMode();
  ExecContext ctx;
  ASSERT_TRUE(scan.Open(&ctx).ok());
  ASSERT_TRUE(scan.SetMorsel(1000, 1064).ok());
  EXPECT_TRUE(DrainScan(&scan, &ctx).empty());
  // A morsel straddling the end clamps to the tail.
  ASSERT_TRUE(scan.SetMorsel(45, 1000).ok());
  EXPECT_EQ(DrainScan(&scan, &ctx).size(), 5u);
  ASSERT_TRUE(scan.Close(&ctx).ok());
}

TEST(TableScanMorselTest, ZeroWidthMorselYieldsNothingAndRearms) {
  Rng rng(7);
  auto table = MakeTable("t", GroupedSchema(), RandomGroupedRows(&rng, 50, 3));
  TableScanOp scan(table.get());
  scan.EnableMorselMode();
  ExecContext ctx;
  ASSERT_TRUE(scan.Open(&ctx).ok());
  ASSERT_TRUE(scan.SetMorsel(5, 5).ok());
  EXPECT_TRUE(DrainScan(&scan, &ctx).empty());
  // Re-arming after a zero-width morsel still works.
  ASSERT_TRUE(scan.SetMorsel(0, 50).ok());
  EXPECT_EQ(DrainScan(&scan, &ctx).size(), 50u);
  ASSERT_TRUE(scan.Close(&ctx).ok());
}

TEST(TableScanMorselTest, NarrowsInsideRangesThatStartAndEndMidMorsel) {
  auto table = MakeTable("t", GroupedSchema(), tutil::SortedRunRows(false));
  TableScanOp scan(table.get());
  scan.PushPredicates({{0, value_ops::CmpOp::kEq, Value::Int(585)}});
  scan.EnableMorselMode();
  ExecContext ctx;
  ASSERT_TRUE(scan.Open(&ctx).ok());
  // (rows out, rows evaluated) of one armed range.
  const auto drain = [&](size_t begin, size_t end) {
    EXPECT_TRUE(scan.SetMorsel(begin, end).ok());
    const uint64_t before = scan.runtime_profile().work.scan_rows_evaluated;
    const size_t rows = DrainScan(&scan, &ctx).size();
    return std::pair<size_t, uint64_t>(
        rows, scan.runtime_profile().work.scan_rows_evaluated - before);
  };
  // Key 585 is rows 4095..4101, across the first morsel boundary.
  EXPECT_EQ(drain(4000, 4200), (std::pair<size_t, uint64_t>(7, 7)));
  EXPECT_EQ(drain(4098, 4100), (std::pair<size_t, uint64_t>(2, 2)));
  // Morsel 1's zone (min 585) cannot prune these; narrowing empties them.
  EXPECT_EQ(drain(4102, 4200), (std::pair<size_t, uint64_t>(0, 0)));
  EXPECT_EQ(drain(100, 4095), (std::pair<size_t, uint64_t>(0, 0)));
  ASSERT_TRUE(scan.Close(&ctx).ok());
}

// ---------------------------------------------------------------------------
// LookupJoinOp against HashJoinOp: the same inputs must give the same row
// sequence at every batch size.
// ---------------------------------------------------------------------------

// Build rows (GroupedSchema) whose key is non-decreasing in runs of 1 to 9
// rows, skipping every sixth key so some probe keys find nothing. The
// 12-row run of `straddle` crosses the first 4,096-row storage morsel
// boundary, and `big` repeats 1,500 times, more than a 1,024-row batch
// holds. v = row % 13 and d = row / 4 are unsorted payloads.
struct LookupBuild {
  std::vector<Row> rows;
  int64_t straddle = 0;
  int64_t big = 0;
  int64_t max_key = 0;
};

LookupBuild MakeLookupBuild() {
  LookupBuild b;
  Rng rng(7);
  int64_t key = 0;
  const auto add_run = [&](size_t n) {
    for (size_t i = 0; i < n; ++i) {
      const size_t r = b.rows.size();
      b.rows.push_back({Value::Int(key), Value::Int(static_cast<int64_t>(r % 13)),
                        Value::Double(static_cast<double>(r) * 0.25)});
    }
    b.max_key = key;
    key += key % 6 == 5 ? 2 : 1;
  };
  const auto add_random_runs = [&](size_t until) {
    while (b.rows.size() + 9 < until) {
      add_run(static_cast<size_t>(rng.UniformInt(1, 9)));
    }
  };
  add_random_runs(ColumnarTable::kMorselRows);
  b.straddle = key;
  add_run(12);
  b.big = key;
  add_run(1500);
  add_random_runs(9000);
  return b;
}

// Every key from -1 to one past the largest once, `straddle` and `big`
// three times more, and five NULL keys, shuffled.
std::vector<Row> MakeLookupProbe(const LookupBuild& b) {
  std::vector<Value> keys;
  for (int64_t k = -1; k <= b.max_key + 1; ++k) keys.push_back(Value::Int(k));
  for (int i = 0; i < 3; ++i) {
    keys.push_back(Value::Int(b.straddle));
    keys.push_back(Value::Int(b.big));
  }
  for (int i = 0; i < 5; ++i) keys.push_back(Value::Null());
  Rng rng(11);
  for (size_t i = keys.size() - 1; i > 0; --i) {
    std::swap(keys[i], keys[static_cast<size_t>(rng.UniformInt(
                           0, static_cast<int64_t>(i)))]);
  }
  std::vector<Row> rows;
  for (size_t i = 0; i < keys.size(); ++i) {
    rows.push_back({keys[i], Value::Int(static_cast<int64_t>(i % 11)),
                    Value::Double(static_cast<double>(i))});
  }
  return rows;
}

struct LookupCase {
  std::string name;
  std::vector<ScanPredicate> pushed;  // on the build scan
  bool residual = false;              // probe v < build v
  bool null_safe = false;
};

// The join of `probe` and `build` on column 0, as a LookupJoinOp or as a
// HashJoinOp.
PhysOpPtr LookupCaseJoin(const Table* probe, const Table* build,
                         const LookupCase& c, bool lookup) {
  auto probe_scan = std::make_unique<TableScanOp>(probe);
  auto build_scan = std::make_unique<TableScanOp>(build);
  build_scan->PushPredicates(c.pushed);
  ExprPtr residual;
  if (c.residual) {
    const Schema joined = Schema::Concat(probe_scan->output_schema(),
                                         build_scan->output_schema());
    residual = Lt(Col(joined, 1), Col(joined, 4));
  }
  if (lookup) {
    return std::make_unique<LookupJoinOp>(std::move(probe_scan),
                                          std::move(build_scan), 0, 0,
                                          std::move(residual), c.null_safe);
  }
  return std::make_unique<HashJoinOp>(
      std::move(probe_scan), std::move(build_scan), std::vector<int>{0},
      std::vector<int>{0}, std::move(residual), 1, c.null_safe);
}

// Build rows a lookup fetches: for each non-NULL probe key, the rows of
// its run that pass `pushed`.
uint64_t ExpectedLookupFetches(const std::vector<Row>& probe,
                               const Table& build,
                               const std::vector<ScanPredicate>& pushed) {
  const std::vector<uint32_t> passing = tutil::ScanReferenceSelection(
      build.columnar(), build.schema(), pushed, 0, build.num_rows());
  std::map<int64_t, uint64_t> per_key;
  for (const uint32_t r : passing) per_key[K(build.rows()[r])]++;
  uint64_t total = 0;
  for (const Row& row : probe) {
    if (row[0].is_null()) continue;
    auto it = per_key.find(K(row));
    if (it != per_key.end()) total += it->second;
  }
  return total;
}

TEST(LookupJoinTest, MatchesHashJoinAtEveryBatchSize) {
  const LookupBuild b = MakeLookupBuild();
  const std::vector<Row> probe_rows = MakeLookupProbe(b);
  auto build = MakeTable("b", GroupedSchema(), b.rows);
  auto probe = MakeTable("p", GroupedSchema(), probe_rows);
  ASSERT_TRUE(build->columnar().ColumnSorted(0));
  ASSERT_EQ(build->rows()[ColumnarTable::kMorselRows - 1][0].int_val(),
            b.straddle);
  ASSERT_EQ(build->rows()[ColumnarTable::kMorselRows][0].int_val(),
            b.straddle);
  using value_ops::CmpOp;
  const std::vector<ScanPredicate> pushed = {
      {1, CmpOp::kNe, Value::Int(3)}, {2, CmpOp::kGt, Value::Double(10.0)}};
  const std::vector<LookupCase> cases = {
      {"plain", {}, false, false},
      {"null-safe", {}, false, true},
      {"pushed", pushed, false, false},
      {"residual", {}, true, false},
      {"pushed+residual,null-safe", pushed, true, true},
  };
  for (const LookupCase& c : cases) {
    const uint64_t fetched =
        ExpectedLookupFetches(probe_rows, *build, c.pushed);
    for (const size_t batch : kDiffBatchSizes) {
      const std::string where = c.name + " batch=" + std::to_string(batch);
      PhysOpPtr hash = LookupCaseJoin(probe.get(), build.get(), c, false);
      PhysOpPtr lookup = LookupCaseJoin(probe.get(), build.get(), c, true);
      ExecContext::Counters work;
      const std::vector<Row> want = RunBatchPath(hash.get(), batch);
      const std::vector<Row> got = RunBatchPath(lookup.get(), batch, &work);
      ASSERT_FALSE(want.empty()) << where;
      tutil::ExpectSameSequence(got, want, where);
      // The probe scan books its rows; the join books the build rows it
      // fetched, never the whole build table.
      EXPECT_EQ(work.rows_scanned, probe_rows.size() + fetched) << where;
    }
  }
}

TEST(LookupJoinTest, EmptyBuildTableMatchesNothing) {
  const LookupBuild b = MakeLookupBuild();
  auto build = MakeTable("b", GroupedSchema(), {});
  auto probe = MakeTable("p", GroupedSchema(), MakeLookupProbe(b));
  ASSERT_TRUE(build->columnar().ColumnSorted(0));
  for (const bool null_safe : {false, true}) {
    const LookupCase c{"empty", {}, false, null_safe};
    PhysOpPtr lookup = LookupCaseJoin(probe.get(), build.get(), c, true);
    EXPECT_TRUE(RunBatchPath(lookup.get(), 1024).empty());
  }
}

TEST(LookupJoinTest, RefusesABuildKeyThatIsNotSorted) {
  auto build = MakeTable("b", GroupedSchema(),
                         {{Value::Int(2), Value::Int(0), Value::Double(0)},
                          {Value::Int(1), Value::Int(0), Value::Double(0)}});
  auto probe = MakeTable("p", GroupedSchema(), {});
  ASSERT_FALSE(build->columnar().ColumnSorted(0));
  PhysOpPtr lookup =
      LookupCaseJoin(probe.get(), build.get(), {"unsorted", {}}, true);
  ExecContext ctx;
  EXPECT_FALSE(lookup->Open(&ctx).ok());
}

// Plan level: lowering picks the lookup join under columnar storage and
// the hash join under row storage, and both give the same sequence at
// every batch size and DOP, with an Exchange over the lookup join at DOP 4.
class LookupJoinPlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const LookupBuild b = MakeLookupBuild();
    Schema probe_schema({{"pk", TypeId::kInt64, "p"},
                         {"pv", TypeId::kInt64, "p"},
                         {"pd", TypeId::kDouble, "p"}});
    Schema build_schema({{"bk", TypeId::kInt64, "b"},
                         {"bv", TypeId::kInt64, "b"},
                         {"bd", TypeId::kDouble, "b"}});
    ASSERT_TRUE(db_.catalog()
                    ->AddTable(MakeTable("p", probe_schema, MakeLookupProbe(b)))
                    .ok());
    ASSERT_TRUE(
        db_.catalog()->AddTable(MakeTable("b", build_schema, b.rows)).ok());
  }

  static QueryOptions Options(size_t batch, size_t dop, bool columnar) {
    QueryOptions options;
    options.batch_size = batch;
    options.lowering.gapply_parallelism = dop;
    options.lowering.exchange_parallelism = dop;
    options.lowering.exchange_min_rows = 1;
    options.lowering.exchange_morsel_rows = 97;
    options.lowering.columnar_storage = columnar;
    return options;
  }

  // Runs `sql` at batch {1, 3, 1024} x DOP {1, 4} under columnar storage,
  // whose plan must contain `join`, against row storage's hash join.
  void ExpectSameAsRowStorage(const std::string& sql, const std::string& join) {
    for (const size_t dop : {size_t{1}, size_t{4}}) {
      Result<std::string> plan = db_.Explain(sql, Options(1024, dop, true));
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      EXPECT_NE(plan->find(join), std::string::npos) << *plan;
      if (dop > 1) {
        EXPECT_NE(plan->find("Exchange"), std::string::npos) << *plan;
      }
      Result<std::string> row_plan =
          db_.Explain(sql, Options(1024, dop, false));
      ASSERT_TRUE(row_plan.ok()) << row_plan.status().ToString();
      EXPECT_NE(row_plan->find("HashJoin"), std::string::npos) << *row_plan;
      for (const size_t batch : kDiffBatchSizes) {
        const std::string where = join + " dop=" + std::to_string(dop) +
                                  " batch=" + std::to_string(batch);
        Result<QueryResult> got = db_.Query(sql, Options(batch, dop, true));
        Result<QueryResult> want = db_.Query(sql, Options(batch, dop, false));
        ASSERT_TRUE(got.ok()) << where << ": " << got.status().ToString();
        ASSERT_TRUE(want.ok()) << where << ": " << want.status().ToString();
        ASSERT_FALSE(want->rows.empty()) << where;
        tutil::ExpectSameSequence(got->rows, want->rows, where);
      }
    }
  }

  Database db_;
};

TEST_F(LookupJoinPlanTest, MatchesRowStorageAtEveryBatchAndDop) {
  ExpectSameAsRowStorage("select * from p, b where pk = bk", "LookupJoin");
  ExpectSameAsRowStorage(
      "select pk, bv from p, b where pk = bk and bv <> 3 and pv < bv",
      "LookupJoin");
}

TEST_F(LookupJoinPlanTest, AppendThatBreaksKeyOrderFallsBackToHashJoin) {
  const std::string sql = "select * from p, b where pk = bk";
  ExpectSameAsRowStorage(sql, "LookupJoin");
  Table* b = *db_.catalog()->GetTable("b");
  ASSERT_TRUE(
      b->Append({Value::Int(0), Value::Int(0), Value::Double(0)}).ok());
  ASSERT_FALSE(b->columnar().ColumnSorted(0));
  ExpectSameAsRowStorage(sql, "HashJoin");
  Result<std::string> plan = db_.Explain(sql, Options(1024, 1, true));
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->find("LookupJoin"), std::string::npos) << *plan;
}

TEST(BatchExprTest, EvalPredicateBatchRejectsNonBool) {
  Schema s({{"a", TypeId::kInt64, "t"}});
  RowBatch batch(2);
  batch.Add({Value::Int(1)});
  std::vector<char> keep;
  EvalContext ev;
  // A non-bool predicate compiles; each row then raises EvalPredicate's
  // TypeError, which names the offending value.
  ExprPtr not_a_predicate = Col(s, "a");
  ASSIGN_OR_FAIL(std::unique_ptr<ExprProgram> program,
                 ExprProgram::CompilePredicate(*not_a_predicate));
  Status st = program->EvalPredicateBatch(batch, ev, &keep);
  ASSERT_FALSE(st.ok());
  Result<bool> want = EvalPredicate(*not_a_predicate, batch[0], ev);
  ASSERT_FALSE(want.ok());
  EXPECT_EQ(st.ToString(), want.status().ToString());
}

}  // namespace
}  // namespace gapply
