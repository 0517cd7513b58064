// The work ledger (DESIGN.md §12): each operator books its work in its own
// runtime profile and query totals are summed from the plan tree. Work done
// inside parallel worker clones reaches the tree only through the clones'
// merge into their template, so it must be counted exactly once: the same
// totals as the serial run, at every DOP and batch size. Timers are booked
// only under profiling.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/exec/agg_ops.h"
#include "src/exec/exchange_op.h"
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

constexpr size_t kBatches[] = {1, 1024};

/// Executes `root` and returns the plan tree's work totals.
ExecContext::Counters RunAndSum(PhysOp* root, size_t batch,
                                bool profiling = false) {
  ExecContext ctx;
  ctx.set_batch_size(batch);
  ctx.set_profiling(profiling);
  Result<QueryResult> r = ExecuteToVector(root, &ctx);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return SumWorkCounters(*root);
}

PhysOpPtr AggPgq(const Schema& gs, const std::string& var) {
  std::vector<AggregateDesc> aggs;
  aggs.push_back(CountStar("cnt"));
  aggs.push_back(Sum(Col(gs, "v"), "sum_v"));
  return std::make_unique<ScalarAggOp>(std::make_unique<GroupScanOp>(var, gs),
                                       std::move(aggs));
}

class WorkLedgerExactlyOnceTest : public ::testing::Test {
 protected:
  // k = row index, so a pushed `k < cutoff` prunes whole storage morsels:
  // 6 storage morsels, the first 3 scanned and the last 3 pruned.
  static constexpr size_t kRows = 6 * ColumnarTable::kMorselRows;
  static constexpr int64_t kCutoff = 2 * ColumnarTable::kMorselRows + 100;

  void SetUp() override {
    std::vector<Row> rows;
    for (size_t i = 0; i < kRows; ++i) {
      rows.push_back({Value::Int(static_cast<int64_t>(i)),
                      Value::Int(static_cast<int64_t>(i % 97)),
                      Value::Double(static_cast<double>(i % 13))});
    }
    table_ = MakeTable("t", GroupedSchema(), std::move(rows));
  }

  /// Exchange(Filter(TableScan with a pushed predicate)). Exchange morsels
  /// are storage-morsel sized, so each storage morsel is checked once.
  PhysOpPtr ExchangeSpine(size_t dop) const {
    auto scan = std::make_unique<TableScanOp>(table_.get());
    scan->PushPredicates({{0, value_ops::CmpOp::kLt, Value::Int(kCutoff)}});
    const Schema s = scan->output_schema();
    PhysOpPtr spine = std::make_unique<FilterOp>(
        std::move(scan), Gt(Col(s, "v"), Lit(int64_t{10})));
    return std::make_unique<ExchangeOp>(std::move(spine), dop,
                                        ColumnarTable::kMorselRows);
  }

  std::unique_ptr<Table> table_;
};

TEST_F(WorkLedgerExactlyOnceTest, ExchangeCountsScanWorkOnce) {
  for (size_t batch : kBatches) {
    PhysOpPtr serial = ExchangeSpine(1);
    const ExecContext::Counters want = RunAndSum(serial.get(), batch);
    ASSERT_EQ(want.morsels_scanned, 3u);
    ASSERT_EQ(want.morsels_pruned, 3u);
    for (size_t dop : {size_t{2}, size_t{8}}) {
      PhysOpPtr plan = ExchangeSpine(dop);
      const ExecContext::Counters got = RunAndSum(plan.get(), batch);
      const std::string where =
          "dop=" + std::to_string(dop) + " batch=" + std::to_string(batch);
      EXPECT_EQ(got.rows_scanned, want.rows_scanned) << where;
      EXPECT_EQ(got.morsels_pruned + got.morsels_scanned,
                want.morsels_pruned + want.morsels_scanned)
          << where;
      EXPECT_EQ(got.morsels_pruned, want.morsels_pruned) << where;
      EXPECT_EQ(got.batch_rows_produced, want.batch_rows_produced) << where;
    }
  }
}

TEST_F(WorkLedgerExactlyOnceTest, ParallelPerGroupGApplyCountsEachGroupOnce) {
  Rng rng(23);
  auto table =
      MakeTable("g", GroupedSchema(), RandomGroupedRows(&rng, 400, 29));
  for (size_t batch : kBatches) {
    for (size_t dop : {size_t{2}, size_t{8}}) {
      auto outer = std::make_unique<TableScanOp>(table.get());
      const Schema gs = outer->output_schema();
      GApplyOp op(std::move(outer), {0}, "g", AggPgq(gs, "g"),
                  PartitionMode::kHash, dop);
      const ExecContext::Counters got = RunAndSum(&op, batch);
      const std::string where =
          "dop=" + std::to_string(dop) + " batch=" + std::to_string(batch);
      EXPECT_EQ(got.pgq_executions, 29u) << where;
      EXPECT_EQ(got.group_rows_scanned, 400u) << where;
      EXPECT_EQ(got.rows_scanned, 400u) << where;
    }
  }
}

TEST_F(WorkLedgerExactlyOnceTest, ParallelLiftedGApplyRunsOnce) {
  Catalog catalog;
  Rng rng(31);
  ASSERT_TRUE(catalog
                  .AddTable(MakeTable("t", GroupedSchema(),
                                      RandomGroupedRows(&rng, 500, 40)))
                  .ok());
  Result<LogicalOpPtr> logical = sql::ParseAndBind(
      catalog,
      "select gapply(select count(*), sum(v) from g where v > 20) "
      "from t group by k : g");
  ASSERT_TRUE(logical.ok()) << logical.status().ToString();
  for (size_t batch : kBatches) {
    for (size_t dop : {size_t{2}, size_t{8}}) {
      LoweringOptions opts;
      opts.gapply_parallelism = dop;
      Result<PhysOpPtr> plan = LowerPlan(**logical, opts);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      const std::string explain = (*plan)->DebugString();
      ASSERT_NE(explain.find("lifted"), std::string::npos) << explain;
      ASSERT_NE(explain.find("parallelism="), std::string::npos) << explain;
      const ExecContext::Counters got = RunAndSum(plan->get(), batch);
      const std::string where =
          "dop=" + std::to_string(dop) + " batch=" + std::to_string(batch);
      EXPECT_EQ(got.pgq_executions, 1u) << where;
      EXPECT_EQ(got.group_rows_scanned, 500u) << where;
    }
  }
}

TEST_F(WorkLedgerExactlyOnceTest, TimersRunOnlyUnderProfiling) {
  // GApply over an Exchange spine: both operators' phase timers, plus the
  // GApply worker-busy fields.
  const auto make = [&] {
    PhysOpPtr outer = ExchangeSpine(4);
    const Schema gs = outer->output_schema();
    return std::make_unique<GApplyOp>(std::move(outer), std::vector<int>{1},
                                      "g", AggPgq(gs, "g"),
                                      PartitionMode::kHash, 4);
  };
  for (size_t batch : kBatches) {
    auto off_plan = make();
    const ExecContext::Counters off = RunAndSum(off_plan.get(), batch);
    EXPECT_EQ(off.gapply_partition_ns, 0u);
    EXPECT_EQ(off.gapply_pgq_ns, 0u);
    EXPECT_EQ(off.exchange_partition_ns, 0u);
    EXPECT_EQ(off.exchange_merge_ns, 0u);
    EXPECT_EQ(off.gapply_workers, 0u);
    EXPECT_EQ(off.gapply_worker_busy_ns, 0u);
    EXPECT_EQ(off.gapply_worker_busy_min_ns, 0u);
    EXPECT_EQ(off.gapply_worker_busy_max_ns, 0u);

    auto on_plan = make();
    const ExecContext::Counters on =
        RunAndSum(on_plan.get(), batch, /*profiling=*/true);
    EXPECT_GT(on.gapply_partition_ns, 0u);
    EXPECT_GT(on.gapply_pgq_ns, 0u);
    EXPECT_GT(on.exchange_partition_ns, 0u);
    EXPECT_GT(on.exchange_merge_ns, 0u);
    EXPECT_GT(on.gapply_workers, 0u);
    EXPECT_GT(on.gapply_worker_busy_max_ns, 0u);

    // Profiling moves no work counter.
    EXPECT_EQ(on.rows_scanned, off.rows_scanned);
    EXPECT_EQ(on.pgq_executions, off.pgq_executions);
    EXPECT_EQ(on.batch_rows_produced, off.batch_rows_produced);
    EXPECT_EQ(on.batches_produced, off.batches_produced);
  }
}

}  // namespace
}  // namespace gapply
