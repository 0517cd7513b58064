// Tests for the structured query profiler (DESIGN.md §12): golden rendering
// of the stable (non-timing) fields, the profile counter invariants that
// gapply_fuzz also asserts, the profile-on == profile-off differential, the
// zero-claim-worker counter-merge regression, and the EXPLAIN ANALYZE SQL
// surface.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/json.h"
#include "src/engine/database.h"
#include "src/exec/agg_ops.h"
#include "src/exec/exchange_op.h"
#include "src/exec/filter_project_ops.h"
#include "src/exec/gapply_op.h"
#include "src/exec/profile.h"
#include "src/exec/scan_ops.h"
#include "src/expr/aggregate.h"
#include "tests/test_util.h"

namespace gapply {
namespace {

using tutil::GroupedSchema;
using tutil::MakeTable;
using tutil::RandomGroupedRows;

// scan -> filter -> scalar agg over a fixed 4-row table: every stable field
// of the rendering (names, row counts, structure) is deterministic.
std::unique_ptr<Table> SmallTable() {
  return MakeTable("t", GroupedSchema(),
                   {{Value::Int(1), Value::Int(10), Value::Double(1.0)},
                    {Value::Int(1), Value::Int(60), Value::Double(2.0)},
                    {Value::Int(2), Value::Int(70), Value::Double(3.0)},
                    {Value::Int(2), Value::Int(40), Value::Double(4.0)}});
}

PhysOpPtr SmallPlan(const Table* table) {
  auto scan = std::make_unique<TableScanOp>(table);
  const Schema s = scan->output_schema();
  auto filter = std::make_unique<FilterOp>(
      std::move(scan), Gt(Col(s, "v"), Lit(int64_t{50})));
  std::vector<AggregateDesc> aggs;
  aggs.push_back(CountStar("cnt"));
  return std::make_unique<ScalarAggOp>(std::move(filter), std::move(aggs));
}

TEST(ProfileRenderTest, GoldenStableFields) {
  auto table = SmallTable();
  PhysOpPtr plan = SmallPlan(table.get());
  ExecContext ctx;
  ctx.set_profiling(true);
  Result<QueryResult> result = ExecuteToVector(plan.get(), &ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 1u);

  ProfileRenderOptions options;
  options.show_timings = false;
  const std::string got = RenderProfileText(CollectProfile(*plan), options);
  const std::string golden =
      "ScalarAgg(count(*)) rows=1\n"
      "  Filter((v > 50)) rows=2 expr=bytecode[2]\n"
      "    TableScan(t) rows=4\n";
  EXPECT_EQ(got, golden);
}

TEST(ProfileRenderTest, TimingsRenderedWhenRequested) {
  auto table = SmallTable();
  PhysOpPtr plan = SmallPlan(table.get());
  ExecContext ctx;
  ctx.set_profiling(true);
  Result<QueryResult> r = ExecuteToVector(plan.get(), &ctx);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  const std::string text = RenderProfileText(CollectProfile(*plan));
  EXPECT_NE(text.find("[total="), std::string::npos);
  EXPECT_NE(text.find("self="), std::string::npos);
  EXPECT_NE(text.find("rows_in="), std::string::npos);
}

TEST(ProfileRenderTest, ProfilingOffLeavesCountersZero) {
  auto table = SmallTable();
  PhysOpPtr plan = SmallPlan(table.get());
  ExecContext ctx;  // profiling off
  Result<QueryResult> r = ExecuteToVector(plan.get(), &ctx);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ProfileNode node = CollectProfile(*plan);
  // The profiling-only counters stay zero; the work ledger is always on.
  EXPECT_EQ(node.profile.opens, 0u);
  EXPECT_EQ(node.profile.rows_in, 0u);
  EXPECT_EQ(node.profile.cumulative_ns(), 0u);
  EXPECT_EQ(node.profile.rows_out(), 1u);
}

TEST(ProfileInvariantTest, ValidatePassesOnRealExecution) {
  auto table = SmallTable();
  PhysOpPtr plan = SmallPlan(table.get());
  ExecContext ctx;
  ctx.set_profiling(true);
  Result<QueryResult> r = ExecuteToVector(plan.get(), &ctx);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  ProfileNode node = CollectProfile(*plan);
  Status st = ValidateProfile(node);
  EXPECT_TRUE(st.ok()) << st.ToString();
  // rows_in is credited by the child's wrapper, independently of rows_out.
  ASSERT_EQ(node.children.size(), 1u);
  EXPECT_EQ(node.profile.rows_in, node.children[0].profile.rows_out());
}

TEST(ProfileInvariantTest, ValidateDetectsCorruptedRowsIn) {
  auto table = SmallTable();
  PhysOpPtr plan = SmallPlan(table.get());
  ExecContext ctx;
  ctx.set_profiling(true);
  Result<QueryResult> r = ExecuteToVector(plan.get(), &ctx);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  ProfileNode node = CollectProfile(*plan);
  node.profile.rows_in += 7;  // simulate a lost/duplicated credit
  EXPECT_FALSE(ValidateProfile(node).ok());
}

// --------------------------------------------------------------------------
// Differential: profiling must never change results. DOP {1, 8} x batch
// size {1, 1024}, parallel GApply (bit-for-bit serial-identical output).
// Suite name intentionally matches the tsan test filter (GApply).
// --------------------------------------------------------------------------

PhysOpPtr GroupedGApply(const Table* table, size_t dop) {
  auto outer = std::make_unique<TableScanOp>(table);
  const Schema gs = outer->output_schema();
  auto scan = std::make_unique<GroupScanOp>("g", gs);
  std::vector<AggregateDesc> aggs;
  aggs.push_back(CountStar("cnt"));
  aggs.push_back(Sum(Col(gs, "v"), "sum_v"));
  aggs.push_back(Avg(Col(gs, "d"), "avg_d"));
  auto pgq = std::make_unique<ScalarAggOp>(std::move(scan), std::move(aggs));
  return std::make_unique<GApplyOp>(std::move(outer), std::vector<int>{0},
                                    "g", std::move(pgq),
                                    PartitionMode::kHash, dop);
}

TEST(GApplyProfileDifferentialTest, ProfileOnIsBitForBitIdentical) {
  Rng rng(42);
  auto table =
      MakeTable("t", GroupedSchema(), RandomGroupedRows(&rng, 600, 37));
  for (size_t dop : {size_t{1}, size_t{8}}) {
    for (size_t batch : {size_t{1}, size_t{1024}}) {
      PhysOpPtr off_plan = GroupedGApply(table.get(), dop);
      ExecContext off_ctx;
      off_ctx.set_batch_size(batch);
      Result<QueryResult> off = ExecuteToVector(off_plan.get(), &off_ctx);
      ASSERT_TRUE(off.ok()) << off.status().ToString();

      PhysOpPtr on_plan = GroupedGApply(table.get(), dop);
      ExecContext on_ctx;
      on_ctx.set_batch_size(batch);
      on_ctx.set_profiling(true);
      Result<QueryResult> on = ExecuteToVector(on_plan.get(), &on_ctx);
      ASSERT_TRUE(on.ok()) << on.status().ToString();

      EXPECT_TRUE(SameRowSequence(on->rows, off->rows))
          << "profiling changed output at dop=" << dop
          << " batch=" << batch;
      ProfileNode node = CollectProfile(*on_plan);
      Status st = ValidateProfile(node);
      EXPECT_TRUE(st.ok())
          << "dop=" << dop << " batch=" << batch << ": " << st.ToString();
      EXPECT_EQ(node.profile.rows_out(), on->rows.size());
    }
  }
}

TEST(GApplyProfileDifferentialTest, PhaseAttributionRecorded) {
  Rng rng(7);
  auto table =
      MakeTable("t", GroupedSchema(), RandomGroupedRows(&rng, 200, 11));
  PhysOpPtr plan = GroupedGApply(table.get(), 4);
  ExecContext ctx;
  ctx.set_profiling(true);
  Result<QueryResult> r = ExecuteToVector(plan.get(), &ctx);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  ProfileNode node = CollectProfile(*plan);
  EXPECT_GT(node.profile.work.gapply_partition_ns, 0u);
  EXPECT_GT(node.profile.work.gapply_pgq_ns, 0u);
  // Rendered under the phase names the profile JSON has always used.
  const JsonValue json = ProfileToJson(node);
  const JsonValue* phases = json.Find("phases");
  ASSERT_NE(phases, nullptr);
  EXPECT_NE(phases->Find("partition"), nullptr);
  EXPECT_NE(phases->Find("per_group_query"), nullptr);
  EXPECT_EQ(node.dop, 4u);
}

TEST(ExchangeProfileTest, MergedWorkersRelaxTimeNesting) {
  Rng rng(99);
  auto table =
      MakeTable("t", GroupedSchema(), RandomGroupedRows(&rng, 5000, 50));
  auto scan = std::make_unique<TableScanOp>(table.get());
  const Schema s = scan->output_schema();
  PhysOpPtr spine = std::make_unique<FilterOp>(
      std::move(scan), Gt(Col(s, "v"), Lit(int64_t{25})));
  auto exchange =
      std::make_unique<ExchangeOp>(std::move(spine), 4, /*morsel_rows=*/512);
  ExecContext ctx;
  ctx.set_profiling(true);
  Result<QueryResult> r = ExecuteToVector(exchange.get(), &ctx);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  ProfileNode node = CollectProfile(*exchange);
  Status st = ValidateProfile(node);
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(node.profile.rows_out(), r->rows.size());
  // The segment template folded in per-worker clones.
  ASSERT_EQ(node.children.size(), 1u);
  EXPECT_GT(node.children[0].profile.workers_merged, 0u);
}

// --------------------------------------------------------------------------
// Regression: merging a worker that claimed zero groups must not erase the
// per-worker busy-time attribution (min would collapse to 0).
// --------------------------------------------------------------------------

TEST(CountersMergeTest, ZeroClaimWorkerIsSkipped) {
  ExecContext::Counters acc;
  ExecContext::Counters worker1;
  worker1.gapply_workers = 1;
  worker1.gapply_worker_busy_ns = 500;
  worker1.gapply_worker_busy_min_ns = 500;
  worker1.gapply_worker_busy_max_ns = 500;
  acc.MergeFrom(worker1);

  // A worker that raced to the group cursor and claimed nothing: all its
  // worker counters are zero. Folding it in naively would drag min to 0.
  ExecContext::Counters idle;
  acc.MergeFrom(idle);

  ExecContext::Counters worker2;
  worker2.gapply_workers = 1;
  worker2.gapply_worker_busy_ns = 900;
  worker2.gapply_worker_busy_min_ns = 900;
  worker2.gapply_worker_busy_max_ns = 900;
  acc.MergeFrom(worker2);

  EXPECT_EQ(acc.gapply_workers, 2u);
  EXPECT_EQ(acc.gapply_worker_busy_ns, 1400u);
  EXPECT_EQ(acc.gapply_worker_busy_min_ns, 500u);
  EXPECT_EQ(acc.gapply_worker_busy_max_ns, 900u);
}

TEST(CountersMergeTest, ParallelGApplyWithMoreWorkersThanGroups) {
  // End-to-end shape of the same bug: dop far above the group count, so
  // several workers finish with zero groups claimed.
  Rng rng(3);
  auto table =
      MakeTable("t", GroupedSchema(), RandomGroupedRows(&rng, 40, 2));
  PhysOpPtr plan = GroupedGApply(table.get(), 8);
  ExecContext ctx;
  ctx.set_profiling(true);  // worker busy times are profiling-only timers
  Result<QueryResult> r = ExecuteToVector(plan.get(), &ctx);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const ExecContext::Counters c = SumWorkCounters(*plan);
  ASSERT_GT(c.gapply_workers, 0u);
  EXPECT_LE(c.gapply_workers, 2u);  // only claiming workers report
  EXPECT_GT(c.gapply_worker_busy_min_ns, 0u);
  EXPECT_GE(c.gapply_worker_busy_max_ns, c.gapply_worker_busy_min_ns);
  EXPECT_GE(c.gapply_worker_busy_ns, c.gapply_worker_busy_max_ns);
}

// --------------------------------------------------------------------------
// EXPLAIN ANALYZE SQL surface.
// --------------------------------------------------------------------------

class ExplainAnalyzeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tpch::TpchConfig config;
    config.scale_factor = 0.001;
    ASSERT_TRUE(db_.LoadTpch(config).ok());
  }

  static std::string Joined(const QueryResult& r) {
    std::string out;
    for (const Row& row : r.rows) {
      out += row[0].str_val();
      out += "\n";
    }
    return out;
  }

  Database db_;
};

const char* kGApplySql =
    "select gapply(select avg(p_retailprice) from g) "
    "from partsupp, part where ps_partkey = p_partkey "
    "group by ps_suppkey : g";

TEST_F(ExplainAnalyzeTest, TextTreeWithRuleTrace) {
  Result<QueryResult> r =
      db_.Query(std::string("explain analyze ") + kGApplySql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const std::string text = Joined(*r);
  EXPECT_NE(text.find("rows="), std::string::npos);
  EXPECT_NE(text.find("[total="), std::string::npos);
  EXPECT_NE(text.find("rule trace"), std::string::npos);
  EXPECT_NE(text.find("result rows:"), std::string::npos);
}

TEST_F(ExplainAnalyzeTest, JsonFormatRoundTrips) {
  Result<QueryResult> r = db_.Query(
      std::string("explain (analyze, format json) ") + kGApplySql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  Result<JsonValue> json = ParseJson(Joined(*r));
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  const JsonValue* plan = json->Find("plan");
  ASSERT_NE(plan, nullptr);
  EXPECT_NE(plan->Find("op"), nullptr);
  EXPECT_NE(plan->Find("rows_out"), nullptr);
  EXPECT_NE(plan->Find("children"), nullptr);
  EXPECT_NE(json->Find("rules"), nullptr);
  const JsonValue* counters = json->Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_NE(counters->Find("result_rows"), nullptr);
}

TEST_F(ExplainAnalyzeTest, PlainExplainStillWorks) {
  Result<QueryResult> r = db_.Query(std::string("explain ") + kGApplySql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r->rows.empty());
  // No execution happened, so no timing block.
  EXPECT_EQ(Joined(*r).find("[total="), std::string::npos);
}

TEST_F(ExplainAnalyzeTest, JsonWithoutAnalyzeRejected) {
  Result<QueryResult> r =
      db_.Query(std::string("explain (format json) ") + kGApplySql);
  EXPECT_FALSE(r.ok());
}

TEST_F(ExplainAnalyzeTest, SetProfilePopulatesQueryStats) {
  ASSERT_TRUE(db_.Query("set profile = on").ok());
  QueryStats stats;
  Result<QueryResult> r = db_.Query(kGApplySql, QueryOptions{}, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(stats.has_profile);
  EXPECT_EQ(stats.profile.profile.rows_out(), r->rows.size());
  Status st = ValidateProfile(stats.profile);
  EXPECT_TRUE(st.ok()) << st.ToString();

  ASSERT_TRUE(db_.Query("set profile = off").ok());
  QueryStats off_stats;
  ASSERT_TRUE(db_.Query(kGApplySql, QueryOptions{}, &off_stats).ok());
  EXPECT_FALSE(off_stats.has_profile);
}

TEST_F(ExplainAnalyzeTest, ExplainAnalyzeMatchesPlainExecution) {
  Result<QueryResult> plain = db_.Query(kGApplySql);
  ASSERT_TRUE(plain.ok());
  Result<QueryResult> analyzed =
      db_.Query(std::string("explain analyze ") + kGApplySql);
  ASSERT_TRUE(analyzed.ok());
  const std::string text = Joined(*analyzed);
  const std::string want =
      "result rows: " + std::to_string(plain->rows.size());
  EXPECT_NE(text.find(want), std::string::npos) << text;
}

}  // namespace
}  // namespace gapply
