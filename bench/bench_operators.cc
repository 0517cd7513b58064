// Google-benchmark microbenchmarks for the core physical operators:
// throughput of scan / filter / hash join / lookup join / group-by, and the
// structural costs specific to GApply (partitioning, per-group subplan
// re-opening) against plain GroupBy — the overhead the GApplyToGroupBy
// rule removes.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/plan/builder.h"

namespace gapply::bench {
namespace {

Database* SharedDb() {
  static Database* db = [] {
    auto* d = new Database();
    LoadDb(d, ScaleFactor(0.01));
    return d;
  }();
  return db;
}

LogicalOpPtr MustBuild(PlanBuilder b) {
  Result<LogicalOpPtr> r = std::move(b).Build();
  if (!r.ok()) {
    std::fprintf(stderr, "plan build failed: %s\n",
                 r.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(r).value();
}

void RunPlan(benchmark::State& state, const LogicalOp& plan,
             const QueryOptions& options = {}) {
  Database* db = SharedDb();
  size_t rows = 0;
  for (auto _ : state) {
    Result<QueryResult> r = db->Execute(plan, options);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    rows = r->rows.size();
    benchmark::DoNotOptimize(rows);
  }
  state.counters["rows"] = static_cast<double>(rows);
}

void BM_TableScan(benchmark::State& state) {
  auto plan = MustBuild(PlanBuilder::Scan(*SharedDb()->catalog(), "partsupp"));
  RunPlan(state, *plan);
}
BENCHMARK(BM_TableScan);

void BM_FilterScan(benchmark::State& state) {
  auto plan = MustBuild(
      PlanBuilder::Scan(*SharedDb()->catalog(), "part")
          .Select([](const Schema& s) {
            return Gt(Col(s, "p_retailprice"), Lit(1500.0));
          }));
  RunPlan(state, *plan);
}
BENCHMARK(BM_FilterScan);

// part is sorted on p_partkey, so under columnar storage this join would
// be a lookup join; row storage keeps it a hash join.
QueryOptions RowStorage() {
  QueryOptions options;
  options.lowering.columnar_storage = false;
  return options;
}

void BM_HashJoin(benchmark::State& state) {
  auto plan = MustBuild(
      PlanBuilder::Scan(*SharedDb()->catalog(), "partsupp")
          .Join(PlanBuilder::Scan(*SharedDb()->catalog(), "part"),
                {"ps_partkey"}, {"p_partkey"}));
  RunPlan(state, *plan, RowStorage());
}
BENCHMARK(BM_HashJoin);

// The supplier's-parts fetch: one supplier's partsupp rows, each looked up
// in part by binary search on p_partkey.
constexpr const char* kSupplierPartsSql =
    "select p_partkey, p_name, p_retailprice from partsupp, part "
    "where ps_partkey = p_partkey and ps_suppkey = 1";

LogicalOpPtr MustPlan(const std::string& sql) {
  Result<LogicalOpPtr> r = SharedDb()->Plan(sql);
  if (!r.ok()) {
    std::fprintf(stderr, "bind failed: %s\n", r.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(r).value();
}

void BM_LookupJoin(benchmark::State& state) {
  RunPlan(state, *MustPlan(kSupplierPartsSql));
}
BENCHMARK(BM_LookupJoin);

void BM_HashGroupBy(benchmark::State& state) {
  auto plan = MustBuild(
      PlanBuilder::Scan(*SharedDb()->catalog(), "partsupp")
          .GroupBy({"ps_suppkey"},
                   {{AggKind::kAvg, "ps_supplycost", "a", false}}));
  RunPlan(state, *plan);
}
BENCHMARK(BM_HashGroupBy);

// GApply with an aggregate-only PGQ, optimizer off: what GApplyToGroupBy
// saves (compare with BM_HashGroupBy).
void BM_GApplyAggregatePgq(benchmark::State& state) {
  auto outer = PlanBuilder::Scan(*SharedDb()->catalog(), "partsupp");
  const Schema gs = outer.schema();
  auto plan = MustBuild(std::move(outer).GApply(
      {"ps_suppkey"}, "g",
      PlanBuilder::GroupScan("g", gs).ScalarAgg(
          {{AggKind::kAvg, "ps_supplycost", "a", false}})));
  QueryOptions options;
  options.optimizer = Optimizer::Options::AllDisabled();
  RunPlan(state, *plan, options);
}
BENCHMARK(BM_GApplyAggregatePgq);

// Identity PGQ: pure partition + re-emit cost (sort vs hash).
void BM_GApplyIdentitySort(benchmark::State& state) {
  auto outer = PlanBuilder::Scan(*SharedDb()->catalog(), "partsupp");
  const Schema gs = outer.schema();
  auto plan = MustBuild(std::move(outer).GApply(
      {"ps_suppkey"}, "g", PlanBuilder::GroupScan("g", gs),
      PartitionMode::kSort));
  QueryOptions options;
  options.optimizer = Optimizer::Options::AllDisabled();
  RunPlan(state, *plan, options);
}
BENCHMARK(BM_GApplyIdentitySort);

void BM_GApplyIdentityHash(benchmark::State& state) {
  auto outer = PlanBuilder::Scan(*SharedDb()->catalog(), "partsupp");
  const Schema gs = outer.schema();
  auto plan = MustBuild(std::move(outer).GApply(
      {"ps_suppkey"}, "g", PlanBuilder::GroupScan("g", gs),
      PartitionMode::kHash));
  QueryOptions options;
  options.optimizer = Optimizer::Options::AllDisabled();
  RunPlan(state, *plan, options);
}
BENCHMARK(BM_GApplyIdentityHash);

// Correlated Apply (per-row re-execution) vs cached uncorrelated Apply.
void BM_ApplyUncorrelatedCached(benchmark::State& state) {
  auto outer = PlanBuilder::Scan(*SharedDb()->catalog(), "supplier");
  auto inner = PlanBuilder::Scan(*SharedDb()->catalog(), "nation")
                   .ScalarAgg({{AggKind::kCountStar, "", "c", false}});
  auto plan = MustBuild(std::move(outer).Apply(std::move(inner)));
  RunPlan(state, *plan);
}
BENCHMARK(BM_ApplyUncorrelatedCached);

// Re-times the headline plans with the shared TimePlanMs harness and emits
// BENCH_operators.json (timings + per-operator profiles). Google Benchmark
// owns the console numbers; this JSON is what tools/bench_check gates on.
void EmitJson() {
  Database* db = SharedDb();
  struct NamedPlan {
    std::string label;
    LogicalOpPtr plan;
    QueryOptions options;
  };
  std::vector<NamedPlan> plans;
  plans.push_back({"table_scan",
                   MustBuild(PlanBuilder::Scan(*db->catalog(), "partsupp")),
                   {}});
  plans.push_back(
      {"hash_join",
       MustBuild(PlanBuilder::Scan(*db->catalog(), "partsupp")
                     .Join(PlanBuilder::Scan(*db->catalog(), "part"),
                           {"ps_partkey"}, {"p_partkey"})),
       RowStorage()});
  plans.push_back(
      {"hash_group_by",
       MustBuild(PlanBuilder::Scan(*db->catalog(), "partsupp")
                     .GroupBy({"ps_suppkey"},
                              {{AggKind::kAvg, "ps_supplycost", "a", false}})),
       {}});
  {
    auto outer = PlanBuilder::Scan(*db->catalog(), "partsupp");
    const Schema gs = outer.schema();
    QueryOptions options;
    options.optimizer = Optimizer::Options::AllDisabled();
    plans.push_back({"gapply_aggregate_pgq",
                     MustBuild(std::move(outer).GApply(
                         {"ps_suppkey"}, "g",
                         PlanBuilder::GroupScan("g", gs).ScalarAgg(
                             {{AggKind::kAvg, "ps_supplycost", "a", false}}))),
                     options});
  }
  for (const NamedPlan& p : plans) {
    size_t rows = 0;
    RecordTiming(p.label, TimePlanMs(db, *p.plan, p.options, &rows));
    RecordPlanProfile(db, *p.plan, p.options, p.label);
  }
  // The lookup join books the build rows it fetched in rows_scanned; both
  // counters are gated exactly, so a plan that went back to reading all of
  // part, or to evaluating more of partsupp, fails the gate.
  {
    LogicalOpPtr plan = MustPlan(kSupplierPartsSql);
    QueryStats stats;
    Result<QueryResult> r = db->Execute(*plan, QueryOptions{}, &stats);
    if (!r.ok()) {
      std::fprintf(stderr, "lookup_join failed: %s\n",
                   r.status().ToString().c_str());
      std::exit(1);
    }
    size_t rows = 0;
    RecordTiming("lookup_join", TimePlanMs(db, *plan, {}, &rows),
                 {{"rows_scanned", stats.counters.rows_scanned},
                  {"scan_rows_evaluated", stats.counters.scan_rows_evaluated}});
    RecordPlanProfile(db, *plan, {}, "lookup_join");
  }
  WriteBenchJson("operators", ScaleFactor(0.01), Reps());
}

}  // namespace
}  // namespace gapply::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  gapply::bench::EmitJson();
  return 0;
}
