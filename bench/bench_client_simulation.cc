// Reproduces the §5.1/§5.2 methodology check: the paper could not run
// GApply natively for most queries, so it *simulated* it client-side
// (materialize the outer result, re-read it, partition it, copy each group
// into a temporary table, and run the per-group query per group with full
// per-query overhead). For the one query where SQL Server did run GApply
// natively (Q4), the simulation was ~20% slower — evidence the simulation
// is conservative.
//
// We have the real operator, so we can run both sides: the native GApplyOp
// vs a faithful client-side simulation of the same Q4-style query.

#include <unordered_map>

#include "bench/bench_util.h"
#include "src/exec/scan_ops.h"
#include "src/plan/builder.h"

namespace gapply::bench {
namespace {

// The Q4-style query: per (supplier, size), parts priced above the group
// average. Native side runs it through one GApply.
LogicalOpPtr NativePlan(Database* db) {
  auto outer = PlanBuilder::Scan(*db->catalog(), "partsupp")
                   .Join(PlanBuilder::Scan(*db->catalog(), "part"),
                         {"ps_partkey"}, {"p_partkey"});
  const Schema gs = outer.schema();
  auto avg = PlanBuilder::GroupScan("g", gs).ScalarAgg(
      {{AggKind::kAvg, "p_retailprice", "avg_p", false}});
  auto pgq = PlanBuilder::GroupScan("g", gs)
                 .Apply(std::move(avg))
                 .Select([](const Schema& s) {
                   return Gt(Col(s, "p_retailprice"), Col(s, "avg_p"));
                 })
                 .Project({"p_name", "p_retailprice"});
  Result<LogicalOpPtr> plan =
      std::move(outer)
          .GApply({"ps_suppkey", "p_size"}, "g", std::move(pgq))
          .Build();
  if (!plan.ok()) {
    std::fprintf(stderr, "plan build failed: %s\n",
                 plan.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(plan).value();
}

// Client-side simulation (§5.1), driven through the real client API: the
// Session. The client materializes the outer result into a temporary
// table, re-reads and hash-partitions it, then — per group — registers a
// fresh temporary table in the catalog (a schema change, taken under
// WithExclusiveSchema like any DDL) and issues *SQL text* against it:
// first the scalar aggregate, then the filter with the aggregate's value
// substituted as a literal, exactly how a client that cannot run GApply
// server-side round-trips per group. Every per-group statement pays the
// full front-door cost — parse, bind, optimize — and, because each
// AddTable bumps the catalog version, none of them can plan-cache-hit:
// the per-query overhead the paper's methodology simulates.
Result<size_t> RunSimulation(Database* db) {
  // Phase 0: the outer query, materialized into tmpTable.
  auto outer = PlanBuilder::Scan(*db->catalog(), "partsupp")
                   .Join(PlanBuilder::Scan(*db->catalog(), "part"),
                         {"ps_partkey"}, {"p_partkey"});
  const Schema outer_schema = outer.schema();
  ASSIGN_OR_RETURN(LogicalOpPtr outer_plan, std::move(outer).Build());
  ASSIGN_OR_RETURN(PhysOpPtr outer_phys, LowerPlan(*outer_plan));
  ExecContext ctx;
  ASSIGN_OR_RETURN(QueryResult outer_rows,
                   ExecuteToVector(outer_phys.get(), &ctx));
  Table tmp_table("tmpTable", outer_schema);
  for (const Row& row : outer_rows.rows) {
    RETURN_NOT_OK(tmp_table.Append(row));
  }

  // Partition phase: read tmpTable back and hash on the grouping columns.
  ASSIGN_OR_RETURN(int sk, outer_schema.Resolve("ps_suppkey"));
  ASSIGN_OR_RETURN(int sz, outer_schema.Resolve("p_size"));
  std::unordered_map<Row, std::vector<Row>, RowHash, RowEq> groups;
  {
    TableScanOp scan(&tmp_table);
    RETURN_NOT_OK(scan.Open(&ctx));
    RowBatch batch(ctx.batch_size());
    while (true) {
      ASSIGN_OR_RETURN(bool has, scan.NextBatch(&ctx, &batch));
      if (!has) break;
      for (Row& row : batch.rows()) {
        groups[{row[static_cast<size_t>(sk)], row[static_cast<size_t>(sz)]}]
            .push_back(std::move(row));
      }
    }
    RETURN_NOT_OK(scan.Close(&ctx));
  }

  // Execution phase: per group, register a fresh temporary table in the
  // catalog (DDL under the exclusive schema lock) and round-trip the
  // per-group query as SQL through the session — aggregate first, then
  // the filter with the aggregate folded in as a literal.
  Session session(db);
  size_t output_rows = 0;
  for (const auto& [key, rows] : groups) {
    RETURN_NOT_OK(db->WithExclusiveSchema([&]() -> Status {
      auto group_table = std::make_unique<Table>("tmp_group", outer_schema);
      RETURN_NOT_OK(group_table->AppendAll(rows));
      return db->catalog()->AddTable(std::move(group_table));
    }));
    auto run_group = [&]() -> Result<size_t> {
      ASSIGN_OR_RETURN(
          QueryResult avg,
          session.Query("select avg(p_retailprice) from tmp_group"));
      // %.17f keeps >= 17 significant digits for TPC-H price magnitudes,
      // so the literal round-trips the double exactly and the filter
      // matches the native GApply's row-wise comparison bit-for-bit.
      char literal[64];
      std::snprintf(literal, sizeof(literal), "%.17f",
                    avg.rows[0][0].AsDouble());
      ASSIGN_OR_RETURN(
          QueryResult filtered,
          session.Query(
              std::string("select p_name, p_retailprice from tmp_group "
                          "where p_retailprice > ") +
              literal));
      return filtered.rows.size();
    };
    Result<size_t> group_rows = run_group();
    RETURN_NOT_OK(db->WithExclusiveSchema(
        [&] { return db->catalog()->RemoveTable("tmp_group"); }));
    ASSIGN_OR_RETURN(size_t n, std::move(group_rows));
    output_rows += n;
  }
  return output_rows;
}

void Run() {
  const double sf = ScaleFactor(0.01);
  Database db;
  LoadDb(&db, sf);
  std::printf(
      "Client-side simulation overhead (§5.1 methodology), sf=%.4g\n\n",
      sf);

  LogicalOpPtr native = NativePlan(&db);
  size_t native_rows = 0;
  const double native_ms =
      TimePlanMs(&db, *native, QueryOptions{}, &native_rows);

  const int reps = Reps();
  double sim_best = 1e300;
  size_t sim_rows = 0;
  for (int i = 0; i <= reps; ++i) {
    const auto start = std::chrono::steady_clock::now();
    Result<size_t> rows = RunSimulation(&db);
    const auto end = std::chrono::steady_clock::now();
    if (!rows.ok()) {
      std::fprintf(stderr, "simulation failed: %s\n",
                   rows.status().ToString().c_str());
      std::exit(1);
    }
    sim_rows = *rows;
    const double ms =
        std::chrono::duration<double, std::milli>(end - start).count();
    if (i > 0 && ms < sim_best) sim_best = ms;
  }
  if (sim_rows != native_rows) {
    std::fprintf(stderr, "row mismatch: native %zu vs simulation %zu\n",
                 native_rows, sim_rows);
    std::exit(1);
  }

  std::printf("native GApply operator:     %10.2f ms  (%zu rows)\n",
              native_ms, native_rows);
  std::printf("client-side simulation:     %10.2f ms\n", sim_best);
  std::printf("simulation overhead:        %+9.1f%%\n",
              100.0 * (sim_best / native_ms - 1.0));
  std::printf(
      "\npaper: the simulation of Q4 took ~20%% longer than the native "
      "server-side GApply,\nso the Figure-8 speedups (measured via the "
      "simulation) are conservative.\n");
  RecordTiming("native_gapply", native_ms);
  RecordTiming("client_simulation", sim_best);
  RecordPlanProfile(&db, *native, QueryOptions{}, "native_gapply");
  WriteBenchJson("client_simulation", sf, reps);
}

}  // namespace
}  // namespace gapply::bench

int main() { gapply::bench::Run(); }
