// Parallel GApply sweep: per-group query execution fanned out over worker
// threads (threads x group count x group size x partition mode).
//
// The paper observes (§3) that no group's PGQ evaluation depends on any
// other group's, so phase 2 of GApply is embarrassingly parallel. This
// bench measures the morsel-driven implementation: serial baseline vs
// DOP ∈ {2, 4, 8}, on the TPC-H workload (partsupp grouped by ps_partkey —
// 2000 groups at sf 0.01) and on synthetic tables sweeping group count and
// group size. Every parallel run is validated element-for-element against
// the serial output (the parallel path promises bit-for-bit identical
// results) and must report the identical merged pgq_executions counter.
//
// Results go to stdout and to BENCH_parallel_gapply.json in the working
// directory. Interpret speedups against "hardware_concurrency" in the
// JSON: on a single-core container the parallel runs can only measure
// overhead, not speedup.

#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/exec/agg_ops.h"
#include "src/exec/filter_project_ops.h"
#include "src/exec/gapply_op.h"
#include "src/exec/scan_ops.h"
#include "src/expr/aggregate.h"
#include "src/expr/expr.h"

namespace gapply::bench {
namespace {

constexpr size_t kThreads[] = {1, 2, 4, 8};

struct RunResult {
  double ms = 0;
  std::vector<Row> rows;
  ExecContext::Counters counters;
};

struct JsonRecord {
  std::string workload;
  std::string mode;
  size_t threads = 0;
  size_t groups = 0;
  size_t rows = 0;
  double ms = 0;
  double speedup = 0;
  uint64_t pgq_executions = 0;
  double partition_ms = 0;
  double pgq_exec_ms = 0;
  bool identical_output = false;
};

std::vector<JsonRecord> g_records;

// Times `make()` (a freshly configured plan per rep) unprofiled, returning
// the best of `reps` timed runs plus the last run's rows. The phase timers
// run only under profiling, so one extra profiled run after the timed reps
// supplies the counters.
template <typename MakeFn>
RunResult TimeRuns(const MakeFn& make, int reps) {
  RunResult result;
  double best = 1e300;
  for (int i = 0; i <= reps + 1; ++i) {
    const bool profiled = i > reps;
    PhysOpPtr op = make();
    ExecContext ctx;
    ctx.set_profiling(profiled);
    const auto start = std::chrono::steady_clock::now();
    Result<QueryResult> r = ExecuteToVector(op.get(), &ctx);
    const auto end = std::chrono::steady_clock::now();
    if (!r.ok()) {
      std::fprintf(stderr, "bench plan failed: %s\n",
                   r.status().ToString().c_str());
      std::exit(1);
    }
    if (profiled) {
      result.counters = SumWorkCounters(*op);
      break;
    }
    const double ms =
        std::chrono::duration<double, std::milli>(end - start).count();
    if (i > 0 && ms < best) best = ms;  // skip warmup
    result.rows = std::move(r->rows);
  }
  result.ms = best;
  return result;
}

void ReportSweep(const std::string& workload, const char* mode_name,
                 size_t groups, const RunResult& serial,
                 const std::vector<std::pair<size_t, RunResult>>& runs) {
  for (const auto& [threads, run] : runs) {
    const bool identical = SameRowSequence(run.rows, serial.rows);
    const bool same_counters =
        run.counters.pgq_executions == serial.counters.pgq_executions;
    if (!identical || !same_counters) {
      std::fprintf(stderr,
                   "BENCH INVALID: %s/%s threads=%zu diverges from serial "
                   "(identical_rows=%d pgq_execs %llu vs %llu)\n",
                   workload.c_str(), mode_name, threads, identical ? 1 : 0,
                   static_cast<unsigned long long>(
                       run.counters.pgq_executions),
                   static_cast<unsigned long long>(
                       serial.counters.pgq_executions));
      std::exit(1);
    }
    JsonRecord rec;
    rec.workload = workload;
    rec.mode = mode_name;
    rec.threads = threads;
    rec.groups = groups;
    rec.rows = run.rows.size();
    rec.ms = run.ms;
    rec.speedup = serial.ms / run.ms;
    rec.pgq_executions = run.counters.pgq_executions;
    rec.partition_ms = run.counters.gapply_partition_ns / 1e6;
    rec.pgq_exec_ms = run.counters.gapply_pgq_ns / 1e6;
    rec.identical_output = identical;
    g_records.push_back(rec);
    std::printf(
        "  %-7s t=%zu  %9.3f ms  speedup %5.2fx  "
        "[partition %7.3f ms | pgq exec %8.3f ms]  pgq_execs=%llu\n",
        mode_name, threads, run.ms, rec.speedup, rec.partition_ms,
        rec.pgq_exec_ms,
        static_cast<unsigned long long>(rec.pgq_executions));
  }
}

// --------------------------------------------------------------------------
// TPC-H workload: the Figure-8 Q2 shape over partsupp grouped by
// ps_partkey (2000 groups at sf 0.01), executed unoptimized so the GApply
// is guaranteed to run (the optimizer would not rewrite this PGQ anyway,
// but the bench must not depend on that).
// --------------------------------------------------------------------------

const char* kTpchSql =
    "select gapply(select count(*), null from g "
    "              where ps_supplycost >= "
    "                    (select avg(ps_supplycost) from g) "
    "              union all "
    "              select null, count(*) from g "
    "              where ps_supplycost < "
    "                    (select avg(ps_supplycost) from g)) "
    "from partsupp group by ps_partkey : g";

void RunTpchSweep(Database* db, int reps) {
  Result<LogicalOpPtr> plan = db->Plan(kTpchSql);
  if (!plan.ok()) {
    std::fprintf(stderr, "bind failed: %s\n",
                 plan.status().ToString().c_str());
    std::exit(1);
  }
  for (PartitionMode mode : {PartitionMode::kSort, PartitionMode::kHash}) {
    std::vector<std::pair<size_t, RunResult>> runs;
    RunResult serial;
    size_t groups = 0;
    for (size_t threads : kThreads) {
      QueryOptions opts;
      opts.optimize = false;
      opts.lowering.force_partition_mode = mode;
      opts.lowering.gapply_parallelism = threads;
      auto timed = TimeRuns(
          [&]() -> PhysOpPtr {
            // Lower a fresh physical plan each run.
            Result<PhysOpPtr> phys = LowerPlan(**plan, opts.lowering);
            if (!phys.ok()) {
              std::fprintf(stderr, "lowering failed: %s\n",
                           phys.status().ToString().c_str());
              std::exit(1);
            }
            return std::move(*phys);
          },
          reps);
      // Each group emits one row per UNION ALL branch.
      groups = timed.rows.size() / 2;
      if (threads == 1) {
        serial = timed;
      }
      runs.emplace_back(threads, std::move(timed));
    }
    std::printf("tpch_q2_partsupp (%zu groups, %s partitioning):\n", groups,
                PartitionModeName(mode));
    ReportSweep("tpch_q2_partsupp", PartitionModeName(mode), groups, serial,
                runs);
  }
}

// --------------------------------------------------------------------------
// Synthetic sweep: group count x group size, PGQ = count/sum/avg over the
// group plus a filtered rescan (two GroupScans per group, a mid-weight
// PGQ).
// --------------------------------------------------------------------------

std::unique_ptr<Table> MakeGroupedTable(size_t num_groups,
                                        size_t group_size) {
  Schema schema({{"k", TypeId::kInt64, "t"},
                 {"v", TypeId::kInt64, "t"},
                 {"d", TypeId::kDouble, "t"}});
  auto table = std::make_unique<Table>("t", schema);
  Rng rng(17 * num_groups + group_size);
  for (size_t g = 0; g < num_groups; ++g) {
    for (size_t i = 0; i < group_size; ++i) {
      Status st = table->Append({Value::Int(static_cast<int64_t>(g)),
                                 Value::Int(rng.UniformInt(0, 1000)),
                                 Value::Double(rng.UniformDouble(0, 100))});
      if (!st.ok()) std::exit(1);
    }
  }
  return table;
}

PhysOpPtr MakeSyntheticGApply(const Table* table, PartitionMode mode,
                              size_t dop) {
  auto outer = std::make_unique<TableScanOp>(table);
  const Schema gs = outer->output_schema();
  auto scan = std::make_unique<GroupScanOp>("g", gs);
  std::vector<AggregateDesc> aggs;
  aggs.push_back(CountStar("cnt"));
  aggs.push_back(Sum(Col(gs, "v"), "sum_v"));
  aggs.push_back(Avg(Col(gs, "d"), "avg_d"));
  auto pgq = std::make_unique<ScalarAggOp>(std::move(scan), std::move(aggs));
  return std::make_unique<GApplyOp>(std::move(outer), std::vector<int>{0},
                                    "g", std::move(pgq), mode, dop);
}

void RunSyntheticSweep(int reps) {
  const size_t group_counts[] = {100, 1000};
  const size_t group_sizes[] = {8, 64};
  for (size_t num_groups : group_counts) {
    for (size_t group_size : group_sizes) {
      auto table = MakeGroupedTable(num_groups, group_size);
      for (PartitionMode mode :
           {PartitionMode::kSort, PartitionMode::kHash}) {
        char workload[64];
        std::snprintf(workload, sizeof(workload), "synthetic_g%zu_n%zu",
                      num_groups, group_size);
        std::vector<std::pair<size_t, RunResult>> runs;
        RunResult serial;
        for (size_t threads : kThreads) {
          auto timed = TimeRuns(
              [&]() {
                return MakeSyntheticGApply(table.get(), mode, threads);
              },
              reps);
          if (threads == 1) serial = timed;
          runs.emplace_back(threads, std::move(timed));
        }
        std::printf("%s (%zu rows/group, %s partitioning):\n", workload,
                    group_size, PartitionModeName(mode));
        ReportSweep(workload, PartitionModeName(mode), num_groups, serial,
                    runs);
      }
    }
  }
}

void WriteJson(double sf, int reps) {
  FILE* f = std::fopen("BENCH_parallel_gapply.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_parallel_gapply.json\n");
    std::exit(1);
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"parallel_gapply\",\n"
               "  \"scale_factor\": %g,\n"
               "  \"reps\": %d,\n"
               "  \"hardware_concurrency\": %zu,\n"
               "  \"results\": [\n",
               sf, reps, ThreadPool::DefaultParallelism());
  for (size_t i = 0; i < g_records.size(); ++i) {
    const JsonRecord& r = g_records[i];
    std::fprintf(
        f,
        "    {\"workload\": \"%s\", \"partition_mode\": \"%s\", "
        "\"threads\": %zu, \"groups\": %zu, \"rows\": %zu, "
        "\"ms\": %.4f, \"speedup_vs_serial\": %.4f, "
        "\"pgq_executions\": %llu, \"partition_ms\": %.4f, "
        "\"pgq_exec_ms\": %.4f, \"identical_output\": %s}%s\n",
        r.workload.c_str(), r.mode.c_str(), r.threads, r.groups, r.rows,
        r.ms, r.speedup, static_cast<unsigned long long>(r.pgq_executions),
        r.partition_ms, r.pgq_exec_ms, r.identical_output ? "true" : "false",
        i + 1 == g_records.size() ? "" : ",");
  }
  std::fprintf(f, "  ],\n%s\n}\n", ProfilesJsonMember().c_str());
  std::fclose(f);
  std::printf("\nwrote BENCH_parallel_gapply.json (%zu records)\n",
              g_records.size());
}

void Run() {
  const double sf = ScaleFactor(0.01);
  const int reps = Reps();
  std::printf(
      "Parallel GApply sweep (sf=%.4g, reps=%d, hardware threads=%zu)\n\n",
      sf, reps, ThreadPool::DefaultParallelism());
  Database db;
  LoadDb(&db, sf);
  RunTpchSweep(&db, reps);
  RunSyntheticSweep(reps);

  // Per-operator profiles: the TPC-H sweep at DOP 4 (shows the GApply
  // partition / per_group_query phase split and per-worker merge), plus a
  // synthetic shape.
  {
    QueryOptions opts;
    opts.optimize = false;
    opts.lowering.gapply_parallelism = 4;
    Result<LogicalOpPtr> plan = db.Plan(kTpchSql);
    if (plan.ok()) {
      RecordPlanProfile(&db, **plan, opts, "tpch_q2_partsupp_t4");
    }
  }
  {
    auto table = MakeGroupedTable(1000, 64);
    PhysOpPtr op =
        MakeSyntheticGApply(table.get(), PartitionMode::kHash, 4);
    ExecContext ctx;
    RecordPhysProfile(op.get(), &ctx, "synthetic_g1000_n64_hash_t4");
  }

  WriteJson(sf, reps);
}

}  // namespace
}  // namespace gapply::bench

int main() {
  gapply::bench::Run();
  return 0;
}
