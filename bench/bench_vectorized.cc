// Vectorized-execution sweep: batch size {1, 64, 256, 1024, 4096}, each
// timed against batch 1 — every operator pulled one row at a time, the
// Volcano baseline — over three pipeline shapes:
//
//   1. scan → filter → project  (the pure interpretation-overhead case the
//      NextBatch layer targets: batch predicate/projection evaluation
//      amortizes per-row virtual dispatch and expression recursion)
//   2. hash join                (batch build + batch probe)
//   3. GApply over TPC-H partsupp (sf 0.01), both partition modes,
//      1 and 4 worker threads
//
// Every batch run is validated against the batch-1 output — multiset
// equality in general, element-for-element for parallel GApply (whose
// output order is promised bit-for-bit serial-identical). Results go to
// stdout and BENCH_vectorized.json.

#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/common/row_batch.h"
#include "src/common/thread_pool.h"
#include "src/exec/agg_ops.h"
#include "src/exec/filter_project_ops.h"
#include "src/exec/gapply_op.h"
#include "src/exec/join_ops.h"
#include "src/exec/scan_ops.h"
#include "src/expr/aggregate.h"
#include "src/expr/expr.h"

namespace gapply::bench {
namespace {

constexpr size_t kBatchSizes[] = {1, 64, 256, 1024, 4096};

struct RunResult {
  double ms = 0;
  std::vector<Row> rows;
  ExecContext::Counters counters;
};

struct JsonRecord {
  std::string workload;
  size_t batch_size = 0;
  size_t rows = 0;
  double ms = 0;
  /// Sweep records: vs batch 1. storage_columnar_pushdown: vs the row store.
  double speedup = 0;
  uint64_t batches = 0;
  double avg_fill = 0;
  bool valid = false;
};

std::vector<JsonRecord> g_records;
bool g_criterion_met = true;
bool g_storage_criterion_met = true;

// Times `make()` at `batch_size`; best of `reps` + one warmup.
template <typename MakeFn>
RunResult TimeRuns(const MakeFn& make, int reps, size_t batch_size) {
  RunResult result;
  double best = 1e300;
  for (int i = 0; i <= reps; ++i) {
    PhysOpPtr op = make();
    ExecContext ctx;
    ctx.set_batch_size(batch_size);
    const auto start = std::chrono::steady_clock::now();
    Result<QueryResult> r = ExecuteToVector(op.get(), &ctx);
    const auto end = std::chrono::steady_clock::now();
    if (!r.ok()) {
      std::fprintf(stderr, "bench plan failed: %s\n",
                   r.status().ToString().c_str());
      std::exit(1);
    }
    const double ms =
        std::chrono::duration<double, std::milli>(end - start).count();
    if (i > 0 && ms < best) best = ms;  // skip warmup
    result.rows = std::move(r->rows);
    result.counters = SumWorkCounters(*op);
  }
  result.ms = best;
  return result;
}

template <typename MakeFn>
void RunSweep(const std::string& workload, const MakeFn& make, int reps,
              bool bit_for_bit, double required_speedup_at_1024 = 0) {
  const RunResult baseline = TimeRuns(make, reps, /*batch_size=*/1);
  std::printf("%s (%zu rows):\n", workload.c_str(), baseline.rows.size());
  for (size_t bs : kBatchSizes) {
    const RunResult run = bs == 1 ? baseline : TimeRuns(make, reps, bs);
    const bool valid = bit_for_bit
                           ? SameRowSequence(run.rows, baseline.rows)
                           : SameRowMultiset(run.rows, baseline.rows);
    if (!valid) {
      std::fprintf(stderr,
                   "BENCH INVALID: %s batch_size=%zu diverges from "
                   "batch 1 (%zu vs %zu rows)\n",
                   workload.c_str(), bs, run.rows.size(),
                   baseline.rows.size());
      std::exit(1);
    }
    JsonRecord rec;
    rec.workload = workload;
    rec.batch_size = bs;
    rec.rows = run.rows.size();
    rec.ms = run.ms;
    rec.speedup = baseline.ms / run.ms;
    rec.batches = run.counters.batches_produced;
    rec.avg_fill = run.counters.batches_produced == 0
                       ? 0
                       : static_cast<double>(run.counters.batch_rows_produced) /
                             static_cast<double>(run.counters.batches_produced);
    rec.valid = valid;
    std::printf("  batch %-5zu %9.3f ms  speedup %5.2fx  "
                "[%llu batches, avg fill %.1f]\n",
                bs, run.ms, rec.speedup,
                static_cast<unsigned long long>(rec.batches), rec.avg_fill);
    if (bs == 1024 && required_speedup_at_1024 > 0 &&
        rec.speedup < required_speedup_at_1024) {
      std::fprintf(stderr,
                   "CRITERION MISSED: %s at batch 1024 is %.2fx batch 1, "
                   "required >= %.2fx\n",
                   workload.c_str(), rec.speedup,
                   required_speedup_at_1024);
      g_criterion_met = false;
    }
    g_records.push_back(std::move(rec));
  }
  std::printf("\n");
}

// --------------------------------------------------------------------------
// Workload 1: scan → filter → project over a synthetic 200k-row table.
// --------------------------------------------------------------------------

std::unique_ptr<Table> MakeWideTable(size_t rows) {
  Schema schema({{"k", TypeId::kInt64, "t"},
                 {"v", TypeId::kInt64, "t"},
                 {"d", TypeId::kDouble, "t"}});
  auto table = std::make_unique<Table>("t", schema);
  Rng rng(123);
  for (size_t i = 0; i < rows; ++i) {
    Status st = table->Append({Value::Int(static_cast<int64_t>(i % 1000)),
                               Value::Int(rng.UniformInt(0, 1000)),
                               Value::Double(rng.UniformDouble(0, 100))});
    if (!st.ok()) std::exit(1);
  }
  return table;
}

PhysOpPtr MakeScanFilterProject(const Table* table) {
  auto scan = std::make_unique<TableScanOp>(table);
  const Schema s = scan->output_schema();
  auto filter = std::make_unique<FilterOp>(
      std::move(scan), Gt(Col(s, "v"), Lit(int64_t{250})));
  std::vector<ExprPtr> exprs;
  exprs.push_back(Col(s, "k"));
  exprs.push_back(Binary(BinaryOp::kAdd, Col(s, "v"), Lit(int64_t{7})));
  exprs.push_back(Binary(BinaryOp::kMultiply, Col(s, "d"), Lit(2.0)));
  Result<PhysOpPtr> p = ProjectOp::Make(std::move(filter), std::move(exprs),
                                        {"k", "v7", "d2"});
  if (!p.ok()) std::exit(1);
  return std::move(*p);
}

// Same scan → filter → project pipeline at 50% selectivity (v > 500), but
// the scan reads the row store (no pushed predicates) and the filter stays an
// explicit FilterOp — the pre-columnar engine shape, for the storage-layer
// comparison below.
PhysOpPtr MakeRowStoreScanFilterProject(const Table* table) {
  auto scan = std::make_unique<TableScanOp>(table);
  const Schema s = scan->output_schema();
  auto filter = std::make_unique<FilterOp>(
      std::move(scan), Gt(Col(s, "v"), Lit(int64_t{500})));
  std::vector<ExprPtr> exprs;
  exprs.push_back(Col(s, "k"));
  exprs.push_back(Binary(BinaryOp::kAdd, Col(s, "v"), Lit(int64_t{7})));
  exprs.push_back(Binary(BinaryOp::kMultiply, Col(s, "d"), Lit(2.0)));
  Result<PhysOpPtr> p = ProjectOp::Make(std::move(filter), std::move(exprs),
                                        {"k", "v7", "d2"});
  if (!p.ok()) std::exit(1);
  return std::move(*p);
}

// Columnar pushdown variant: the filter lives inside the scan (what
// lowering produces for this shape when the session storage is columnar).
PhysOpPtr MakeColumnarScanFilterProject(const Table* table) {
  auto scan = std::make_unique<TableScanOp>(table);
  scan->PushPredicates({{1, value_ops::CmpOp::kGt, Value::Int(500)}});
  const Schema s = scan->output_schema();
  std::vector<ExprPtr> exprs;
  exprs.push_back(Col(s, "k"));
  exprs.push_back(Binary(BinaryOp::kAdd, Col(s, "v"), Lit(int64_t{7})));
  exprs.push_back(Binary(BinaryOp::kMultiply, Col(s, "d"), Lit(2.0)));
  Result<PhysOpPtr> p = ProjectOp::Make(std::move(scan), std::move(exprs),
                                        {"k", "v7", "d2"});
  if (!p.ok()) std::exit(1);
  return std::move(*p);
}

// Columnar vs row storage at the headline batch size. The two plans are the
// same logical query; the ratio is the tentpole uplift the columnar read
// path must deliver on scan → filter → project.
void RunStorageComparison(const Table* wide, int reps) {
  const RunResult row = TimeRuns(
      [&] { return MakeRowStoreScanFilterProject(wide); }, reps, 1024);
  const RunResult col = TimeRuns(
      [&] { return MakeColumnarScanFilterProject(wide); }, reps, 1024);
  if (!SameRowSequence(col.rows, row.rows)) {
    std::fprintf(stderr,
                 "BENCH INVALID: columnar storage diverges from row store "
                 "(%zu vs %zu rows)\n",
                 col.rows.size(), row.rows.size());
    std::exit(1);
  }
  const double uplift = row.ms / col.ms;
  std::printf("storage comparison at batch 1024 (%zu rows out):\n",
              row.rows.size());
  std::printf("  row store + Filter   %9.3f ms\n", row.ms);
  std::printf("  columnar + pushdown  %9.3f ms  uplift %.2fx\n\n", col.ms,
              uplift);
  JsonRecord row_rec;
  row_rec.workload = "storage_row_filter";
  row_rec.batch_size = 1024;
  row_rec.rows = row.rows.size();
  row_rec.ms = row.ms;
  row_rec.speedup = 1.0;
  row_rec.valid = true;
  g_records.push_back(row_rec);
  JsonRecord col_rec;
  col_rec.workload = "storage_columnar_pushdown";
  col_rec.batch_size = 1024;
  col_rec.rows = col.rows.size();
  col_rec.ms = col.ms;
  col_rec.speedup = uplift;
  col_rec.valid = true;
  g_records.push_back(col_rec);
  if (uplift < 1.3) {
    std::fprintf(stderr,
                 "CRITERION MISSED: columnar vs row store at batch 1024 is "
                 "%.2fx, required >= 1.3x\n",
                 uplift);
    g_storage_criterion_met = false;
  }
}

// --------------------------------------------------------------------------
// Workload 2: hash join, 100k-row probe side against a 1000-row build side.
// --------------------------------------------------------------------------

PhysOpPtr MakeHashJoin(const Table* fact, const Table* dim) {
  auto probe = std::make_unique<TableScanOp>(fact);
  auto build = std::make_unique<TableScanOp>(dim);
  return std::make_unique<HashJoinOp>(std::move(probe), std::move(build),
                                      std::vector<int>{0},
                                      std::vector<int>{0});
}

// --------------------------------------------------------------------------
// Workload 3: GApply over TPC-H partsupp grouped by ps_partkey, PGQ =
// count/sum/avg over the group, both partition modes x threads {1, 4}.
// --------------------------------------------------------------------------

PhysOpPtr MakeGApply(const Table* partsupp, PartitionMode mode, size_t dop) {
  auto outer = std::make_unique<TableScanOp>(partsupp);
  const Schema gs = outer->output_schema();
  auto scan = std::make_unique<GroupScanOp>("g", gs);
  std::vector<AggregateDesc> aggs;
  aggs.push_back(CountStar("cnt"));
  aggs.push_back(Sum(Col(gs, "ps_availqty"), "sum_qty"));
  aggs.push_back(Avg(Col(gs, "ps_supplycost"), "avg_cost"));
  auto pgq = std::make_unique<ScalarAggOp>(std::move(scan), std::move(aggs));
  return std::make_unique<GApplyOp>(std::move(outer), std::vector<int>{0},
                                    "g", std::move(pgq), mode, dop);
}

void WriteJson(double sf, int reps) {
  FILE* f = std::fopen("BENCH_vectorized.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_vectorized.json\n");
    std::exit(1);
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"vectorized\",\n"
               "  \"scale_factor\": %g,\n"
               "  \"reps\": %d,\n"
               "  \"hardware_concurrency\": %zu,\n"
               "  \"criterion_scan_filter_project_1024_ge_1.5x\": %s,\n"
               "  \"criterion_columnar_vs_row_1024_ge_1.3x\": %s,\n"
               "  \"results\": [\n",
               sf, reps, ThreadPool::DefaultParallelism(),
               g_criterion_met ? "true" : "false",
               g_storage_criterion_met ? "true" : "false");
  for (size_t i = 0; i < g_records.size(); ++i) {
    const JsonRecord& r = g_records[i];
    std::fprintf(
        f,
        "    {\"workload\": \"%s\", \"batch_size\": %zu, \"rows\": %zu, "
        "\"ms\": %.4f, \"speedup\": %.4f, \"batches\": %llu, "
        "\"avg_fill\": %.2f, \"valid\": %s}%s\n",
        r.workload.c_str(), r.batch_size, r.rows, r.ms, r.speedup,
        static_cast<unsigned long long>(r.batches), r.avg_fill,
        r.valid ? "true" : "false", i + 1 == g_records.size() ? "" : ",");
  }
  std::fprintf(f, "  ],\n%s\n}\n", ProfilesJsonMember().c_str());
  std::fclose(f);
  std::printf("wrote BENCH_vectorized.json (%zu records)\n",
              g_records.size());
}

void Run() {
  const double sf = ScaleFactor(0.01);
  const int reps = Reps();
  std::printf("Vectorized execution sweep (sf=%.4g, reps=%d)\n\n", sf, reps);

  auto wide = MakeWideTable(SmokeMode() ? 20000 : 200000);
  RunSweep("scan_filter_project",
           [&] { return MakeScanFilterProject(wide.get()); }, reps,
           /*bit_for_bit=*/false, /*required_speedup_at_1024=*/1.5);

  RunStorageComparison(wide.get(), reps);

  auto fact = MakeWideTable(SmokeMode() ? 10000 : 100000);
  Schema dim_schema({{"k", TypeId::kInt64, "dim"},
                     {"payload", TypeId::kInt64, "dim"}});
  auto dim = std::make_unique<Table>("dim", dim_schema);
  for (int64_t k = 0; k < 1000; ++k) {
    Status st = dim->Append({Value::Int(k), Value::Int(k * 10)});
    if (!st.ok()) std::exit(1);
  }
  RunSweep("hash_join", [&] { return MakeHashJoin(fact.get(), dim.get()); },
           reps, /*bit_for_bit=*/false);

  Database db;
  LoadDb(&db, sf);
  Result<Table*> partsupp = db.catalog()->GetTable("partsupp");
  if (!partsupp.ok()) {
    std::fprintf(stderr, "no partsupp table\n");
    std::exit(1);
  }
  for (PartitionMode mode : {PartitionMode::kSort, PartitionMode::kHash}) {
    for (size_t dop : {size_t{1}, size_t{4}}) {
      char name[64];
      std::snprintf(name, sizeof(name), "gapply_%s_t%zu",
                    PartitionModeName(mode), dop);
      RunSweep(name, [&] { return MakeGApply(*partsupp, mode, dop); }, reps,
               /*bit_for_bit=*/dop > 1);
    }
  }

  // Per-operator profiles for one representative of each pipeline shape,
  // at the headline batch size.
  {
    PhysOpPtr op = MakeScanFilterProject(wide.get());
    ExecContext ctx;
    ctx.set_batch_size(1024);
    RecordPhysProfile(op.get(), &ctx, "scan_filter_project_b1024");
  }
  {
    PhysOpPtr op = MakeHashJoin(fact.get(), dim.get());
    ExecContext ctx;
    ctx.set_batch_size(1024);
    RecordPhysProfile(op.get(), &ctx, "hash_join_b1024");
  }
  {
    PhysOpPtr op = MakeGApply(*partsupp, PartitionMode::kHash, 4);
    ExecContext ctx;
    ctx.set_batch_size(1024);
    RecordPhysProfile(op.get(), &ctx, "gapply_hash_t4_b1024");
  }

  {
    PhysOpPtr op = MakeColumnarScanFilterProject(wide.get());
    ExecContext ctx;
    ctx.set_batch_size(1024);
    RecordPhysProfile(op.get(), &ctx, "columnar_pushdown_b1024");
  }

  WriteJson(sf, reps);
  if ((!g_criterion_met || !g_storage_criterion_met) && !SmokeMode()) {
    std::exit(1);
  }
}

}  // namespace
}  // namespace gapply::bench

int main() {
  gapply::bench::Run();
  return 0;
}
