// Zone-map pruning sweep: a clustered-key range predicate `k < N*s` over a
// multi-morsel columnar table, selectivity s from 0.001 to 1.0. For each
// selectivity the columnar scan with the predicate pushed down is timed
// against the row-store scan + Filter baseline, and the scan's
// morsels_pruned / morsels_scanned counters report how much of the table
// the zone maps let it skip. The key column is sorted, so each scanned
// morsel is also narrowed by binary search, and scan_rows_evaluated (gated
// exactly by bench_check) counts the rows the scan program still evaluated.
//
// Acceptance criterion (deterministic, enforced even in smoke mode): at
// s <= 0.01 the pruned-morsel fraction must exceed 0.9 — a clustered
// predicate that selects under 1% of a morsel-aligned table must skip all
// but the first morsel.
//
// Results go to stdout and BENCH_zone_pruning.json.

#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/exec/filter_project_ops.h"
#include "src/exec/scan_ops.h"
#include "src/expr/expr.h"
#include "src/storage/columnar.h"

namespace gapply::bench {
namespace {

constexpr double kSelectivities[] = {0.001, 0.01, 0.05, 0.1, 0.5, 1.0};

struct SweepRecord {
  double selectivity = 0;
  size_t rows_out = 0;
  double ms = 0;      // columnar scan with pushdown
  double row_ms = 0;  // row-store scan + Filter baseline
  double speedup_vs_row = 0;
  uint64_t morsels_pruned = 0;
  uint64_t morsels_scanned = 0;
  uint64_t scan_rows_evaluated = 0;
  double pruned_fraction = 0;
};

std::unique_ptr<Table> MakeClusteredTable(size_t rows) {
  Schema schema({{"k", TypeId::kInt64, "t"},
                 {"v", TypeId::kInt64, "t"},
                 {"d", TypeId::kDouble, "t"}});
  auto table = std::make_unique<Table>("t", schema);
  Rng rng(7);
  for (size_t i = 0; i < rows; ++i) {
    Status st = table->Append({Value::Int(static_cast<int64_t>(i)),
                               Value::Int(rng.UniformInt(0, 1000)),
                               Value::Double(rng.UniformDouble(0, 100))});
    if (!st.ok()) std::exit(1);
  }
  return table;
}

PhysOpPtr MakeColumnarPlan(const Table* table, int64_t cutoff) {
  auto scan = std::make_unique<TableScanOp>(table);
  scan->PushPredicates({{0, value_ops::CmpOp::kLt, Value::Int(cutoff)}});
  return scan;
}

PhysOpPtr MakeRowStorePlan(const Table* table, int64_t cutoff) {
  auto scan = std::make_unique<TableScanOp>(table);
  const Schema s = scan->output_schema();
  return std::make_unique<FilterOp>(std::move(scan),
                                    Lt(Col(s, "k"), Lit(cutoff)));
}

struct RunResult {
  double ms = 0;
  std::vector<Row> rows;
  ExecContext::Counters counters;
};

template <typename MakeFn>
RunResult TimeRuns(const MakeFn& make, int reps) {
  RunResult result;
  double best = 1e300;
  for (int i = 0; i <= reps; ++i) {
    PhysOpPtr op = make();
    ExecContext ctx;
    ctx.set_batch_size(1024);
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

void WriteJson(const std::vector<SweepRecord>& records, size_t table_rows,
               int reps, bool criterion_met) {
  FILE* f = std::fopen("BENCH_zone_pruning.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_zone_pruning.json\n");
    std::exit(1);
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"zone_pruning\",\n"
               "  \"table_rows\": %zu,\n"
               "  \"morsel_rows\": %zu,\n"
               "  \"reps\": %d,\n"
               "  \"hardware_concurrency\": %zu,\n"
               "  \"criterion_pruned_fraction_gt_0.9_at_s_le_0.01\": %s,\n"
               "  \"results\": [\n",
               table_rows, ColumnarTable::kMorselRows, reps,
               ThreadPool::DefaultParallelism(),
               criterion_met ? "true" : "false");
  for (size_t i = 0; i < records.size(); ++i) {
    const SweepRecord& r = records[i];
    std::fprintf(
        f,
        "    {\"label\": \"s=%g\", \"selectivity\": %g, \"rows_out\": %zu, "
        "\"ms\": %.4f, \"row_ms\": %.4f, \"speedup_vs_row\": %.4f, "
        "\"morsels_pruned\": %llu, \"morsels_scanned\": %llu, "
        "\"scan_rows_evaluated\": %llu, \"pruned_fraction\": %.4f}%s\n",
        r.selectivity, r.selectivity, r.rows_out, r.ms, r.row_ms,
        r.speedup_vs_row, static_cast<unsigned long long>(r.morsels_pruned),
        static_cast<unsigned long long>(r.morsels_scanned),
        static_cast<unsigned long long>(r.scan_rows_evaluated),
        r.pruned_fraction, i + 1 == records.size() ? "" : ",");
  }
  std::fprintf(f, "  ],\n%s\n}\n", ProfilesJsonMember().c_str());
  std::fclose(f);
  std::printf("wrote BENCH_zone_pruning.json (%zu records)\n",
              records.size());
}

void Run() {
  const int reps = Reps();
  const size_t morsels = SmokeMode() ? 16 : 64;
  const size_t rows = morsels * ColumnarTable::kMorselRows;
  std::printf("Zone-map pruning sweep (%zu rows, %zu morsels, reps=%d)\n\n",
              rows, morsels, reps);
  auto table = MakeClusteredTable(rows);

  std::vector<SweepRecord> records;
  bool criterion_met = true;
  for (double s : kSelectivities) {
    const int64_t cutoff =
        static_cast<int64_t>(static_cast<double>(rows) * s);
    const RunResult columnar =
        TimeRuns([&] { return MakeColumnarPlan(table.get(), cutoff); }, reps);
    const RunResult rowstore =
        TimeRuns([&] { return MakeRowStorePlan(table.get(), cutoff); }, reps);
    if (!SameRowSequence(columnar.rows, rowstore.rows)) {
      std::fprintf(stderr,
                   "BENCH INVALID: s=%g columnar diverges from row store "
                   "(%zu vs %zu rows)\n",
                   s, columnar.rows.size(), rowstore.rows.size());
      std::exit(1);
    }
    SweepRecord rec;
    rec.selectivity = s;
    rec.rows_out = columnar.rows.size();
    rec.ms = columnar.ms;
    rec.row_ms = rowstore.ms;
    rec.speedup_vs_row = rowstore.ms / columnar.ms;
    rec.morsels_pruned = columnar.counters.morsels_pruned;
    rec.morsels_scanned = columnar.counters.morsels_scanned;
    rec.scan_rows_evaluated = columnar.counters.scan_rows_evaluated;
    const uint64_t visited = rec.morsels_pruned + rec.morsels_scanned;
    rec.pruned_fraction =
        visited == 0 ? 0
                     : static_cast<double>(rec.morsels_pruned) /
                           static_cast<double>(visited);
    std::printf(
        "s=%-6g %8zu rows  columnar %8.3f ms  row %8.3f ms  "
        "speedup %5.2fx  pruned %llu/%llu (%.1f%%)  evaluated %llu\n",
        s, rec.rows_out, rec.ms, rec.row_ms, rec.speedup_vs_row,
        static_cast<unsigned long long>(rec.morsels_pruned),
        static_cast<unsigned long long>(visited),
        100.0 * rec.pruned_fraction,
        static_cast<unsigned long long>(rec.scan_rows_evaluated));
    // The pruning bar is a counting argument, not a timing — enforce it
    // unconditionally.
    if (s <= 0.01 && rec.pruned_fraction <= 0.9) {
      std::fprintf(stderr,
                   "CRITERION MISSED: s=%g pruned fraction %.3f, "
                   "required > 0.9\n",
                   s, rec.pruned_fraction);
      criterion_met = false;
    }
    records.push_back(rec);
  }

  // One representative profile: the highly selective scan whose report
  // shows the morsels_pruned / morsels_scanned annotations.
  {
    PhysOpPtr op = MakeColumnarPlan(table.get(), static_cast<int64_t>(
                                                     rows / 100));
    ExecContext ctx;
    ctx.set_batch_size(1024);
    RecordPhysProfile(op.get(), &ctx, "pruned_scan_s0.01_b1024");
  }

  WriteJson(records, rows, reps, criterion_met);
  if (!criterion_met) std::exit(1);
}

}  // namespace
}  // namespace gapply::bench

int main() {
  gapply::bench::Run();
  return 0;
}
