// Expression sweep (DESIGN.md §14): the register bytecode that Filter and
// Project run vs. the row interpreter (Expr::Eval per row) over the same
// scan batches, three expression classes at batch sizes {1, 256, 1024}:
//
//   1. arith_heavy — Project with deep arithmetic trees (the row
//      interpreter recurses per node and boxes every intermediate Value;
//      the VM runs each operator over a dense register instead)
//   2. pred_heavy  — Filter with a comparison/Kleene-logic predicate
//   3. string_pred — Filter over string comparisons
//
// Every bytecode run is validated bit-for-bit against the row-interpreter
// run (same rows, same order). Results go to stdout and BENCH_expr.json;
// the headline criterion is arith_heavy at batch 1024 >= 1.3x over the row
// interpreter, enforced outside smoke mode.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/exec/filter_project_ops.h"
#include "src/exec/scan_ops.h"
#include "src/expr/expr.h"

namespace gapply::bench {
namespace {

constexpr size_t kBatchSizes[] = {1, 256, 1024};
constexpr double kArithCriterion = 1.3;

struct JsonRecord {
  std::string workload;
  std::string engine;
  size_t batch_size = 0;
  size_t rows = 0;
  double ms = 0;
  double speedup_vs_row_eval = 0;
};

std::vector<JsonRecord> g_records;
bool g_criterion_met = true;

/// One bench workload: a Filter (one predicate) or a Project over a scan of
/// `table`. `exprs` builds the bound expressions against the scan schema.
struct Workload {
  std::string name;
  const Table* table = nullptr;
  bool filter = false;
  std::function<std::vector<ExprPtr>(const Schema&)> exprs;
};

struct RunResult {
  double ms = 0;
  std::vector<Row> rows;
};

/// The bytecode plan: scan -> Filter or Project.
PhysOpPtr MakePlan(const Workload& w) {
  auto scan = std::make_unique<TableScanOp>(w.table);
  std::vector<ExprPtr> exprs = w.exprs(scan->output_schema());
  if (w.filter) {
    return std::make_unique<FilterOp>(std::move(scan), std::move(exprs[0]));
  }
  std::vector<std::string> names(exprs.size(), "e");
  for (size_t i = 0; i < names.size(); ++i) names[i] += std::to_string(i);
  Result<PhysOpPtr> p =
      ProjectOp::Make(std::move(scan), std::move(exprs), std::move(names));
  if (!p.ok()) std::exit(1);
  return std::move(*p);
}

void Fail(const Status& st) {
  std::fprintf(stderr, "bench run failed: %s\n", st.ToString().c_str());
  std::exit(1);
}

/// One run of the row interpreter on the scan's batches: EvalPredicate per
/// row for a Filter, Expr::Eval per row and expression for a Project.
std::vector<Row> RowEvalOnce(const Workload& w, size_t batch_size) {
  TableScanOp scan(w.table);
  const std::vector<ExprPtr> exprs = w.exprs(scan.output_schema());
  const EvalContext eval;
  ExecContext ctx;
  ctx.set_batch_size(batch_size);
  RowBatch batch(batch_size);
  std::vector<Row> out;
  if (Status st = scan.Open(&ctx); !st.ok()) Fail(st);
  while (true) {
    Result<bool> has = scan.NextBatch(&ctx, &batch);
    if (!has.ok()) Fail(has.status());
    if (!*has) break;
    for (Row& row : batch.rows()) {
      if (w.filter) {
        Result<bool> keep = EvalPredicate(*exprs[0], row, eval);
        if (!keep.ok()) Fail(keep.status());
        if (*keep) out.push_back(std::move(row));
        continue;
      }
      Row projected;
      projected.reserve(exprs.size());
      for (const ExprPtr& e : exprs) {
        Result<Value> v = e->Eval(row, eval);
        if (!v.ok()) Fail(v.status());
        projected.push_back(std::move(*v));
      }
      out.push_back(std::move(projected));
    }
  }
  if (Status st = scan.Close(&ctx); !st.ok()) Fail(st);
  return out;
}

/// Best of `reps` timed runs after one warmup.
RunResult TimeRuns(const std::function<std::vector<Row>()>& run, int reps) {
  RunResult result;
  double best = 1e300;
  for (int i = 0; i <= reps; ++i) {
    const auto start = std::chrono::steady_clock::now();
    std::vector<Row> rows = run();
    const auto end = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(end - start).count();
    if (i > 0 && ms < best) best = ms;  // skip warmup
    result.rows = std::move(rows);
  }
  result.ms = best;
  return result;
}

void RunSweep(const Workload& w, int reps) {
  std::printf("%s:\n", w.name.c_str());
  for (size_t bs : kBatchSizes) {
    const RunResult row_eval =
        TimeRuns([&] { return RowEvalOnce(w, bs); }, reps);
    const RunResult bytecode = TimeRuns(
        [&] {
          PhysOpPtr op = MakePlan(w);
          ExecContext ctx;
          ctx.set_batch_size(bs);
          Result<QueryResult> r = ExecuteToVector(op.get(), &ctx);
          if (!r.ok()) Fail(r.status());
          return std::move(r->rows);
        },
        reps);
    if (!SameRowSequence(row_eval.rows, bytecode.rows)) {
      std::fprintf(stderr,
                   "BENCH INVALID: %s batch_size=%zu: bytecode diverges "
                   "from the row interpreter (%zu vs %zu rows)\n",
                   w.name.c_str(), bs, bytecode.rows.size(),
                   row_eval.rows.size());
      std::exit(1);
    }
    const double speedup = row_eval.ms / bytecode.ms;
    g_records.push_back({w.name, "row_eval", bs, row_eval.rows.size(),
                         row_eval.ms, 1.0});
    g_records.push_back({w.name, "bytecode", bs, bytecode.rows.size(),
                         bytecode.ms, speedup});
    std::printf(
        "  batch %-5zu row_eval %9.3f ms   bytecode %9.3f ms   "
        "speedup %5.2fx\n",
        bs, row_eval.ms, bytecode.ms, speedup);
    if (w.name == "arith_heavy" && bs == 1024 && speedup < kArithCriterion) {
      std::fprintf(stderr,
                   "CRITERION MISSED: arith_heavy at batch 1024 is %.2fx, "
                   "required >= %.2fx\n",
                   speedup, kArithCriterion);
      g_criterion_met = false;
    }
  }
  std::printf("\n");
}

std::unique_ptr<Table> MakeNumericTable(size_t rows) {
  Schema schema({{"k", TypeId::kInt64, "t"},
                 {"v", TypeId::kInt64, "t"},
                 {"d", TypeId::kDouble, "t"}});
  auto table = std::make_unique<Table>("t", schema);
  Rng rng(321);
  for (size_t i = 0; i < rows; ++i) {
    Status st = table->Append({Value::Int(static_cast<int64_t>(i % 1000)),
                               Value::Int(rng.UniformInt(1, 1000)),
                               Value::Double(rng.UniformDouble(0, 100))});
    if (!st.ok()) std::exit(1);
  }
  return table;
}

std::unique_ptr<Table> MakeStringTable(size_t rows) {
  Schema schema(
      {{"id", TypeId::kInt64, "t"}, {"name", TypeId::kString, "t"}});
  auto table = std::make_unique<Table>("t", schema);
  Rng rng(654);
  const char* stems[] = {"almond", "birch",  "cedar", "fir",
                         "maple",  "poplar", "spruce", "willow"};
  for (size_t i = 0; i < rows; ++i) {
    Status st = table->Append(
        {Value::Int(static_cast<int64_t>(i)),
         Value::Str(std::string(stems[rng.UniformInt(0, 7)]) + "_" +
                    std::to_string(rng.UniformInt(0, 99)))});
    if (!st.ok()) std::exit(1);
  }
  return table;
}

// Project with two deep arithmetic trees: ~10 operator nodes per row.
std::vector<ExprPtr> ArithHeavy(const Schema& s) {
  auto node = [&](BinaryOp op, ExprPtr l, ExprPtr r) {
    return Binary(op, std::move(l), std::move(r));
  };
  std::vector<ExprPtr> exprs;
  // ((v + 7) * 3 - k) * (v - 2) + v / 3
  exprs.push_back(node(
      BinaryOp::kAdd,
      node(BinaryOp::kMultiply,
           node(BinaryOp::kSubtract,
                node(BinaryOp::kMultiply,
                     node(BinaryOp::kAdd, Col(s, "v"), Lit(int64_t{7})),
                     Lit(int64_t{3})),
                Col(s, "k")),
           node(BinaryOp::kSubtract, Col(s, "v"), Lit(int64_t{2}))),
      node(BinaryOp::kDivide, Col(s, "v"), Lit(int64_t{3}))));
  // (d * 0.5 + d) * (d - 1.0)
  exprs.push_back(
      node(BinaryOp::kMultiply,
           node(BinaryOp::kAdd,
                node(BinaryOp::kMultiply, Col(s, "d"), Lit(0.5)),
                Col(s, "d")),
           node(BinaryOp::kSubtract, Col(s, "d"), Lit(1.0))));
  return exprs;
}

// A comparison/Kleene predicate:
// (v > 250 and v < 900) or k = 5 or (d >= 10.0 and not (v = 400)).
std::vector<ExprPtr> PredHeavy(const Schema& s) {
  std::vector<ExprPtr> exprs;
  exprs.push_back(
      Or(Or(And(Gt(Col(s, "v"), Lit(int64_t{250})),
                Lt(Col(s, "v"), Lit(int64_t{900}))),
            Eq(Col(s, "k"), Lit(int64_t{5}))),
         And(Ge(Col(s, "d"), Lit(10.0)),
             Unary(UnaryOp::kNot, Eq(Col(s, "v"), Lit(int64_t{400}))))));
  return exprs;
}

// String comparisons: 'f' <= name < 't' and name != "maple_7".
std::vector<ExprPtr> StringPred(const Schema& s) {
  std::vector<ExprPtr> exprs;
  exprs.push_back(
      And(And(Ge(Col(s, "name"), Lit("f")), Lt(Col(s, "name"), Lit("t"))),
          Binary(BinaryOp::kNe, Col(s, "name"), Lit("maple_7"))));
  return exprs;
}

void WriteJson(int reps) {
  FILE* f = std::fopen("BENCH_expr.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_expr.json\n");
    std::exit(1);
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"expr\",\n"
               "  \"reps\": %d,\n"
               "  \"hardware_concurrency\": %zu,\n"
               "  \"criterion_arith_heavy_1024_ge_1.3x\": %s,\n"
               "  \"results\": [\n",
               reps, ThreadPool::DefaultParallelism(),
               g_criterion_met ? "true" : "false");
  for (size_t i = 0; i < g_records.size(); ++i) {
    const JsonRecord& r = g_records[i];
    std::fprintf(f,
                 "    {\"workload\": \"%s\", \"engine\": \"%s\", "
                 "\"batch_size\": %zu, \"rows\": %zu, \"ms\": %.4f, "
                 "\"speedup_vs_row_eval\": %.4f}%s\n",
                 r.workload.c_str(), r.engine.c_str(), r.batch_size, r.rows,
                 r.ms, r.speedup_vs_row_eval,
                 i + 1 == g_records.size() ? "" : ",");
  }
  std::fprintf(f, "  ],\n%s\n}\n", ProfilesJsonMember().c_str());
  std::fclose(f);
  std::printf("wrote BENCH_expr.json (%zu records)\n", g_records.size());
}

void Run() {
  const int reps = Reps();
  const size_t numeric_rows = SmokeMode() ? 20000 : 200000;
  const size_t string_rows = SmokeMode() ? 10000 : 100000;
  std::printf("Expression sweep (reps=%d, rows=%zu)\n\n", reps,
              numeric_rows);

  auto numeric = MakeNumericTable(numeric_rows);
  auto strings = MakeStringTable(string_rows);
  const Workload arith{"arith_heavy", numeric.get(), false, ArithHeavy};
  RunSweep(arith, reps);
  RunSweep({"pred_heavy", numeric.get(), true, PredHeavy}, reps);
  RunSweep({"string_pred", strings.get(), true, StringPred}, reps);

  // Per-operator profile at the headline batch size, so the JSON records
  // the compiled instruction count end to end.
  PhysOpPtr op = MakePlan(arith);
  ExecContext ctx;
  ctx.set_batch_size(1024);
  RecordPhysProfile(op.get(), &ctx, "arith_heavy_bytecode_b1024");

  WriteJson(reps);
  if (!g_criterion_met && !SmokeMode()) std::exit(1);
}

}  // namespace
}  // namespace gapply::bench

int main() {
  gapply::bench::Run();
  return 0;
}
