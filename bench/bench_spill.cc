// Memory governance bench (DESIGN.md §16): what does out-of-core execution
// cost? Each workload exercises a different blocking operator — hash-join
// build + external sort, hash aggregation, GApply member buffering — first
// unlimited, then under a budget set to a quarter of the measured peak
// reservation, which forces every blocking operator through its spill path.
//
// Self-validation per workload: the budgeted run must report nonzero
// spill_bytes (otherwise the bench measured nothing) and reproduce the
// unlimited run's row sequence bit for bit (DESIGN.md §16 determinism bar).

#include "bench/bench_util.h"

namespace gapply::bench {
namespace {

const char* kQueries[][2] = {
    {"join_sort",
     "select p_name, ps_supplycost from partsupp, part "
     "where ps_partkey = p_partkey order by ps_supplycost"},
    {"group_by",
     "select ps_suppkey, count(*), sum(ps_supplycost) from partsupp "
     "group by ps_suppkey order by ps_suppkey"},
    {"gapply",
     "select gapply(select p_name, p_retailprice, null from g "
     "              union all "
     "              select null, null, avg(p_retailprice) from g) "
     "from partsupp, part where ps_partkey = p_partkey "
     "group by ps_suppkey : g"},
};

void Run() {
  const double sf = ScaleFactor(0.01);
  Database db;
  LoadDb(&db, sf);
  std::printf(
      "Spill-to-disk comparison (§16): unlimited vs quarter-peak budget "
      "(sf=%.4g)\n\n",
      sf);
  std::printf("%-10s %12s %12s %10s %12s %12s\n", "query", "unlim (ms)",
              "budget (ms)", "ratio", "budget (B)", "spilled (B)");
  for (const auto& q : kQueries) {
    // part is sorted on p_partkey, so under columnar storage join_sort's
    // join would be a lookup join, which builds nothing and cannot spill.
    // Row storage keeps it the Grace hash join this workload measures.
    QueryOptions base_opt;
    if (std::string(q[0]) == "join_sort") {
      base_opt.lowering.columnar_storage = false;
    }
    // Peak reservation probe: a budget high enough to never spill still
    // books every blocking operator's reservation, so stats.peak_memory is
    // the query's in-memory working set.
    QueryOptions probe_opt = base_opt;
    probe_opt.memory_budget = size_t{1} << 40;
    QueryStats probe_stats;
    Result<QueryResult> unlimited_rows = db.Query(q[1], probe_opt,
                                                  &probe_stats);
    if (!unlimited_rows.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", q[0],
                   unlimited_rows.status().ToString().c_str());
      std::exit(1);
    }
    if (probe_stats.counters.spill_bytes != 0) {
      std::fprintf(stderr, "BENCH INVALID: %s spilled under the probe "
                           "budget\n", q[0]);
      std::exit(1);
    }
    const size_t budget =
        std::max<size_t>(1, static_cast<size_t>(probe_stats.peak_memory) / 4);

    QueryOptions budget_opt = base_opt;
    budget_opt.memory_budget = budget;
    QueryStats budget_stats;
    Result<QueryResult> budget_rows = db.Query(q[1], budget_opt,
                                               &budget_stats);
    if (!budget_rows.ok()) {
      std::fprintf(stderr, "%s (budgeted) failed: %s\n", q[0],
                   budget_rows.status().ToString().c_str());
      std::exit(1);
    }
    if (budget_stats.counters.spill_bytes == 0) {
      std::fprintf(stderr,
                   "BENCH INVALID: %s did not spill under a quarter-peak "
                   "budget (%zu bytes)\n",
                   q[0], budget);
      std::exit(1);
    }
    if (!SameRowSequence(unlimited_rows->rows, budget_rows->rows)) {
      std::fprintf(stderr,
                   "BENCH INVALID: %s budgeted run diverged from unlimited "
                   "(%zu vs %zu rows)\n",
                   q[0], budget_rows->rows.size(),
                   unlimited_rows->rows.size());
      std::exit(1);
    }

    // Best-of-5 even in smoke mode: the budgeted runs are I/O bound and
    // single-shot timings swing 2-3x with filesystem cache state, which
    // would trip the bench_check gate on noise.
    const int reps = std::max(Reps(), 5);
    size_t rows = 0;
    const double unlim_ms = TimeSqlMs(&db, q[1], base_opt, &rows, reps);
    const double budget_ms = TimeSqlMs(&db, q[1], budget_opt, &rows, reps);
    std::printf("%-10s %12.2f %12.2f %9.2fx %12zu %12llu\n", q[0], unlim_ms,
                budget_ms, budget_ms / unlim_ms, budget,
                static_cast<unsigned long long>(
                    budget_stats.counters.spill_bytes));
    RecordTiming(std::string(q[0]) + "_unlimited", unlim_ms);
    // A spilled GApply runs its PGQ once per spill partition when lifted
    // (DESIGN.md §17), so its execution count is gated exactly.
    const bool gapply = std::string(q[0]) == "gapply";
    RecordTiming(std::string(q[0]) + "_budget", budget_ms,
                 gapply ? static_cast<int64_t>(
                              budget_stats.counters.pgq_executions)
                        : -1);
    RecordSqlProfile(&db, q[1], budget_opt, std::string(q[0]) + "_budget");
  }
  std::printf(
      "\nexpect: budgeted runs pay partition-write + reload I/O (ratios "
      "above 1)\nwhile reproducing the in-memory rows bit for bit.\n");
  WriteBenchJson("spill", sf, Reps());
}

}  // namespace
}  // namespace gapply::bench

int main() { gapply::bench::Run(); }
