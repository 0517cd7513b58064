// Reproduces Figure 8: speedup of queries Q1-Q4 with GApply over the
// classic no-GApply evaluation.
//
// The "without GApply" side is the best plan a classical engine gets from
// the paper's §2 sorted-outer-union SQL after decorrelation: the
// partsupp ⋈ part join is computed redundantly (once per union branch plus
// once per per-group aggregate) and the result is re-clustered with an
// ORDER BY. The "with GApply" side is the §3.1 gapply formulation, executed
// through the full optimizer. Both sides are checked to return identical
// row multisets before timing.
//
// Paper reference: ratios up to ~2x (Q2 about twice as fast with GApply).

#include "bench/bench_util.h"
#include "src/plan/builder.h"

namespace gapply::bench {
namespace {

PlanBuilder PartsuppPart(Database* db) {
  return PlanBuilder::Scan(*db->catalog(), "partsupp")
      .Join(PlanBuilder::Scan(*db->catalog(), "part"), {"ps_partkey"},
            {"p_partkey"});
}

LogicalOpPtr MustBuild(PlanBuilder b, const char* what) {
  Result<LogicalOpPtr> r = std::move(b).Build();
  if (!r.ok()) {
    std::fprintf(stderr, "building %s failed: %s\n", what,
                 r.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(r).value();
}

// --- Q1: per supplier, (p_name, p_retailprice) pairs + avg price ----------

const char* kQ1GApply =
    "select gapply(select p_name, p_retailprice, null from g "
    "              union all "
    "              select null, null, avg(p_retailprice) from g) "
    "from partsupp, part where ps_partkey = p_partkey "
    "group by ps_suppkey : g";

LogicalOpPtr Q1Baseline(Database* db) {
  auto detail = PartsuppPart(db).ProjectExprs(
      [](const Schema& s) {
        std::vector<ExprPtr> e;
        e.push_back(Col(s, "ps_suppkey"));
        e.push_back(Col(s, "p_name"));
        e.push_back(Col(s, "p_retailprice"));
        e.push_back(Lit(Value::Null()));
        return e;
      },
      {"ps_suppkey", "p_name", "p_retailprice", "avg_price"});
  auto averages =
      PartsuppPart(db)
          .GroupBy({"ps_suppkey"},
                   {{AggKind::kAvg, "p_retailprice", "avgp", false}})
          .ProjectExprs(
              [](const Schema& s) {
                std::vector<ExprPtr> e;
                e.push_back(Col(s, "ps_suppkey"));
                e.push_back(Lit(Value::Null()));
                e.push_back(Lit(Value::Null()));
                e.push_back(Col(s, "avgp"));
                return e;
              },
              {"ps_suppkey", "p_name", "p_retailprice", "avg_price"});
  std::vector<PlanBuilder> branches;
  branches.push_back(std::move(detail));
  branches.push_back(std::move(averages));
  return MustBuild(PlanBuilder::UnionAll(std::move(branches))
                       .OrderBy({"ps_suppkey"}),
                   "Q1 baseline");
}

// --- Q2: counts above/below the per-supplier average ----------------------

const char* kQ2GApply =
    "select gapply(select count(*), null from g "
    "              where p_retailprice >= "
    "                    (select avg(p_retailprice) from g) "
    "              union all "
    "              select null, count(*) from g "
    "              where p_retailprice < "
    "                    (select avg(p_retailprice) from g)) "
    "from partsupp, part where ps_partkey = p_partkey "
    "group by ps_suppkey : g";

PlanBuilder SupplierAverages(Database* db) {
  // Decorrelated per-supplier average, renamed to avoid later ambiguity.
  return PartsuppPart(db)
      .GroupBy({"ps_suppkey"},
               {{AggKind::kAvg, "p_retailprice", "avgp", false}})
      .ProjectExprs(
          [](const Schema& s) {
            std::vector<ExprPtr> e;
            e.push_back(Col(s, "ps_suppkey"));
            e.push_back(Col(s, "avgp"));
            return e;
          },
          {"sk_avg", "avgp"});
}

LogicalOpPtr Q2Baseline(Database* db) {
  auto branch = [&](bool above) {
    return PartsuppPart(db)
        .Join(SupplierAverages(db), {"ps_suppkey"}, {"sk_avg"})
        .Select([&](const Schema& s) {
          return above ? Ge(Col(s, "p_retailprice"), Col(s, "avgp"))
                       : Lt(Col(s, "p_retailprice"), Col(s, "avgp"));
        })
        .GroupBy({"ps_suppkey"}, {{AggKind::kCountStar, "", "c", false}})
        .ProjectExprs(
            [&](const Schema& s) {
              std::vector<ExprPtr> e;
              e.push_back(Col(s, "ps_suppkey"));
              if (above) {
                e.push_back(Col(s, "c"));
                e.push_back(Lit(Value::Null()));
              } else {
                e.push_back(Lit(Value::Null()));
                e.push_back(Col(s, "c"));
              }
              return e;
            },
            {"ps_suppkey", "count_above", "count_below"});
  };
  std::vector<PlanBuilder> branches;
  branches.push_back(branch(true));
  branches.push_back(branch(false));
  return MustBuild(PlanBuilder::UnionAll(std::move(branches))
                       .OrderBy({"ps_suppkey"}),
                   "Q2 baseline");
}

// --- Q3: high-end / low-end part prices per supplier ----------------------

const char* kQ3GApply =
    "select gapply(select p_name, p_retailprice from g "
    "              where p_retailprice >= "
    "                    (select max(p_retailprice) from g) * 0.97 "
    "              union all "
    "              select p_name, p_retailprice from g "
    "              where p_retailprice <= "
    "                    (select min(p_retailprice) from g) * 1.03) "
    "from partsupp, part where ps_partkey = p_partkey "
    "group by ps_suppkey : g";

LogicalOpPtr Q3Baseline(Database* db) {
  // Each branch re-derives the per-supplier extremes (redundant
  // computation, as the sorted-outer-union SQL would).
  auto make_extremes = [&]() {
    return PartsuppPart(db)
        .GroupBy({"ps_suppkey"},
                 {{AggKind::kMax, "p_retailprice", "maxp", false},
                  {AggKind::kMin, "p_retailprice", "minp", false}})
        .ProjectExprs(
            [](const Schema& s) {
              std::vector<ExprPtr> e;
              e.push_back(Col(s, "ps_suppkey"));
              e.push_back(Col(s, "maxp"));
              e.push_back(Col(s, "minp"));
              return e;
            },
            {"sk_mm", "maxp", "minp"});
  };
  auto make_branch = [&](bool high) {
    return PartsuppPart(db)
        .Join(make_extremes(), {"ps_suppkey"}, {"sk_mm"})
        .Select([&](const Schema& s) -> ExprPtr {
          if (high) {
            return Ge(Col(s, "p_retailprice"),
                      Binary(BinaryOp::kMultiply, Col(s, "maxp"),
                             Lit(0.97)));
          }
          return Le(Col(s, "p_retailprice"),
                    Binary(BinaryOp::kMultiply, Col(s, "minp"), Lit(1.03)));
        })
        .Project({"ps_suppkey", "p_name", "p_retailprice"});
  };
  std::vector<PlanBuilder> branches;
  branches.push_back(make_branch(true));
  branches.push_back(make_branch(false));
  return MustBuild(PlanBuilder::UnionAll(std::move(branches))
                       .OrderBy({"ps_suppkey"}),
                   "Q3 baseline");
}

// --- Q4: per (supplier, size), parts above the group average --------------

const char* kQ4GApply =
    "select gapply(select p_name, p_retailprice from g "
    "              where p_retailprice > "
    "                    (select avg(p_retailprice) from g)) "
    "from partsupp, part where ps_partkey = p_partkey "
    "group by ps_suppkey, p_size : g";

LogicalOpPtr Q4Baseline(Database* db) {
  auto averages =
      PartsuppPart(db)
          .GroupBy({"ps_suppkey", "p_size"},
                   {{AggKind::kAvg, "p_retailprice", "avgp", false}})
          .ProjectExprs(
              [](const Schema& s) {
                std::vector<ExprPtr> e;
                e.push_back(Col(s, "ps_suppkey"));
                e.push_back(Col(s, "p_size"));
                e.push_back(Col(s, "avgp"));
                return e;
              },
              {"sk_avg", "size_avg", "avgp"});
  return MustBuild(
      PartsuppPart(db)
          .Join(std::move(averages), {"ps_suppkey", "p_size"},
                {"sk_avg", "size_avg"})
          .Select([](const Schema& s) {
            return Gt(Col(s, "p_retailprice"), Col(s, "avgp"));
          })
          .ProjectExprs(
              [](const Schema& s) {
                std::vector<ExprPtr> e;
                e.push_back(Col(s, "ps_suppkey"));
                e.push_back(Col(s, "p_size"));
                e.push_back(Col(s, "p_name"));
                e.push_back(Col(s, "p_retailprice"));
                return e;
              },
              {"ps_suppkey", "p_size", "p_name", "p_retailprice"})
          .OrderBy({"ps_suppkey"}),
      "Q4 baseline");
}

void Run() {
  const double sf = ScaleFactor(0.01);
  Database db;
  LoadDb(&db, sf);
  std::printf(
      "Figure 8 reproduction: speedup with GApply (TPC-H subset, "
      "sf=%.4g: %lld partsupp rows)\n\n",
      sf, static_cast<long long>(
              db.catalog()->FindTable("partsupp")->num_rows()));
  std::printf("%-6s %14s %14s %9s %15s   %s\n", "query", "no-GApply(ms)",
              "GApply(ms)", "ratio", "pgq_executions", "paper");

  struct Case {
    const char* name;
    const char* gapply_sql;
    LogicalOpPtr baseline;
    const char* paper;
  };
  std::vector<Case> cases;
  cases.push_back({"Q1", kQ1GApply, Q1Baseline(&db), "~1.5-2x (Fig. 8)"});
  cases.push_back({"Q2", kQ2GApply, Q2Baseline(&db), "~2x (Fig. 8, §2)"});
  cases.push_back({"Q3", kQ3GApply, Q3Baseline(&db), "~1.5-2x (Fig. 8)"});
  cases.push_back({"Q4", kQ4GApply, Q4Baseline(&db), "~1.5-2x (Fig. 8)"});

  for (Case& c : cases) {
    Result<LogicalOpPtr> gapply_plan = db.Plan(c.gapply_sql);
    if (!gapply_plan.ok()) {
      std::fprintf(stderr, "%s bind failed: %s\n", c.name,
                   gapply_plan.status().ToString().c_str());
      std::exit(1);
    }
    CheckSameResults(&db, **gapply_plan, *c.baseline, c.name);
    size_t rows = 0;
    QueryOptions opt;  // full optimizer both sides
    const double with_ms = TimePlanMs(&db, **gapply_plan, opt, &rows);
    const double without_ms = TimePlanMs(&db, *c.baseline, opt, &rows);
    // Per-group query executions of one GApply run: one when the PGQ runs
    // loop-lifted (DESIGN.md §17), one per group otherwise.
    QueryStats stats;
    if (!db.Execute(**gapply_plan, opt, &stats).ok()) std::exit(1);
    std::printf("%-6s %14.2f %14.2f %8.2fx %15llu   %s\n", c.name,
                without_ms, with_ms, without_ms / with_ms,
                static_cast<unsigned long long>(stats.counters.pgq_executions),
                c.paper);
    RecordTiming(std::string(c.name) + "_gapply", with_ms,
                 static_cast<int64_t>(stats.counters.pgq_executions));
    RecordTiming(std::string(c.name) + "_baseline", without_ms);
    RecordPlanProfile(&db, **gapply_plan, opt,
                      std::string(c.name) + "_gapply");
  }
  std::printf(
      "\nratio = time without GApply / time with GApply (>1 means GApply "
      "wins)\n");
  WriteBenchJson("fig8_speedup", sf, Reps());
}

}  // namespace
}  // namespace gapply::bench

int main() { gapply::bench::Run(); }
