// Pinned-seed regression corpus for the differential fuzzer (gapply_fuzz).
//
// Each seed below deterministically regenerates its dataset + query and runs
// the full oracle matrix under ctest, so the interesting cases the fuzzer
// has surfaced keep running on every commit without shipping any data files.
// Replay any of them interactively with:
//   build/tools/gapply_fuzz --seed=N --cases=1 --verbose

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/memory_tracker.h"
#include "src/common/spill_file.h"
#include "src/exec/exec_context.h"
#include "src/exec/lowering.h"
#include "src/exec/physical_op.h"
#include "src/fuzz/concurrent.h"
#include "src/fuzz/data_gen.h"
#include "src/fuzz/differential.h"
#include "src/fuzz/fuzzer.h"
#include "src/fuzz/minimizer.h"
#include "src/sql/binder.h"
#include "src/sql/parser.h"
#include "src/sql/printer.h"
#include "tests/test_util.h"

namespace gapply {
namespace {

struct PinnedSeed {
  uint64_t seed;
  /// Feature tags the seed was pinned for; the coverage test asserts the
  /// generator still produces them, so corpus value cannot silently decay.
  std::vector<std::string> expect_features;
};

// Chosen to cover the generator's edge-case vocabulary: empty groups,
// all-NULL grouping keys, single-row tables, FK joins, nested GApply, deep
// PGQ shapes (union / exists / aggregated exists / scalar subquery), and
// duplicate rows. Seed 6555 minimized a real optimizer bug found by a
// 10k-case sweep and is pinned so the fix stays fixed: GroupSelectionExists
// reconstructed groups with a plain equi-join and silently dropped every
// NULL-keyed group (now a null-safe join, IS NOT DISTINCT FROM). Seeds
// whose query changed when the generator was weighted towards loop-liftable
// PGQs were repinned to seeds covering the same features; the bug repros
// among them keep their exact SQL in PinnedReproSql below. When the
// generator learned to sort a fact int column (DESIGN.md §11), seeds 660,
// 11 and 1245 drew one: their rows were reordered and 11 and 1245 gained
// conjuncts on that column, but each keeps the features listed here, and
// 11 still spills under the 4 KB budget below. When the generator learned
// to shuffle d0's rows (DESIGN.md §20), seeds 1 and 332 drew a shuffle:
// their d0 rows were reordered, which keeps their `fk = pk` joins hash
// joins (repro 332's bug path is a budgeted HashJoin on a morsel spine).
// Seed 40's unshuffled d0 makes its joins lookup joins. When the generator
// learned to give d0 a run key `rk` (sorted, in runs of 2–3 equal keys),
// seeds 1, 2, 5, 41, 45, 332, 420 and 660 drew one: d0 gained that column,
// and 5 and 45 now join `fk = rk`; every other draw, and the SQL of the
// rest, is unchanged. Seed 183 joins on rk through a lookup join, so a
// lookup join that emitted a duplicate-key run in the wrong order fails
// it. The other seeds here regenerate byte-identical data and SQL.
const std::vector<PinnedSeed>& PinnedSeeds() {
  static const std::vector<PinnedSeed> seeds = {
      {1, {"join", "pgq-groupby"}},
      {2, {"single-row-fact", "pgq-star", "pgq-subquery"}},
      {4, {"single-row-fact", "union-top", "null-keys"}},
      {5, {"join", "distinct-agg", "plain-agg"}},
      {19, {"pgq-agg-exists", "dup-rows"}},
      {41, {"having", "pgq-groupby"}},
      {660, {"all-null-key", "pgq-union", "union-top"}},
      {11, {"pgq-exists", "order-by"}},
      {21, {"empty-fact", "all-null-key", "pgq-subquery"}},
      {43, {"empty-fact", "gapply"}},
      {420, {"nested-gapply", "join", "dup-rows"}},
      {258, {"nested-gapply", "pgq-exists", "order-by"}},
      {6555, {"null-keys", "pgq-exists", "pgq-star"}},
      {1245, {"nested-gapply", "pgq-exists", "dup-rows"}},
      {40, {"union-top", "join", "gapply", "order-by", "lookup-join"}},
      {26, {"sorted-col", "gapply", "pgq-agg"}},
      {183, {"dim-run-key", "run-key-join", "lookup-join"}},
  };
  return seeds;
}

/// A minimized bug repro kept verbatim: the dataset of `seed` plus the exact
/// SQL the generator drew for it when the bug was found.
struct PinnedRepro {
  uint64_t seed;
  const char* sql;
};

//   7631 — GroupSelectionExists fired on a GApply nested inside another
//          GApply's per-group query, introducing a Join that cannot lower
//          (the PGQ operator set has none; now guarded by
//          OptimizerContext::in_pgq). Its dataset has since drawn a
//          sorted column (reordered rows, same SQL); without the in_pgq
//          guards the repro still fails with the unlowerable Join.
//   332  — a budgeted HashJoin on an Exchange morsel spine took the Grace
//          spill path, which drains the probe side during Open — before
//          any morsel is armed — so the join latched end-of-stream and one
//          UNION ALL branch silently emitted zero rows under
//          dop=4 + a 4 KB budget (now pinned in memory on a morsel spine).
const std::vector<PinnedRepro>& PinnedReproSql() {
  static const std::vector<PinnedRepro> repros = {
      {7631,
       "select gapply(select gapply(select k1 as c0 from h1 where exists "
       "(select v0 as c1 from h1 where (k1 is null))) from g where "
       "(k1 >= k0) group by k1 : h1) as (c2, c3) from t0 group by k0 : g "
       "order by c3, c2"},
      {332,
       "select gapply(select k0 as c0, k0 as c1, (k0 - (- 1)) as c2 from g) "
       "as (c3, c4, c5) from t0, d0 where (fk = pk) group by fk : g "
       "union all select gapply(select k0 as c0, k0 as c1, (k0 - (- 1)) as "
       "c2 from g) as (c3, c4, c5) from t0, d0 where (fk = pk) group by "
       "fk : g order by c5"},
  };
  return repros;
}

TEST(FuzzRegressionTest, PinnedReproSqlAgreeOnAllOracles) {
  const std::vector<fuzz::OraclePair> oracles =
      fuzz::BuildOracleMatrix(fuzz::OracleMatrixOptions{});
  for (const PinnedRepro& repro : PinnedReproSql()) {
    Rng rng(repro.seed);
    const fuzz::FuzzDataset data = fuzz::GenerateDataset(&rng);
    Catalog catalog;
    StatsManager stats;
    ASSERT_TRUE(fuzz::InstallDataset(data, &catalog, &stats).ok());
    ASSIGN_OR_FAIL(LogicalOpPtr plan, sql::ParseAndBind(catalog, repro.sql));
    ASSIGN_OR_FAIL(std::vector<fuzz::Mismatch> mismatches,
                   fuzz::RunOracles(*plan, catalog, stats, oracles));
    for (const fuzz::Mismatch& m : mismatches) {
      ADD_FAILURE() << "seed " << repro.seed << " oracle " << m.oracle << ": "
                    << m.detail << "\nsql: " << repro.sql;
    }
  }
}

TEST(FuzzRegressionTest, PinnedSeedsAgreeOnAllOracles) {
  const fuzz::OracleMatrixOptions matrix;
  for (const PinnedSeed& pinned : PinnedSeeds()) {
    const fuzz::CaseResult r = fuzz::RunOneCase(pinned.seed, matrix);
    EXPECT_TRUE(r.generator_error.empty())
        << "seed " << pinned.seed << ": " << r.generator_error;
    for (const fuzz::Mismatch& m : r.mismatches) {
      ADD_FAILURE() << "seed " << pinned.seed << " oracle " << m.oracle
                    << ": " << m.detail << "\nsql: " << r.sql
                    << "\nreplay: gapply_fuzz --seed=" << pinned.seed
                    << " --cases=1";
    }
  }
}

TEST(FuzzRegressionTest, PinnedSeedsStillCoverTheirFeatures) {
  const fuzz::OracleMatrixOptions matrix;
  for (const PinnedSeed& pinned : PinnedSeeds()) {
    const fuzz::CaseResult r = fuzz::RunOneCase(pinned.seed, matrix);
    ASSERT_TRUE(r.generator_error.empty())
        << "seed " << pinned.seed << ": " << r.generator_error;
    for (const std::string& feature : pinned.expect_features) {
      EXPECT_NE(std::find(r.features.begin(), r.features.end(), feature),
                r.features.end())
          << "seed " << pinned.seed << " no longer produces feature '"
          << feature << "' — the generator changed; repin this seed.\nsql: "
          << r.sql;
    }
  }
}

// Spill-oracle corpus (DESIGN.md §16). The oracle matrix's budget pairs
// are vacuous on a seed whose working set fits the 4 KB budget, so these
// seeds pin cases that actually overflow it: the budgeted run must spill
// (nonzero spill_bytes across the set) AND reproduce the unlimited run's
// row sequence bit for bit. Replay: gapply_fuzz --seed=N --cases=1
TEST(FuzzRegressionTest, TinyBudgetPinnedSeedsSpillAndMatchUnlimited) {
  constexpr size_t kTinyBudget = 4 << 10;
  uint64_t total_spill_bytes = 0;
  for (const uint64_t seed : std::vector<uint64_t>{1, 5, 11, 45}) {
    Rng rng(seed);
    const fuzz::FuzzDataset data = fuzz::GenerateDataset(&rng);
    Catalog catalog;
    StatsManager stats;
    ASSERT_TRUE(fuzz::InstallDataset(data, &catalog, &stats).ok());
    // Same retry discipline as the fuzzer's case generator: one bad draw
    // off the deterministic stream must not kill the seed.
    LogicalOpPtr plan;
    std::string sql;
    for (int attempt = 0; attempt < 8 && plan == nullptr; ++attempt) {
      fuzz::GeneratedQuery q = fuzz::GenerateQuery(data, &rng);
      Result<LogicalOpPtr> bound = sql::ParseAndBind(catalog, q.sql);
      if (bound.ok()) {
        plan = std::move(*bound);
        sql = q.sql;
      }
    }
    ASSERT_NE(plan, nullptr) << "seed " << seed << " failed to bind";

    const fuzz::ExecSpec unlimited;
    ASSIGN_OR_FAIL(QueryResult base,
                   fuzz::RunSpec(*plan, catalog, stats, unlimited));

    // Budgeted run driven directly (not through RunSpec) so the spill
    // counters are observable.
    ASSIGN_OR_FAIL(PhysOpPtr phys, LowerPlan(*plan, LoweringOptions{}));
    ExecContext ctx;
    MemoryTracker memory(kTinyBudget);
    SpillManager spill("fuzz-pin");
    ctx.set_memory(&memory);
    ctx.set_spill(&spill);
    ASSIGN_OR_FAIL(QueryResult budgeted, ExecuteToVector(phys.get(), &ctx));
    total_spill_bytes += SumWorkCounters(*phys).spill_bytes;

    EXPECT_TRUE(SameRowSequence(base.rows, budgeted.rows))
        << "seed " << seed << ": budgeted run diverged from unlimited\nsql: "
        << sql << "\nreplay: gapply_fuzz --seed=" << seed << " --cases=1";
  }
  EXPECT_GT(total_spill_bytes, 0u)
      << "no pinned seed spilled under a 4 KB budget — the generator or "
         "ApproxRowBytes changed; repin these seeds.";
}

// Sorted-column corpus (DESIGN.md §13): the generator sometimes sorts a
// fact int column and ands `=`/range conjuncts on it. Seed 26 draws
// `where ((k0 < 2) and (k0 <= 4))` under a GApply over a sorted k0.
// Scanning `t0` once, in one storage morsel, its pushed scan must evaluate
// fewer rows than the table holds, which only narrowing can do;
// PinnedSeeds runs every oracle on it, the storage ones against the plain
// Filter.
constexpr uint64_t kSortedNarrowingSeed = 26;

TEST(FuzzRegressionTest, SortedColumnPinnedSeedNarrowsItsScan) {
  const fuzz::CaseResult r =
      fuzz::RunOneCase(kSortedNarrowingSeed, fuzz::OracleMatrixOptions{});
  ASSERT_TRUE(r.generator_error.empty()) << r.generator_error;
  Rng rng(kSortedNarrowingSeed);
  const fuzz::FuzzDataset data = fuzz::GenerateDataset(&rng);
  Catalog catalog;
  StatsManager stats;
  ASSERT_TRUE(fuzz::InstallDataset(data, &catalog, &stats).ok());
  ASSIGN_OR_FAIL(LogicalOpPtr plan, sql::ParseAndBind(catalog, r.sql));
  ExecContext::Counters work;
  const Result<QueryResult> result =
      fuzz::RunSpec(*plan, catalog, stats, fuzz::ExecSpec{}, &work);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(work.morsels_scanned, 1u) << r.sql;
  EXPECT_LT(work.scan_rows_evaluated, data.fact.rows.size()) << r.sql;
}

// Concurrent-session oracle corpus (DESIGN.md §15). A 300-case sweep of the
// oracle found no concurrent-vs-serial divergence at the time this was
// pinned, so these are coverage pins rather than bug pins: four seeds whose
// generated schedules collectively exercise every statement kind the
// schedule generator emits (SELECT, SET, PREPARE, EXECUTE, DEALLOCATE,
// EXPLAIN) across 4 sessions with a 2-token admission budget. Replay any of
// them with: gapply_fuzz --cases=0 --concurrent-cases=1 --seed=N
TEST(FuzzRegressionTest, ConcurrentOraclePinnedSeedsMatchSerialReplay) {
  const fuzz::ConcurrentOptions options;  // 4 sessions × 6 statements
  const std::vector<std::string> kKinds = {
      "concurrent-select",  "concurrent-set",        "concurrent-prepare",
      "concurrent-execute", "concurrent-deallocate", "concurrent-explain"};
  std::vector<std::string> covered;
  for (const uint64_t seed : std::vector<uint64_t>{1, 2, 23, 42}) {
    const fuzz::ConcurrentCaseResult r = fuzz::RunConcurrentCase(seed, options);
    for (const std::string& m : r.mismatches) {
      ADD_FAILURE() << "seed " << seed << ": " << m
                    << "\nreplay: gapply_fuzz --cases=0 --concurrent-cases=1"
                    << " --seed=" << seed;
    }
    covered.insert(covered.end(), r.features.begin(), r.features.end());
  }
  for (const std::string& kind : kKinds) {
    EXPECT_NE(std::find(covered.begin(), covered.end(), kind), covered.end())
        << "pinned seeds no longer cover '" << kind
        << "' — the schedule generator changed; repin these seeds.";
  }
}

TEST(FuzzRegressionTest, PrintedSqlIsAPrintParseFixpoint) {
  // ToSql(Parse(ToSql(ast))) == ToSql(ast): the printed SQL is the single
  // source of truth per case, so printing must be stable under reparsing.
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    Rng rng(seed);
    const fuzz::FuzzDataset data = fuzz::GenerateDataset(&rng);
    const fuzz::GeneratedQuery q = fuzz::GenerateQuery(data, &rng);
    ASSIGN_OR_FAIL(sql::QueryPtr reparsed, sql::Parse(q.sql));
    EXPECT_EQ(sql::ToSql(*reparsed), q.sql) << "seed " << seed;
  }
}

// The acceptance gate for the whole fuzz subsystem: a deliberately unsound
// rule variant (SelectionBeforeGApply without the Theorem-1 empty-on-empty
// check) must be caught by the differential oracles and shrink to a tiny
// repro. Seed 64's PGQ is a per-group scalar aggregate — exactly the shape
// the precondition exists to protect.
TEST(FuzzRegressionTest, InjectedPreconditionBugIsCaughtAndMinimized) {
  fuzz::OracleMatrixOptions matrix;
  matrix.inject_precondition_bug = true;
  constexpr uint64_t kSeed = 64;

  const fuzz::CaseResult r = fuzz::RunOneCase(kSeed, matrix);
  ASSERT_TRUE(r.generator_error.empty()) << r.generator_error;
  ASSERT_FALSE(r.mismatches.empty())
      << "injected unsound rule was not detected; sql: " << r.sql;
  for (const fuzz::Mismatch& m : r.mismatches) {
    // Only the deliberately broken oracle may fire — anything else would be
    // a real bug hiding behind the self-test.
    EXPECT_NE(m.oracle.find("[injected]"), std::string::npos)
        << m.oracle << ": " << m.detail;
  }

  Rng rng(kSeed);
  const fuzz::FuzzDataset data = fuzz::GenerateDataset(&rng);
  bool minimized = false;
  for (const fuzz::OraclePair& oracle : fuzz::BuildOracleMatrix(matrix)) {
    if (oracle.name != r.mismatches.front().oracle) continue;
    ASSIGN_OR_FAIL(fuzz::MinimizeResult m,
                   fuzz::MinimizeCase(data, r.sql, oracle));
    EXPECT_LE(m.plan_ops, 5) << "repro did not shrink enough: " << m.sql;
    EXPECT_FALSE(m.sql.empty());
    // The shrunken case must still replay through a fresh bind + run.
    EXPECT_NE(m.mismatch.oracle.find("[injected]"), std::string::npos);
    minimized = true;
    break;
  }
  EXPECT_TRUE(minimized) << "failing oracle " << r.mismatches.front().oracle
                         << " not found in the rebuilt matrix";
}

TEST(FuzzRegressionTest, MinimizerRefusesNonFailingCase) {
  // Without the injected bug nothing mismatches, so the minimizer must
  // report that the input does not reproduce instead of "shrinking" it.
  const fuzz::OracleMatrixOptions matrix;
  constexpr uint64_t kSeed = 30;
  const fuzz::CaseResult r = fuzz::RunOneCase(kSeed, matrix);
  ASSERT_TRUE(r.mismatches.empty());

  Rng rng(kSeed);
  const fuzz::FuzzDataset data = fuzz::GenerateDataset(&rng);
  const std::vector<fuzz::OraclePair> oracles =
      fuzz::BuildOracleMatrix(matrix);
  ASSERT_FALSE(oracles.empty());
  Result<fuzz::MinimizeResult> m =
      fuzz::MinimizeCase(data, r.sql, oracles.front());
  EXPECT_FALSE(m.ok());
}

}  // namespace
}  // namespace gapply
