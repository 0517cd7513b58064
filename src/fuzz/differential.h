#ifndef GAPPLY_FUZZ_DIFFERENTIAL_H_
#define GAPPLY_FUZZ_DIFFERENTIAL_H_

#include <string>
#include <utility>
#include <vector>

#include "src/exec/lowering.h"
#include "src/exec/physical_op.h"
#include "src/optimizer/optimizer.h"
#include "src/plan/logical_plan.h"
#include "src/stats/stats.h"
#include "src/storage/catalog.h"

namespace gapply::fuzz {

/// One execution configuration: optimizer settings + lowering knobs +
/// batch size.
struct ExecSpec {
  std::string name;
  /// Run the optimizer over a clone of the plan first.
  bool optimize = false;
  Optimizer::Options opt;
  LoweringOptions lowering;
  size_t batch_size = 1024;
  /// Execute with per-operator profiling on and assert the profile counter
  /// invariants (ValidateProfile) after a successful run: rows_in must
  /// equal the children's rows_out, cumulative time must cover self time.
  /// An invariant violation turns the run into an error, which the oracle
  /// comparison then reports as a one-sided mismatch.
  bool profile = false;
  /// Per-query memory budget in bytes; nonzero runs with a MemoryTracker +
  /// SpillManager so the blocking operators (Sort / HashJoin / HashGroupBy
  /// / GApply) spill past it. The engine promises bit-for-bit identity
  /// with the unlimited run (DESIGN.md §16), so budget oracles are
  /// sequence comparisons. 0 = unlimited (never spill).
  size_t memory_budget = 0;

  /// Cache key: two specs with equal keys produce identical results by
  /// definition, so the oracle runner executes each distinct key once.
  std::string Key() const;
};

/// How a pair of results must agree.
///  - kSequence: element-by-element (the engine's bit-for-bit determinism
///    bar — e.g. changing DOP must not change anything).
///  - kMultiset: equal as multisets (the bar for cross-plan rewrites and
///    physical-strategy swaps, where row order is unspecified).
enum class CompareMode { kSequence, kMultiset };

/// One differential oracle: run both specs over the same logical plan and
/// compare.
struct OraclePair {
  std::string name;
  ExecSpec baseline;
  ExecSpec candidate;
  CompareMode mode = CompareMode::kMultiset;
  /// Also require equal work counters (every ExecContext::Counters field
  /// except the timers and `work_exempt`), for pairs that must do the same
  /// work.
  bool compare_work = false;
  std::vector<std::string> work_exempt = {};  // kSummed names
};

struct OracleMatrixOptions {
  /// DOP values exercised against the serial baseline (sequence compare).
  std::vector<size_t> dops = {2, 8};
  /// Batch sizes crossed with the DOPs, and compared against the default
  /// batch on the serial plan.
  std::vector<size_t> batch_sizes = {1, 1024};
  /// Adds the deliberately unsound SelectionBeforeGApply variant
  /// (unsafe_skip_rule_preconditions) — the fuzzer's self-test that a bad
  /// rewrite is caught and minimized.
  bool inject_precondition_bug = false;
};

/// The full oracle matrix: per-rule opt-vs-unopt, full optimizer (gated
/// and ungated), batch-size sweep (raw and optimized), DOP×batch, sort-vs-hash
/// GApply partitioning, lifted-vs-per-group GApply, and tiny-budget
/// spill-vs-unlimited (serial and parallel).
std::vector<OraclePair> BuildOracleMatrix(const OracleMatrixOptions& options);

/// One oracle disagreement, with enough context to read the failure
/// without re-running anything.
struct Mismatch {
  std::string oracle;
  std::string detail;
};

/// Lowers + executes `plan` under `spec` (cloning first; `plan` is not
/// consumed). `work` (optional) receives the plan tree's work totals.
Result<QueryResult> RunSpec(const LogicalOp& plan, const Catalog& catalog,
                            const StatsManager& stats, const ExecSpec& spec,
                            ExecContext::Counters* work = nullptr);

/// Runs every oracle over `plan`, deduplicating identical specs, and
/// returns all disagreements (empty = every oracle passed). An execution
/// error on one side of a pair is a mismatch; an error on both sides with
/// the same message is agreement.
Result<std::vector<Mismatch>> RunOracles(const LogicalOp& plan,
                                         const Catalog& catalog,
                                         const StatsManager& stats,
                                         const std::vector<OraclePair>& oracles);

/// Counts non-leaf logical operators (everything except Scan/GroupScan),
/// descending into GApply per-group plans — the minimizer's size metric.
int CountPlanOps(const LogicalOp& plan);

}  // namespace gapply::fuzz

#endif  // GAPPLY_FUZZ_DIFFERENTIAL_H_
