#ifndef GAPPLY_FUZZ_FUZZER_H_
#define GAPPLY_FUZZ_FUZZER_H_

#include <cstdint>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "src/fuzz/differential.h"
#include "src/fuzz/minimizer.h"
#include "src/fuzz/query_gen.h"

namespace gapply::fuzz {

struct FuzzOptions {
  /// Case i runs with seed `base_seed + i`; `--seed=N --cases=1` replays
  /// case N exactly.
  uint64_t base_seed = 1;
  int cases = 1000;
  /// Wall-clock budget; 0 = unlimited. The run stops early but reports
  /// how many cases it completed.
  double time_budget_s = 0;
  OracleMatrixOptions matrix;
  /// Shrink failing cases before reporting.
  bool minimize = true;
  /// Keep running after a failure instead of stopping at the first.
  bool keep_going = false;
  bool verbose = false;
};

/// Everything known about one executed case.
struct CaseResult {
  uint64_t seed = 0;
  std::string sql;
  std::vector<std::string> features;
  std::vector<Mismatch> mismatches;
  /// The baseline plan ran a loop-lifted GApply (DESIGN.md §17), so the
  /// lifted-vs-per-group oracles compared two different PGQ plans.
  bool lifted = false;
  /// Set when the generator produced SQL that failed to parse or bind —
  /// always a bug in the generator/printer, reported fatally.
  std::string generator_error;
};

struct CaseFailure {
  CaseResult result;
  std::optional<MinimizeResult> minimized;
  std::string dataset_dump;
};

struct FuzzReport {
  int cases_run = 0;
  int failures = 0;
  int generator_errors = 0;
  int lifted_cases = 0;  // cases whose baseline ran a lifted GApply
  bool hit_time_budget = false;
  std::map<std::string, int> feature_counts;
  std::vector<CaseFailure> failure_details;

  bool ok() const { return failures == 0 && generator_errors == 0; }
};

/// Generates dataset + query for `seed`, runs the full oracle matrix, and
/// returns the outcome. Deterministic: the same seed and matrix options
/// always produce the same case and verdict.
CaseResult RunOneCase(uint64_t seed, const OracleMatrixOptions& matrix);

/// The fuzzing loop: cases [base_seed, base_seed + cases), minimizing and
/// logging failures to `log` (repro banner with seed, SQL, dataset, and a
/// one-line replay command).
FuzzReport RunFuzz(const FuzzOptions& options, std::ostream* log);

}  // namespace gapply::fuzz

#endif  // GAPPLY_FUZZ_FUZZER_H_
