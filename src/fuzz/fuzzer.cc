#include "src/fuzz/fuzzer.h"

#include <chrono>
#include <utility>

#include "src/exec/gapply_op.h"
#include "src/exec/join_ops.h"
#include "src/exec/lowering.h"
#include "src/sql/binder.h"

namespace gapply::fuzz {

namespace {

/// Generates the dataset and a bindable query for `seed`. The generator is
/// constructed to satisfy the binder's invariants; as a safety margin it
/// retries a few times off the same deterministic stream, so one bad draw
/// does not kill the case. A seed where every attempt fails is a
/// generator bug worth a report.
struct GeneratedCase {
  FuzzDataset data;
  GeneratedQuery query;
  LogicalOpPtr plan;
  Catalog catalog;
  StatsManager stats;
  std::string error;  // non-empty = generation failed
};

void GenerateCase(uint64_t seed, GeneratedCase* out) {
  Rng rng(seed);
  out->data = GenerateDataset(&rng);
  Status install = InstallDataset(out->data, &out->catalog, &out->stats);
  if (!install.ok()) {
    out->error = "InstallDataset: " + install.ToString();
    return;
  }
  std::string last_error;
  for (int attempt = 0; attempt < 8; ++attempt) {
    GeneratedQuery q = GenerateQuery(out->data, &rng);
    Result<LogicalOpPtr> plan = sql::ParseAndBind(out->catalog, q.sql);
    if (plan.ok()) {
      out->query = std::move(q);
      out->plan = std::move(*plan);
      return;
    }
    last_error = plan.status().ToString() + " for: " + q.sql;
  }
  out->error = "query failed to bind after 8 attempts; last: " + last_error;
}

/// True when `pred` holds for some operator of the tree under `op`.
template <typename Pred>
bool AnyOp(const PhysOp& op, const Pred& pred) {
  if (pred(op)) return true;
  for (const PhysOp* child : op.children()) {
    if (AnyOp(*child, pred)) return true;
  }
  return false;
}

}  // namespace

CaseResult RunOneCase(uint64_t seed, const OracleMatrixOptions& matrix) {
  CaseResult result;
  result.seed = seed;

  GeneratedCase gen;
  GenerateCase(seed, &gen);
  if (!gen.error.empty()) {
    result.generator_error = gen.error;
    return result;
  }
  result.sql = gen.query.sql;
  result.features = gen.query.features;
  Result<PhysOpPtr> baseline = LowerPlan(*gen.plan, ExecSpec().lowering);
  result.lifted = baseline.ok() && AnyOp(**baseline, [](const PhysOp& op) {
    const auto* ga = dynamic_cast<const GApplyOp*>(&op);
    return ga != nullptr && ga->lifted();
  });
  if (baseline.ok() && AnyOp(**baseline, [](const PhysOp& op) {
        return dynamic_cast<const LookupJoinOp*>(&op) != nullptr;
      })) {
    result.features.push_back("lookup-join");
  }
  for (const std::string& f : gen.data.features) {
    result.features.push_back(f);
  }

  Result<std::vector<Mismatch>> mismatches =
      RunOracles(*gen.plan, gen.catalog, gen.stats, BuildOracleMatrix(matrix));
  if (!mismatches.ok()) {
    // RunOracles itself failing (not an execution error inside a spec —
    // those are mismatches) means a plan could not even be cloned/lowered:
    // engine bug, report as a failure of every oracle.
    result.mismatches.push_back(
        {"harness", mismatches.status().ToString()});
    return result;
  }
  result.mismatches = std::move(*mismatches);
  return result;
}

FuzzReport RunFuzz(const FuzzOptions& options, std::ostream* log) {
  const auto start = std::chrono::steady_clock::now();
  auto elapsed_s = [&start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  FuzzReport report;
  for (int i = 0; i < options.cases; ++i) {
    if (options.time_budget_s > 0 && elapsed_s() > options.time_budget_s) {
      report.hit_time_budget = true;
      break;
    }
    const uint64_t seed = options.base_seed + static_cast<uint64_t>(i);
    CaseResult result = RunOneCase(seed, options.matrix);
    ++report.cases_run;
    if (result.lifted) ++report.lifted_cases;
    for (const std::string& f : result.features) {
      report.feature_counts[f]++;
    }

    if (!result.generator_error.empty()) {
      ++report.generator_errors;
      if (log != nullptr) {
        *log << "=== GENERATOR ERROR (seed " << seed << ") ===\n"
             << result.generator_error << "\n";
      }
      if (!options.keep_going) break;
      continue;
    }

    if (options.verbose && log != nullptr) {
      *log << "seed " << seed << " ok: " << result.sql << "\n";
    }
    if (result.mismatches.empty()) continue;

    ++report.failures;
    CaseFailure failure;
    failure.result = result;

    // Regenerate the dataset for the failure banner and the minimizer
    // (RunOneCase's copy is deterministic from the seed).
    Rng rng(seed);
    FuzzDataset data = GenerateDataset(&rng);
    failure.dataset_dump = DescribeDataset(data);

    if (options.minimize) {
      // Rebuild the failing oracle pair by name to shrink against it.
      for (const OraclePair& oracle : BuildOracleMatrix(options.matrix)) {
        if (oracle.name != result.mismatches.front().oracle) continue;
        Result<MinimizeResult> minimized =
            MinimizeCase(data, result.sql, oracle);
        if (minimized.ok()) failure.minimized = std::move(*minimized);
        break;
      }
    }

    if (log != nullptr) {
      *log << "=== MISMATCH (seed " << seed << ") ===\n";
      for (const Mismatch& m : failure.result.mismatches) {
        *log << "oracle " << m.oracle << ": " << m.detail << "\n";
      }
      *log << "sql: " << result.sql << "\n";
      if (failure.minimized.has_value()) {
        const MinimizeResult& m = *failure.minimized;
        *log << "minimized sql (" << m.plan_ops << " plan ops, "
             << m.evaluations << " evals): " << m.sql << "\n"
             << "minimized oracle " << m.mismatch.oracle << ": "
             << m.mismatch.detail << "\n"
             << "minimized dataset:\n"
             << DescribeDataset(m.data);
      } else {
        *log << "dataset:\n" << failure.dataset_dump;
      }
      *log << "replay: gapply_fuzz --seed=" << seed << " --cases=1\n";
    }
    report.failure_details.push_back(std::move(failure));
    if (!options.keep_going) break;
  }

  if (log != nullptr) {
    *log << "fuzz: " << report.cases_run << " cases, " << report.failures
         << " mismatches, " << report.generator_errors
         << " generator errors, " << report.lifted_cases << " lifted";
    if (report.hit_time_budget) *log << " (time budget hit)";
    *log << "\nfeature coverage:";
    for (const auto& [feature, count] : report.feature_counts) {
      *log << " " << feature << "=" << count;
    }
    *log << "\n";
  }
  return report;
}

}  // namespace gapply::fuzz
