#include "src/fuzz/differential.h"

#include <algorithm>
#include <map>
#include <memory>
#include <string_view>
#include <utility>

#include "src/common/memory_tracker.h"
#include "src/common/spill_file.h"
#include "src/exec/exec_context.h"
#include "src/exec/gapply_op.h"
#include "src/exec/profile.h"

namespace gapply::fuzz {

namespace {

/// Renders the first divergence between two row collections. For multiset
/// mode both sides are canonically sorted first so equal multisets align.
std::string DescribeDivergence(std::vector<Row> a, std::vector<Row> b,
                               CompareMode mode) {
  std::string out = "baseline " + std::to_string(a.size()) +
                    " rows, candidate " + std::to_string(b.size()) + " rows";
  if (mode == CompareMode::kMultiset) {
    SortRowsCanonical(&a);
    SortRowsCanonical(&b);
    out += " (canonically sorted)";
  }
  const size_t n = std::max(a.size(), b.size());
  size_t shown = 0;
  for (size_t i = 0; i < n && shown < 3; ++i) {
    const bool have_a = i < a.size();
    const bool have_b = i < b.size();
    if (have_a && have_b && RowsEqual(a[i], b[i])) continue;
    out += "\n  row " + std::to_string(i) + ": baseline=" +
           (have_a ? RowToString(a[i]) : "<missing>") + " candidate=" +
           (have_b ? RowToString(b[i]) : "<missing>");
    ++shown;
  }
  return out;
}

/// Lists the work counters (the Counters fields but the timers and
/// `exempt`) on which `a` and `b` differ ("" = none).
std::string DescribeWorkDivergence(const ExecContext::Counters& a,
                                   const ExecContext::Counters& b,
                                   const std::vector<std::string>& exempt) {
  std::string out;
  for (const auto& [name, field] : ExecContext::Counters::kSummed) {
    if (std::string_view(name).ends_with("_ns") || a.*field == b.*field ||
        std::find(exempt.begin(), exempt.end(), name) != exempt.end()) {
      continue;
    }
    out += std::string(out.empty() ? "work counters differ: " : ", ") +
           name + " " + std::to_string(a.*field) + " vs " +
           std::to_string(b.*field);
  }
  return out;
}

}  // namespace

std::string ExecSpec::Key() const {
  std::string key = optimize ? "opt:" : "raw:";
  if (optimize) {
    for (const auto& toggle : Optimizer::Options::RuleToggles()) {
      key += opt.*(toggle.flag) ? '1' : '0';
    }
    key += opt.cost_gate ? 'g' : 'u';
    key += opt.unsafe_skip_rule_preconditions ? '!' : '.';
  }
  key += ";pm=";
  key += !lowering.force_partition_mode.has_value() ? "d"
         : *lowering.force_partition_mode == PartitionMode::kSort ? "s"
                                                                  : "h";
  key += lowering.per_group_gapply ? ";pg" : "";
  key += ";dop=" + std::to_string(lowering.gapply_parallelism) + "," +
         std::to_string(lowering.exchange_parallelism);
  key += ";xmin=" + std::to_string(lowering.exchange_min_rows);
  key += ";morsel=" + std::to_string(lowering.exchange_morsel_rows);
  key += ";st=";
  key += !lowering.columnar_storage.has_value() ? "d"
         : *lowering.columnar_storage          ? "c"
                                               : "r";
  key += ";b=" + std::to_string(batch_size);
  if (profile) key += ";prof";
  if (memory_budget > 0) key += ";mb=" + std::to_string(memory_budget);
  return key;
}

std::vector<OraclePair> BuildOracleMatrix(const OracleMatrixOptions& options) {
  ExecSpec base;
  base.name = "baseline";

  auto with_rule = [&](const char* name, bool Optimizer::Options::* flag) {
    ExecSpec s = base;
    s.name = std::string("rule:") + name;
    s.optimize = true;
    s.opt = Optimizer::Options::AllDisabled();
    s.opt.*flag = true;
    s.opt.cost_gate = false;  // exercise the rewrite even when costed out
    return s;
  };

  std::vector<OraclePair> oracles;
  for (const auto& toggle : Optimizer::Options::RuleToggles()) {
    oracles.push_back({"rule:" + std::string(toggle.name), base,
                       with_rule(toggle.name, toggle.flag),
                       CompareMode::kMultiset});
  }

  ExecSpec full = base;
  full.name = "optimizer:full";
  full.optimize = true;
  oracles.push_back({"optimizer:full", base, full, CompareMode::kMultiset});

  ExecSpec ungated = full;
  ungated.name = "optimizer:full-ungated";
  ungated.opt.cost_gate = false;
  oracles.push_back(
      {"optimizer:full-ungated", base, ungated, CompareMode::kMultiset});

  if (options.inject_precondition_bug) {
    ExecSpec injected =
        with_rule("SelectionBeforeGApply",
                  &Optimizer::Options::selection_before_gapply);
    injected.name += "[injected]";
    injected.opt.unsafe_skip_rule_preconditions = true;
    oracles.push_back({"rule:SelectionBeforeGApply[injected]", base, injected,
                       CompareMode::kMultiset});
  }

  // Batch-size sweep: batch 1 runs every operator one row at a time
  // through the batch API, the reference the default batch is held to.
  for (size_t b : {size_t{1}, size_t{3}}) {
    ExecSpec s = base;
    s.name = "exec:batch=" + std::to_string(b);
    s.batch_size = b;
    oracles.push_back({s.name, base, s, CompareMode::kMultiset});
  }

  ExecSpec full_single = full;
  full_single.name = "optimizer:full,batch=1";
  full_single.batch_size = 1;
  oracles.push_back({"exec:batch=1-optimized", full, full_single,
                     CompareMode::kMultiset});

  // DOP sweep: the engine promises bit-for-bit identity with the serial
  // run at any DOP, so this one is a sequence comparison.
  auto parallel_spec = [](size_t dop, size_t batch) {
    ExecSpec s;
    s.name = "exec:dop=" + std::to_string(dop) +
             ",batch=" + std::to_string(batch);
    s.batch_size = batch;
    s.lowering.gapply_parallelism = dop;
    s.lowering.exchange_parallelism = dop;
    // Tiny gates so even the fuzzer's small tables actually fan out.
    s.lowering.exchange_min_rows = 16;
    s.lowering.exchange_morsel_rows = 64;
    return s;
  };
  for (size_t b : options.batch_sizes) {
    for (size_t dop : options.dops) {
      oracles.push_back({"exec:dop=" + std::to_string(dop) +
                             ",batch=" + std::to_string(b),
                         parallel_spec(1, b), parallel_spec(dop, b),
                         CompareMode::kSequence});
    }
  }

  for (PartitionMode mode : {PartitionMode::kSort, PartitionMode::kHash}) {
    ExecSpec s = base;
    s.name = std::string("exec:partition=") + PartitionModeName(mode);
    s.lowering.force_partition_mode = mode;
    oracles.push_back({s.name, base, s, CompareMode::kMultiset});
  }

  // Storage oracle: columnar scans (dense arrays, predicate pushdown,
  // zone-map pruning) must reproduce the row-store stream bit for bit —
  // both layouts preserve insertion order, so this is a sequence compare.
  // Run serial, optimized (pushdown fires on optimizer-produced
  // Filter-over-Scan shapes too), and parallel (pruning inside ExchangeOp's
  // morsel driver).
  ExecSpec row_storage = base;
  row_storage.name = "exec:storage=row";
  row_storage.lowering.columnar_storage = false;
  oracles.push_back({"exec:columnar-vs-row-storage", base, row_storage,
                     CompareMode::kSequence});

  ExecSpec full_row_storage = full;
  full_row_storage.name = "optimizer:full,storage=row";
  full_row_storage.lowering.columnar_storage = false;
  oracles.push_back({"exec:columnar-vs-row-storage-optimized", full,
                     full_row_storage, CompareMode::kMultiset});

  ExecSpec par_row_storage = parallel_spec(8, 1024);
  par_row_storage.name += ",storage=row";
  par_row_storage.lowering.columnar_storage = false;
  oracles.push_back({"exec:columnar-vs-row-storage-parallel",
                     parallel_spec(8, 1024), par_row_storage,
                     CompareMode::kSequence});

  // Profiler oracle: profiling must be invisible to results (sequence
  // compare against the identical unprofiled spec) and to the work the
  // query books (the ledger is always on; only timers wait for profiling),
  // and the profile itself must satisfy the counter invariants — RunSpec
  // validates it and turns a violation into an execution error. Run serial
  // and parallel (the merged worker-clone path has its own invariant
  // rules).
  ExecSpec profiled = base;
  profiled.name = "exec:profile=on";
  profiled.profile = true;
  oracles.push_back({"exec:profile-differential", base, profiled,
                     CompareMode::kSequence, /*compare_work=*/true});

  ExecSpec par_plain = parallel_spec(4, 1024);
  ExecSpec par_profiled = par_plain;
  par_profiled.name += ",profile=on";
  par_profiled.profile = true;
  oracles.push_back({"exec:profile-differential-parallel", par_plain,
                     par_profiled, CompareMode::kSequence,
                     /*compare_work=*/true});

  // Memory-budget oracle (DESIGN.md §16): a budget tiny enough that every
  // blocking operator spills must still reproduce the unlimited run bit
  // for bit. Serial at the default batch, serial at batch=1 (exercises the
  // mid-batch spill trigger), and parallel (workers share the query
  // tracker, so the spill *point* races — the output must not).
  constexpr size_t kTinyBudget = 4 << 10;  // 4 KB: spills on most datasets
  ExecSpec spilled = base;
  spilled.name = "exec:budget=4k";
  spilled.memory_budget = kTinyBudget;
  oracles.push_back(
      {"exec:spill-vs-unlimited", base, spilled, CompareMode::kSequence});

  ExecSpec small_batch = base;
  small_batch.name = "exec:batch=1";
  small_batch.batch_size = 1;
  ExecSpec spilled_small = small_batch;
  spilled_small.name += ",budget=4k";
  spilled_small.memory_budget = kTinyBudget;
  oracles.push_back({"exec:spill-vs-unlimited,batch=1", small_batch,
                     spilled_small, CompareMode::kSequence});

  ExecSpec par_spilled = parallel_spec(4, 1024);
  par_spilled.name += ",budget=4k";
  par_spilled.memory_budget = kTinyBudget;
  oracles.push_back({"exec:spill-vs-unlimited-parallel",
                     parallel_spec(4, 1024), par_spilled,
                     CompareMode::kSequence});

  // Lifting oracle (DESIGN.md §17): a loop-lifted PGQ must reproduce the
  // per-group run bit for bit, serially, in parallel and spilled, and do
  // the same work outside the PGQ plan. Inside it the two forms differ by
  // design: the lifted plan runs once over all groups, in fewer and fuller
  // batches, with no Apply re-execution, and reads every group row where
  // a per-group Exists stops at its first.
  const std::vector<std::string> pgq_plan_counters = {
      "pgq_executions", "group_rows_scanned", "apply_invocations",
      "batches_produced", "batch_rows_produced"};
  for (const ExecSpec& lifted : {base, parallel_spec(4, 1024), spilled}) {
    ExecSpec per_group = lifted;
    per_group.name += ",per-group";
    per_group.lowering.per_group_gapply = true;
    std::string name = "exec:lifted-vs-per-group";
    if (lifted.lowering.gapply_parallelism > 1) name += "-parallel";
    if (lifted.memory_budget > 0) name += ",budget=4k";
    oracles.push_back({name, lifted, per_group, CompareMode::kSequence,
                       /*compare_work=*/true, pgq_plan_counters});
  }

  return oracles;
}

Result<QueryResult> RunSpec(const LogicalOp& plan, const Catalog& catalog,
                            const StatsManager& stats, const ExecSpec& spec,
                            ExecContext::Counters* work) {
  LogicalOpPtr working = plan.Clone();
  if (spec.optimize) {
    Optimizer optimizer(&catalog, &stats, spec.opt);
    ASSIGN_OR_RETURN(working, optimizer.Optimize(std::move(working)));
  }
  ASSIGN_OR_RETURN(PhysOpPtr phys, LowerPlan(*working, spec.lowering));
  // No shared thread pool: parallel operators fall back to transient
  // pools, which keeps specs fully independent of each other.
  ExecContext ctx;
  ctx.set_batch_size(spec.batch_size);
  ctx.set_profiling(spec.profile);
  // Budgeted specs get their own tracker + spill directory, exactly the
  // pair Session::ExecuteOptimizedLocked wires up for a budgeted query.
  MemoryTracker memory(spec.memory_budget);
  std::unique_ptr<SpillManager> spill;
  if (spec.memory_budget > 0) {
    spill = std::make_unique<SpillManager>("fuzz");
    ctx.set_memory(&memory);
    ctx.set_spill(spill.get());
  }
  Result<QueryResult> result = ExecuteToVector(phys.get(), &ctx);
  if (result.ok() && spec.profile) {
    RETURN_NOT_OK(ValidateProfile(CollectProfile(*phys)));
  }
  if (work != nullptr) *work = SumWorkCounters(*phys);
  return result;
}

Result<std::vector<Mismatch>> RunOracles(
    const LogicalOp& plan, const Catalog& catalog, const StatsManager& stats,
    const std::vector<OraclePair>& oracles) {
  // Dedup cache: specs with the same key execute once. A node-based map,
  // NOT a vector — callers hold references across later insertions.
  struct SpecRun {
    Result<QueryResult> result;
    ExecContext::Counters work;
  };
  std::map<std::string, SpecRun> cache;
  auto run = [&](const ExecSpec& spec) -> const SpecRun& {
    const std::string key = spec.Key();
    auto it = cache.find(key);
    if (it == cache.end()) {
      ExecContext::Counters work;
      Result<QueryResult> result =
          RunSpec(plan, catalog, stats, spec, &work);
      it = cache.emplace(key, SpecRun{std::move(result), work}).first;
    }
    return it->second;
  };

  std::vector<Mismatch> mismatches;
  for (const OraclePair& oracle : oracles) {
    const SpecRun& base_run = run(oracle.baseline);
    const SpecRun& cand_run = run(oracle.candidate);
    const Result<QueryResult>& base = base_run.result;
    const Result<QueryResult>& cand = cand_run.result;
    if (!base.ok() || !cand.ok()) {
      if (!base.ok() && !cand.ok() &&
          base.status().ToString() == cand.status().ToString()) {
        continue;  // both sides agree the query errors identically
      }
      mismatches.push_back(
          {oracle.name,
           "baseline(" + oracle.baseline.name + "): " +
               (base.ok() ? std::to_string(base->rows.size()) + " rows"
                          : base.status().ToString()) +
               "; candidate(" + oracle.candidate.name + "): " +
               (cand.ok() ? std::to_string(cand->rows.size()) + " rows"
                          : cand.status().ToString())});
      continue;
    }
    const bool same = oracle.mode == CompareMode::kSequence
                          ? SameRowSequence(base->rows, cand->rows)
                          : SameRowMultiset(base->rows, cand->rows);
    const std::string sides = "baseline(" + oracle.baseline.name +
                              ") vs candidate(" + oracle.candidate.name +
                              "): ";
    if (!same) {
      mismatches.push_back(
          {oracle.name,
           sides + DescribeDivergence(base->rows, cand->rows, oracle.mode)});
      continue;
    }
    const std::string work =
        oracle.compare_work
            ? DescribeWorkDivergence(base_run.work, cand_run.work,
                                     oracle.work_exempt)
            : "";
    if (!work.empty()) mismatches.push_back({oracle.name, sides + work});
  }
  return mismatches;
}

int CountPlanOps(const LogicalOp& plan) {
  if (plan.type() == LogicalOpType::kScan ||
      plan.type() == LogicalOpType::kGroupScan) {
    return 0;
  }
  int count = 1;
  for (size_t i = 0; i < plan.num_children(); ++i) {
    count += CountPlanOps(*plan.child(i));
  }
  if (plan.type() == LogicalOpType::kGApply) {
    count += CountPlanOps(
        *static_cast<const LogicalGApply&>(plan).pgq());
  }
  return count;
}

}  // namespace gapply::fuzz
