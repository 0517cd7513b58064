#include "src/engine/session.h"

#include <algorithm>
#include <cstdio>
#include <shared_mutex>

#include "src/common/admission.h"
#include "src/common/memory_tracker.h"
#include "src/common/spill_file.h"
#include "src/common/string_util.h"
#include "src/engine/database.h"
#include "src/optimizer/cost_model.h"
#include "src/sql/binder.h"
#include "src/sql/printer.h"

namespace gapply {

namespace {

std::string FormatRows(double rows) {
  if (rows < 0) return "?";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.0f", rows);
  return buf;
}

/// One string column, one row per line of `text` — how EXPLAIN output is
/// surfaced through the ordinary Query result channel.
QueryResult TextResult(const std::string& text) {
  QueryResult result;
  result.schema = Schema({Column("explain", TypeId::kString)});
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    result.rows.push_back(Row{Value::Str(text.substr(start, end - start))});
    start = end + 1;
  }
  return result;
}

std::string RuleTraceText(const std::vector<Optimizer::RuleFiring>& trace) {
  if (trace.empty()) return {};
  std::string out = "=== rule trace ===\n";
  for (const Optimizer::RuleFiring& firing : trace) {
    out += firing.rule + "  (est rows " + FormatRows(firing.rows_before) +
           " -> " + FormatRows(firing.rows_after) + ")\n";
  }
  return out;
}

}  // namespace

void Session::set_default_gapply_parallelism(size_t dop) {
  // 0 = "all the hardware", mirroring SQL Server's MAXDOP 0.
  default_gapply_parallelism_ =
      dop == 0 ? ThreadPool::DefaultParallelism() : dop;
}

Status Session::ApplySetStatement(const sql::SetStatement& stmt) {
  if (stmt.name == "memory_budget") {
    // Takes a positive byte count, or the word `unlimited` to turn
    // governance back off. 0 is rejected rather than aliased to
    // unlimited so a typo'd budget cannot silently disable spilling.
    if (stmt.word == "unlimited") {
      set_default_memory_budget(0);
      return Status::OK();
    }
    if (!stmt.word.empty() || stmt.from_bool_word || stmt.value <= 0) {
      return Status::InvalidArgument(
          "SET memory_budget: value must be a positive byte count or "
          "unlimited, got " +
          (stmt.word.empty() ? std::to_string(stmt.value) : stmt.word));
    }
    set_default_memory_budget(static_cast<size_t>(stmt.value));
    return Status::OK();
  }
  if (stmt.name == "storage") {
    if (stmt.word == "columnar") {
      set_default_columnar_storage(true);
      return Status::OK();
    }
    if (stmt.word == "row") {
      set_default_columnar_storage(false);
      return Status::OK();
    }
    return Status::InvalidArgument(
        "SET storage: value must be columnar or row, got " +
        (stmt.word.empty() ? std::to_string(stmt.value) : stmt.word));
  }
  if (!stmt.word.empty()) {
    // Every remaining knob takes an integer or on/off value.
    return Status::InvalidArgument("SET " + stmt.name +
                                   ": unexpected value " + stmt.word);
  }
  if (stmt.name == "parallelism" || stmt.name == "gapply_parallelism") {
    if (stmt.value < 0) {
      return Status::InvalidArgument(
          "SET " + stmt.name + ": value must be >= 0, got " +
          std::to_string(stmt.value));
    }
    set_default_gapply_parallelism(static_cast<size_t>(stmt.value));
    return Status::OK();
  }
  if (stmt.name == "batch_size") {
    if (stmt.value < 0) {
      return Status::InvalidArgument(
          "SET batch_size: value must be >= 0, got " +
          std::to_string(stmt.value));
    }
    set_default_batch_size(static_cast<size_t>(stmt.value));
    return Status::OK();
  }
  if (stmt.name == "profile") {
    if (stmt.value != 0 && stmt.value != 1) {
      return Status::InvalidArgument(
          "SET profile: value must be on/off (1/0), got " +
          std::to_string(stmt.value));
    }
    set_default_profile(stmt.value != 0);
    return Status::OK();
  }
  if (stmt.name == "plan_cache") {
    if (stmt.value != 0 && stmt.value != 1) {
      return Status::InvalidArgument(
          "SET plan_cache: value must be on/off (1/0), got " +
          std::to_string(stmt.value));
    }
    set_plan_cache_enabled(stmt.value != 0);
    return Status::OK();
  }
  return Status::InvalidArgument("unknown session option: " + stmt.name);
}

LoweringOptions Session::ResolveLowering(const QueryOptions& options) const {
  LoweringOptions lowering = options.lowering;
  if (lowering.gapply_parallelism == 0) {
    lowering.gapply_parallelism = default_gapply_parallelism_;
  }
  if (lowering.exchange_parallelism == 0) {
    lowering.exchange_parallelism = default_gapply_parallelism_;
  }
  if (!lowering.columnar_storage.has_value()) {
    lowering.columnar_storage = default_columnar_storage_;
  }
  return lowering;
}

std::string Session::CacheFingerprint(const QueryOptions& options) const {
  // Every knob that changes what plan we would build (optimizer toggles)
  // or how a hit would be lowered (requested DOP, storage, partitioning)
  // goes in; execution-only knobs (batch_size, profile) stay out. The
  // *requested* parallelism is fingerprinted, not the admission grant:
  // grants vary moment to moment and never change results (DESIGN.md §15).
  const LoweringOptions lowering = ResolveLowering(options);
  std::string fp;
  fp += "gp" + std::to_string(lowering.gapply_parallelism);
  fp += ";xp" + std::to_string(lowering.exchange_parallelism);
  fp += ";xr" + std::to_string(lowering.exchange_min_rows);
  fp += ";xm" + std::to_string(lowering.exchange_morsel_rows);
  fp += ";st";
  fp += lowering.columnar_storage.value_or(true) ? '1' : '0';
  fp += ";pm";
  fp += lowering.force_partition_mode.has_value()
            ? std::to_string(static_cast<int>(*lowering.force_partition_mode))
            : "-";
  fp += ";sg";
  fp += lowering.stream_group_by ? '1' : '0';
  fp += ";mb" + std::to_string(ResolveMemoryBudget(options));
  fp += ";r";
  const Optimizer::Options& opt = options.optimizer;
  for (const Optimizer::Options::Toggle& toggle :
       Optimizer::Options::RuleToggles()) {
    fp += (opt.*(toggle.flag)) ? '1' : '0';
  }
  fp += ";cg";
  fp += opt.cost_gate ? '1' : '0';
  fp += ";mp" + std::to_string(opt.max_passes);
  fp += ";un";
  fp += opt.unsafe_skip_rule_preconditions ? '1' : '0';
  return fp;
}

Result<QueryResult> Session::Query(const std::string& sql,
                                   const QueryOptions& options,
                                   QueryStats* stats_out) {
  // Each query reports a fresh stats snapshot; callers may reuse the struct.
  if (stats_out != nullptr) *stats_out = QueryStats{};
  std::shared_lock<std::shared_mutex> lock(db_->schema_mutex_);
  return QueryLocked(sql, options, stats_out);
}

Result<QueryResult> Session::QueryLocked(const std::string& sql,
                                         const QueryOptions& options,
                                         QueryStats* stats_out) {
  ASSIGN_OR_RETURN(std::optional<sql::SetStatement> set_stmt,
                   sql::TryParseSet(sql));
  if (set_stmt.has_value()) {
    RETURN_NOT_OK(ApplySetStatement(*set_stmt));
    return QueryResult{};
  }
  ASSIGN_OR_RETURN(std::optional<sql::PrepareStatement> prepare_stmt,
                   sql::TryParsePrepare(sql));
  if (prepare_stmt.has_value()) {
    RETURN_NOT_OK(PrepareLocked(prepare_stmt->name, prepare_stmt->sql));
    return QueryResult{};
  }
  ASSIGN_OR_RETURN(std::optional<sql::ExecuteStatement> execute_stmt,
                   sql::TryParseExecute(sql));
  if (execute_stmt.has_value()) {
    auto it = prepared_.find(execute_stmt->name);
    if (it == prepared_.end()) {
      return Status::NotFound("prepared statement not found: " +
                              execute_stmt->name);
    }
    return RunSqlLocked(it->second, options, stats_out);
  }
  ASSIGN_OR_RETURN(std::optional<sql::DeallocateStatement> dealloc_stmt,
                   sql::TryParseDeallocate(sql));
  if (dealloc_stmt.has_value()) {
    if (dealloc_stmt->all) {
      prepared_.clear();
      return QueryResult{};
    }
    auto it = prepared_.find(dealloc_stmt->name);
    if (it == prepared_.end()) {
      return Status::NotFound("prepared statement not found: " +
                              dealloc_stmt->name);
    }
    prepared_.erase(it);
    return QueryResult{};
  }
  ASSIGN_OR_RETURN(std::optional<sql::ExplainStatement> explain_stmt,
                   sql::TryParseExplain(sql));
  if (explain_stmt.has_value()) {
    if (!explain_stmt->analyze) {
      if (explain_stmt->json) {
        return Status::InvalidArgument(
            "EXPLAIN (FORMAT JSON) requires ANALYZE");
      }
      ASSIGN_OR_RETURN(std::string text,
                       ExplainLocked(explain_stmt->query, options));
      return TextResult(text);
    }
    if (explain_stmt->json) {
      ASSIGN_OR_RETURN(JsonValue json,
                       ExplainAnalyzeJsonLocked(explain_stmt->query, options));
      return TextResult(json.Dump(2));
    }
    ASSIGN_OR_RETURN(std::string text,
                     ExplainAnalyzeLocked(explain_stmt->query, options));
    return TextResult(text);
  }
  return RunSqlLocked(sql, options, stats_out);
}

Result<QueryResult> Session::RunSqlLocked(const std::string& sql,
                                          const QueryOptions& options,
                                          QueryStats* stats_out) {
  ASSIGN_OR_RETURN(sql::QueryPtr ast, sql::Parse(sql));
  const bool use_cache =
      options.optimize && options.use_plan_cache && plan_cache_enabled_;
  if (use_cache) {
    // Cache key: print→parse-normalized SQL + cache-relevant options +
    // catalog/stats versions (so schema changes and ANALYZE invalidate
    // passively — stale keys simply age out of the LRU).
    const std::string normalized = sql::ToSql(*ast);
    const std::string key =
        PlanCache::MakeKey(normalized, CacheFingerprint(options),
                           db_->catalog_.version(), db_->stats_.version());
    if (stats_out != nullptr) stats_out->plan_cache_checked = true;
    std::optional<PlanCache::Entry> hit = db_->plan_cache_.Lookup(key);
    if (hit.has_value()) {
      if (stats_out != nullptr) {
        stats_out->plan_cache_hit = true;
        stats_out->fired_rules = hit->fired_rules;
        stats_out->rule_trace = hit->rule_trace;
      }
      // ExecuteOptimizedLocked lowers from a fresh clone-free read of the
      // shared immutable plan; expressions are cloned during lowering, so
      // concurrent hits on one entry are safe.
      return ExecuteOptimizedLocked(*hit->plan, options, stats_out);
    }
    sql::Binder binder(&db_->catalog_);
    ASSIGN_OR_RETURN(LogicalOpPtr bound, binder.Bind(*ast));
    Optimizer optimizer(&db_->catalog_, &db_->stats_,
                        ResolveOptimizer(options));
    ASSIGN_OR_RETURN(LogicalOpPtr optimized,
                     optimizer.Optimize(std::move(bound)));
    PlanCache::Entry entry;
    entry.plan = std::shared_ptr<const LogicalOp>(std::move(optimized));
    entry.fired_rules = optimizer.fired_rules();
    entry.rule_trace = optimizer.rule_trace();
    if (stats_out != nullptr) {
      stats_out->fired_rules = entry.fired_rules;
      stats_out->rule_trace = entry.rule_trace;
    }
    db_->plan_cache_.Insert(key, entry);
    return ExecuteOptimizedLocked(*entry.plan, options, stats_out);
  }
  sql::Binder binder(&db_->catalog_);
  ASSIGN_OR_RETURN(LogicalOpPtr plan, binder.Bind(*ast));
  if (options.optimize) {
    Optimizer optimizer(&db_->catalog_, &db_->stats_,
                        ResolveOptimizer(options));
    ASSIGN_OR_RETURN(plan, optimizer.Optimize(std::move(plan)));
    if (stats_out != nullptr) {
      stats_out->fired_rules = optimizer.fired_rules();
      stats_out->rule_trace = optimizer.rule_trace();
    }
  }
  return ExecuteOptimizedLocked(*plan, options, stats_out);
}

Result<QueryResult> Session::ExecuteOptimizedLocked(const LogicalOp& optimized,
                                                    const QueryOptions& options,
                                                    QueryStats* stats_out) {
  const bool profile = options.profile || default_profile_;
  LoweringOptions lowering = ResolveLowering(options);
  // Admission: ask for as many tokens as the resolved DOP wants, clamp the
  // plan to the grant. The slot is held for the whole execution; holders
  // never re-acquire, so the bucket cannot deadlock.
  const size_t requested = std::max<size_t>(
      1, std::max(lowering.gapply_parallelism, lowering.exchange_parallelism));
  AdmissionSlot slot(&db_->admission_, requested);
  lowering.ClampParallelism(slot.granted());
  if (stats_out != nullptr) {
    stats_out->admission_requested = requested;
    stats_out->admission_granted = slot.granted();
    stats_out->admission_waited = slot.waited();
  }
  CostModel cost_model(&db_->catalog_, &db_->stats_);
  if (profile && lowering.cost_model == nullptr) {
    // Stamp estimated cardinalities so the profile can report estimated
    // vs. actual rows.
    lowering.cost_model = &cost_model;
  }
  ASSIGN_OR_RETURN(PhysOpPtr phys, LowerPlan(optimized, lowering));
  ExecContext ctx;
  ctx.set_profiling(profile);
  ctx.set_batch_size(options.batch_size == 0 ? default_batch_size_
                                             : options.batch_size);
  const size_t max_dop =
      std::max(lowering.gapply_parallelism, lowering.exchange_parallelism);
  if (max_dop > 1) ctx.set_thread_pool(db_->shared_thread_pool(max_dop));
  // Memory governance (DESIGN.md §16): a budgeted query gets a tracker
  // chained to the Database aggregate and a query-scoped spill directory
  // (removed when `spill` goes out of scope, after execution finishes).
  const size_t memory_budget = ResolveMemoryBudget(options);
  MemoryTracker query_memory(memory_budget, db_->memory_root());
  std::unique_ptr<SpillManager> spill;
  if (memory_budget > 0) {
    spill = std::make_unique<SpillManager>("query");
    ctx.set_memory(&query_memory);
    ctx.set_spill(spill.get());
  }
  ASSIGN_OR_RETURN(QueryResult result, ExecuteToVector(phys.get(), &ctx));
  if (stats_out != nullptr) {
    stats_out->counters = ctx.counters();
    stats_out->memory_budget = memory_budget;
    stats_out->peak_memory = query_memory.peak();
    if (profile) {
      stats_out->has_profile = true;
      stats_out->profile = CollectProfile(*phys);
    }
    const PlanCache::Stats cache_stats = db_->plan_cache_.stats();
    stats_out->plan_cache_hits = cache_stats.hits;
    stats_out->plan_cache_misses = cache_stats.misses;
  }
  return result;
}

Result<QueryResult> Session::Execute(const LogicalOp& plan,
                                     const QueryOptions& options,
                                     QueryStats* stats_out) {
  std::shared_lock<std::shared_mutex> lock(db_->schema_mutex_);
  LogicalOpPtr working = plan.Clone();
  if (options.optimize) {
    Optimizer optimizer(&db_->catalog_, &db_->stats_,
                        ResolveOptimizer(options));
    ASSIGN_OR_RETURN(working, optimizer.Optimize(std::move(working)));
    if (stats_out != nullptr) {
      stats_out->fired_rules = optimizer.fired_rules();
      stats_out->rule_trace = optimizer.rule_trace();
    }
  }
  return ExecuteOptimizedLocked(*working, options, stats_out);
}

Status Session::Prepare(const std::string& name, const std::string& sql) {
  std::shared_lock<std::shared_mutex> lock(db_->schema_mutex_);
  return PrepareLocked(name, sql);
}

Status Session::PrepareLocked(const std::string& name,
                              const std::string& sql) {
  const std::string key = ToLower(name);
  if (prepared_.count(key) > 0) {
    return Status::InvalidArgument("prepared statement already exists: " +
                                   key);
  }
  // Parse AND bind now so errors surface at PREPARE time, then store the
  // print→parse-normalized text: EXECUTE re-plans through the plan cache,
  // which repeated executions hit.
  ASSIGN_OR_RETURN(sql::QueryPtr ast, sql::Parse(sql));
  sql::Binder binder(&db_->catalog_);
  RETURN_NOT_OK(binder.Bind(*ast).status());
  prepared_[key] = sql::ToSql(*ast);
  return Status::OK();
}

Status Session::Deallocate(const std::string& name) {
  const std::string key = ToLower(name);
  auto it = prepared_.find(key);
  if (it == prepared_.end()) {
    return Status::NotFound("prepared statement not found: " + key);
  }
  prepared_.erase(it);
  return Status::OK();
}

void Session::DeallocateAll() { prepared_.clear(); }

std::vector<std::string> Session::PreparedNames() const {
  std::vector<std::string> names;
  names.reserve(prepared_.size());
  for (const auto& [name, text] : prepared_) names.push_back(name);
  return names;
}

Result<std::string> Session::ResolveExecuteLocked(const std::string& sql) {
  ASSIGN_OR_RETURN(std::optional<sql::ExecuteStatement> execute_stmt,
                   sql::TryParseExecute(sql));
  if (!execute_stmt.has_value()) return sql;
  auto it = prepared_.find(execute_stmt->name);
  if (it == prepared_.end()) {
    return Status::NotFound("prepared statement not found: " +
                            execute_stmt->name);
  }
  return it->second;
}

Result<std::string> Session::Explain(const std::string& sql,
                                     const QueryOptions& options) {
  std::shared_lock<std::shared_mutex> lock(db_->schema_mutex_);
  return ExplainLocked(sql, options);
}

Result<std::string> Session::ExplainLocked(const std::string& sql,
                                           const QueryOptions& options) {
  ASSIGN_OR_RETURN(std::string real_sql, ResolveExecuteLocked(sql));
  ASSIGN_OR_RETURN(LogicalOpPtr plan,
                   sql::ParseAndBind(db_->catalog_, real_sql));
  std::string out = "=== bound plan ===\n" + plan->DebugString();
  if (options.optimize) {
    Optimizer optimizer(&db_->catalog_, &db_->stats_, options.optimizer);
    ASSIGN_OR_RETURN(LogicalOpPtr optimized,
                     optimizer.Optimize(std::move(plan)));
    out += "=== optimized plan ===\n" + optimized->DebugString();
    out += "=== fired rules ===\n";
    if (optimizer.fired_rules().empty()) {
      out += "(none)\n";
    } else {
      for (const std::string& r : optimizer.fired_rules()) {
        out += r + "\n";
      }
    }
    const LoweringOptions lowering = ResolveLowering(options);
    ASSIGN_OR_RETURN(PhysOpPtr phys, LowerPlan(*optimized, lowering));
    out += "=== physical plan ===\n" + phys->DebugString();
  }
  return out;
}

Result<std::string> Session::ExplainAnalyze(const std::string& sql,
                                            const QueryOptions& options) {
  std::shared_lock<std::shared_mutex> lock(db_->schema_mutex_);
  return ExplainAnalyzeLocked(sql, options);
}

Result<std::string> Session::ExplainAnalyzeLocked(const std::string& sql,
                                                  const QueryOptions& options) {
  ASSIGN_OR_RETURN(std::string real_sql, ResolveExecuteLocked(sql));
  QueryOptions opts = options;
  opts.profile = true;
  QueryStats stats;
  ASSIGN_OR_RETURN(QueryResult result, RunSqlLocked(real_sql, opts, &stats));
  std::string out = RenderProfileText(stats.profile);
  out += "result rows: " + std::to_string(result.rows.size()) + "\n";
  if (stats.plan_cache_checked) {
    out += std::string("plan cache: ") +
           (stats.plan_cache_hit ? "hit" : "miss") +
           " (hits=" + std::to_string(stats.plan_cache_hits) +
           " misses=" + std::to_string(stats.plan_cache_misses) + ")\n";
  } else {
    out += "plan cache: bypass\n";
  }
  out += "admission: requested " + std::to_string(stats.admission_requested) +
         ", granted " + std::to_string(stats.admission_granted) +
         (stats.admission_waited ? ", waited" : "") + " (budget " +
         std::to_string(db_->admission_.budget()) + ")\n";
  out += "memory: budget " +
         (stats.memory_budget == 0 ? std::string("unlimited")
                                   : std::to_string(stats.memory_budget)) +
         ", peak " + std::to_string(stats.peak_memory) + ", spilled " +
         std::to_string(stats.counters.spill_bytes) + " bytes in " +
         std::to_string(stats.counters.spill_partitions) + " partitions\n";
  out += RuleTraceText(stats.rule_trace);
  return out;
}

Result<JsonValue> Session::ExplainAnalyzeJson(const std::string& sql,
                                              const QueryOptions& options) {
  std::shared_lock<std::shared_mutex> lock(db_->schema_mutex_);
  return ExplainAnalyzeJsonLocked(sql, options);
}

Result<JsonValue> Session::ExplainAnalyzeJsonLocked(
    const std::string& sql, const QueryOptions& options) {
  ASSIGN_OR_RETURN(std::string real_sql, ResolveExecuteLocked(sql));
  QueryOptions opts = options;
  opts.profile = true;
  QueryStats stats;
  ASSIGN_OR_RETURN(QueryResult result, RunSqlLocked(real_sql, opts, &stats));
  JsonValue out = JsonValue::Object();
  out.Set("plan", ProfileToJson(stats.profile));
  JsonValue rules = JsonValue::Array();
  for (const Optimizer::RuleFiring& firing : stats.rule_trace) {
    JsonValue rule = JsonValue::Object();
    rule.Set("rule", JsonValue::Str(firing.rule));
    if (firing.rows_before >= 0) {
      rule.Set("estimated_rows_before", JsonValue::Double(firing.rows_before));
    }
    if (firing.rows_after >= 0) {
      rule.Set("estimated_rows_after", JsonValue::Double(firing.rows_after));
    }
    rules.Append(std::move(rule));
  }
  out.Set("rules", std::move(rules));
  JsonValue counters = JsonValue::Object();
  counters.Set("result_rows",
               JsonValue::Int(static_cast<int64_t>(result.rows.size())));
  counters.Set("gapply_workers",
               JsonValue::Int(static_cast<int64_t>(
                   stats.counters.gapply_workers)));
  counters.Set("gapply_worker_busy_ns",
               JsonValue::Int(static_cast<int64_t>(
                   stats.counters.gapply_worker_busy_ns)));
  counters.Set("morsels_pruned",
               JsonValue::Int(static_cast<int64_t>(
                   stats.counters.morsels_pruned)));
  counters.Set("morsels_scanned",
               JsonValue::Int(static_cast<int64_t>(
                   stats.counters.morsels_scanned)));
  counters.Set("plan_cache_checked", JsonValue::Bool(stats.plan_cache_checked));
  counters.Set("plan_cache_hit", JsonValue::Bool(stats.plan_cache_hit));
  counters.Set("plan_cache_hits",
               JsonValue::Int(static_cast<int64_t>(stats.plan_cache_hits)));
  counters.Set("plan_cache_misses",
               JsonValue::Int(static_cast<int64_t>(stats.plan_cache_misses)));
  counters.Set("admission_requested",
               JsonValue::Int(static_cast<int64_t>(stats.admission_requested)));
  counters.Set("admission_granted",
               JsonValue::Int(static_cast<int64_t>(stats.admission_granted)));
  counters.Set("admission_waited", JsonValue::Bool(stats.admission_waited));
  counters.Set("memory_budget",
               JsonValue::Int(static_cast<int64_t>(stats.memory_budget)));
  counters.Set("peak_memory",
               JsonValue::Int(static_cast<int64_t>(stats.peak_memory)));
  counters.Set("spill_bytes",
               JsonValue::Int(static_cast<int64_t>(
                   stats.counters.spill_bytes)));
  counters.Set("spill_partitions",
               JsonValue::Int(static_cast<int64_t>(
                   stats.counters.spill_partitions)));
  out.Set("counters", std::move(counters));
  return out;
}

}  // namespace gapply
