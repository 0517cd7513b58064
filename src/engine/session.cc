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

/// EXPLAIN ANALYZE text: the annotated plan, then outcome lines.
std::string AnalyzeText(size_t rows, const QueryStats& stats,
                        size_t admission_budget) {
  std::string out = RenderProfileText(stats.profile);
  out += "result rows: " + std::to_string(rows) + "\n";
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
         std::to_string(admission_budget) + ")\n";
  out += "memory: budget " +
         (stats.memory_budget == 0 ? std::string("unlimited")
                                   : std::to_string(stats.memory_budget)) +
         ", peak " + std::to_string(stats.peak_memory) + ", spilled " +
         std::to_string(stats.counters.spill_bytes) + " bytes in " +
         std::to_string(stats.counters.spill_partitions) + " partitions\n";
  const QueryStats::LayerNs& ns = stats.layer_ns;
  char layers[256];
  std::snprintf(layers, sizeof(layers),
                "layers: parse %.1fus bind %.1fus cache_lookup %.1fus "
                "optimize %.1fus lower %.1fus admission_wait %.1fus "
                "execute %.1fus\n",
                ns.parse / 1e3, ns.bind / 1e3, ns.cache_lookup / 1e3,
                ns.optimize / 1e3, ns.lower / 1e3, ns.admission_wait / 1e3,
                ns.execute / 1e3);
  out += layers;
  out += RuleTraceText(stats.rule_trace);
  return out;
}

/// EXPLAIN (ANALYZE, FORMAT JSON): the shared per-operator schema under
/// "plan", the rule trace under "rules", headline counters under
/// "counters".
JsonValue AnalyzeJson(size_t rows, const QueryStats& stats) {
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
  counters.Set("result_rows", JsonValue::Int(static_cast<int64_t>(rows)));
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
  counters.Set("scan_rows_evaluated",
               JsonValue::Int(static_cast<int64_t>(
                   stats.counters.scan_rows_evaluated)));
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

/// The statement EXPLAIN [ANALYZE] runs: a query or EXECUTE <name>.
Result<sql::Statement> ParseExplainTarget(const std::string& sql) {
  ASSIGN_OR_RETURN(sql::Statement stmt, sql::ParseStatement(sql));
  if (stmt.kind == sql::Statement::Kind::kQuery ||
      stmt.kind == sql::Statement::Kind::kExecute) {
    return stmt;
  }
  return sql::Parse(sql).status();  // the query grammar's own error
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

void Session::ChargeLayer(QueryStats* stats,
                          uint64_t QueryStats::LayerNs::*layer) {
  if (stats == nullptr) return;
  const uint64_t now = NowNs();
  stats->layer_ns.*layer += now - layer_mark_ns_;
  layer_mark_ns_ = now;
}

Result<QueryResult> Session::Query(const std::string& sql,
                                   const QueryOptions& options,
                                   QueryStats* stats_out) {
  // Each query reports a fresh stats snapshot; callers may reuse the struct.
  if (stats_out != nullptr) {
    layer_mark_ns_ = NowNs();
    *stats_out = QueryStats{};
  }
  std::shared_lock<std::shared_mutex> lock(db_->schema_mutex_);
  ChargeLayer(stats_out, &QueryStats::LayerNs::admission_wait);
  Result<QueryResult> result = QueryLocked(sql, options, stats_out);
  lock.unlock();
  ChargeLayer(stats_out, &QueryStats::LayerNs::execute);
  return result;
}

Result<QueryResult> Session::QueryLocked(const std::string& sql,
                                         const QueryOptions& options,
                                         QueryStats* stats_out) {
  ASSIGN_OR_RETURN(sql::Statement stmt, sql::ParseStatement(sql));
  ChargeLayer(stats_out, &QueryStats::LayerNs::parse);
  switch (stmt.kind) {
    case sql::Statement::Kind::kQuery:
    case sql::Statement::Kind::kExecute:
      return RunLocked(stmt, options, stats_out);
    case sql::Statement::Kind::kSet:
      RETURN_NOT_OK(ApplySetStatement(stmt.set));
      return QueryResult{};
    case sql::Statement::Kind::kPrepare:
      RETURN_NOT_OK(PrepareLocked(stmt.name, std::move(stmt.query)));
      return QueryResult{};
    case sql::Statement::Kind::kDeallocate:
      if (stmt.all) {
        DeallocateAll();
      } else {
        RETURN_NOT_OK(Deallocate(stmt.name));
      }
      return QueryResult{};
    case sql::Statement::Kind::kExplain:
      break;
  }
  if (!stmt.analyze) {
    if (stmt.json) {
      return Status::InvalidArgument("EXPLAIN (FORMAT JSON) requires ANALYZE");
    }
    ASSIGN_OR_RETURN(std::string text, ExplainLocked(*stmt.target, options));
    return TextResult(text);
  }
  // An untimed caller's statement is timed from here on.
  QueryStats local;
  QueryStats* stats = stats_out;
  if (stats == nullptr) {
    stats = &local;
    layer_mark_ns_ = NowNs();
  }
  QueryOptions profiled = options;
  profiled.profile = true;
  ASSIGN_OR_RETURN(QueryResult result,
                   RunLocked(*stmt.target, profiled, stats));
  const size_t rows = result.rows.size();
  return TextResult(stmt.json ? AnalyzeJson(rows, *stats).Dump(2)
                              : AnalyzeText(rows, *stats,
                                            db_->admission_.budget()));
}

Result<const sql::Query*> Session::ResolveQuery(
    const sql::Statement& stmt, const Prepared** prepared) const {
  *prepared = nullptr;
  if (stmt.kind != sql::Statement::Kind::kExecute) return stmt.query.get();
  auto it = prepared_.find(stmt.name);
  if (it == prepared_.end()) {
    return Status::NotFound("prepared statement not found: " + stmt.name);
  }
  *prepared = &it->second;
  return it->second.query.get();
}

Result<QueryResult> Session::RunLocked(const sql::Statement& stmt,
                                       const QueryOptions& options,
                                       QueryStats* stats_out) {
  const Prepared* prepared = nullptr;
  ASSIGN_OR_RETURN(const sql::Query* query, ResolveQuery(stmt, &prepared));
  const bool use_cache =
      options.optimize && options.use_plan_cache && plan_cache_enabled_;
  if (!use_cache) {
    sql::Binder binder(&db_->catalog_);
    ASSIGN_OR_RETURN(LogicalOpPtr plan, binder.Bind(*query));
    ChargeLayer(stats_out, &QueryStats::LayerNs::bind);
    if (options.optimize) {
      Optimizer optimizer(&db_->catalog_, &db_->stats_,
                          ResolveOptimizer(options));
      ASSIGN_OR_RETURN(plan, optimizer.Optimize(std::move(plan)));
      if (stats_out != nullptr) {
        stats_out->fired_rules = optimizer.fired_rules();
        stats_out->rule_trace = optimizer.rule_trace();
      }
      ChargeLayer(stats_out, &QueryStats::LayerNs::optimize);
    }
    return ExecuteOptimizedLocked(*plan, options, stats_out);
  }
  // Cache key: print→parse-normalized SQL (computed once at PREPARE for
  // EXECUTE) + cache-relevant options + catalog/stats versions (so schema
  // changes and ANALYZE invalidate passively — stale keys simply age out of
  // the LRU).
  std::string printed;
  if (prepared == nullptr) printed = sql::ToSql(*query);
  const std::string key = PlanCache::MakeKey(
      prepared != nullptr ? prepared->normalized : printed,
      CacheFingerprint(options), db_->catalog_.version(),
      db_->stats_.version());
  if (stats_out != nullptr) stats_out->plan_cache_checked = true;
  PlanCache::EntryPtr entry = db_->plan_cache_.Lookup(key);
  if (entry != nullptr) {
    if (stats_out != nullptr) stats_out->plan_cache_hit = true;
  } else {
    ChargeLayer(stats_out, &QueryStats::LayerNs::cache_lookup);
    sql::Binder binder(&db_->catalog_);
    ASSIGN_OR_RETURN(LogicalOpPtr bound, binder.Bind(*query));
    ChargeLayer(stats_out, &QueryStats::LayerNs::bind);
    Optimizer optimizer(&db_->catalog_, &db_->stats_,
                        ResolveOptimizer(options));
    ASSIGN_OR_RETURN(LogicalOpPtr optimized,
                     optimizer.Optimize(std::move(bound)));
    ChargeLayer(stats_out, &QueryStats::LayerNs::optimize);
    entry = std::make_shared<const PlanCache::Entry>(PlanCache::Entry{
        std::move(optimized), optimizer.fired_rules(),
        optimizer.rule_trace()});
    db_->plan_cache_.Insert(key, entry);
  }
  if (stats_out != nullptr) {
    stats_out->fired_rules = entry->fired_rules;
    stats_out->rule_trace = entry->rule_trace;
  }
  ChargeLayer(stats_out, &QueryStats::LayerNs::cache_lookup);
  // The entry is immutable and shared by concurrent hits; lowering clones
  // the expressions it keeps.
  return ExecuteOptimizedLocked(*entry->plan, options, stats_out);
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
  ChargeLayer(stats_out, &QueryStats::LayerNs::lower);
  AdmissionSlot slot(&db_->admission_, requested);
  ChargeLayer(stats_out, &QueryStats::LayerNs::admission_wait);
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
  ChargeLayer(stats_out, &QueryStats::LayerNs::lower);
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
    stats_out->counters = SumWorkCounters(*phys);
    stats_out->memory_budget = memory_budget;
    stats_out->peak_memory = query_memory.peak();
    if (profile) {
      stats_out->has_profile = true;
      stats_out->profile = CollectProfile(*phys);
    }
    const PlanCache::Stats cache_stats = db_->plan_cache_.stats();
    stats_out->plan_cache_hits = cache_stats.hits;
    stats_out->plan_cache_misses = cache_stats.misses;
    // Releasing the operator tree is part of running it.
    phys.reset();
    ChargeLayer(stats_out, &QueryStats::LayerNs::execute);
  }
  return result;
}

Result<QueryResult> Session::Execute(const LogicalOp& plan,
                                     const QueryOptions& options,
                                     QueryStats* stats_out) {
  // Each query reports a fresh stats snapshot; callers may reuse the struct.
  if (stats_out != nullptr) {
    layer_mark_ns_ = NowNs();
    *stats_out = QueryStats{};
  }
  std::shared_lock<std::shared_mutex> lock(db_->schema_mutex_);
  ChargeLayer(stats_out, &QueryStats::LayerNs::admission_wait);
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
  ChargeLayer(stats_out, &QueryStats::LayerNs::optimize);
  Result<QueryResult> result =
      ExecuteOptimizedLocked(*working, options, stats_out);
  working.reset();
  lock.unlock();
  ChargeLayer(stats_out, &QueryStats::LayerNs::execute);
  return result;
}

Status Session::Prepare(const std::string& name, const std::string& sql) {
  ASSIGN_OR_RETURN(sql::QueryPtr query, sql::Parse(sql));
  std::shared_lock<std::shared_mutex> lock(db_->schema_mutex_);
  return PrepareLocked(ToLower(name), std::move(query));
}

Status Session::PrepareLocked(const std::string& name, sql::QueryPtr query) {
  if (prepared_.count(name) > 0) {
    return Status::InvalidArgument("prepared statement already exists: " +
                                   name);
  }
  // Bind now so errors surface at PREPARE time. EXECUTE binds the kept
  // query again only when the plan cache misses, against the catalog of
  // that moment.
  sql::Binder binder(&db_->catalog_);
  RETURN_NOT_OK(binder.Bind(*query).status());
  std::string normalized = sql::ToSql(*query);
  prepared_[name] = Prepared{std::move(query), std::move(normalized)};
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
  for (const auto& [name, prepared] : prepared_) names.push_back(name);
  return names;
}

Result<std::string> Session::Explain(const std::string& sql,
                                     const QueryOptions& options) {
  ASSIGN_OR_RETURN(sql::Statement target, ParseExplainTarget(sql));
  std::shared_lock<std::shared_mutex> lock(db_->schema_mutex_);
  return ExplainLocked(target, options);
}

Result<std::string> Session::ExplainLocked(const sql::Statement& target,
                                           const QueryOptions& options) {
  const Prepared* prepared = nullptr;
  ASSIGN_OR_RETURN(const sql::Query* query, ResolveQuery(target, &prepared));
  sql::Binder binder(&db_->catalog_);
  ASSIGN_OR_RETURN(LogicalOpPtr plan, binder.Bind(*query));
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

Result<QueryResult> Session::RunProfiled(const std::string& sql,
                                         const QueryOptions& options,
                                         QueryStats* stats) {
  layer_mark_ns_ = NowNs();
  ASSIGN_OR_RETURN(sql::Statement target, ParseExplainTarget(sql));
  ChargeLayer(stats, &QueryStats::LayerNs::parse);
  std::shared_lock<std::shared_mutex> lock(db_->schema_mutex_);
  ChargeLayer(stats, &QueryStats::LayerNs::admission_wait);
  QueryOptions profiled = options;
  profiled.profile = true;
  return RunLocked(target, profiled, stats);
}

Result<std::string> Session::ExplainAnalyze(const std::string& sql,
                                            const QueryOptions& options) {
  QueryStats stats;
  ASSIGN_OR_RETURN(QueryResult result, RunProfiled(sql, options, &stats));
  return AnalyzeText(result.rows.size(), stats, db_->admission_.budget());
}

Result<JsonValue> Session::ExplainAnalyzeJson(const std::string& sql,
                                              const QueryOptions& options) {
  QueryStats stats;
  ASSIGN_OR_RETURN(QueryResult result, RunProfiled(sql, options, &stats));
  return AnalyzeJson(result.rows.size(), stats);
}

}  // namespace gapply
