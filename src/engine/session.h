#ifndef GAPPLY_ENGINE_SESSION_H_
#define GAPPLY_ENGINE_SESSION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/json.h"
#include "src/exec/lowering.h"
#include "src/exec/physical_op.h"
#include "src/exec/profile.h"
#include "src/optimizer/optimizer.h"
#include "src/sql/parser.h"

namespace gapply {

class Database;

/// Per-query knobs (see Session::Query).
struct QueryOptions {
  /// Run the rule optimizer (disable to execute the bound plan as-is —
  /// the benches' no-GApply baselines do this). Unoptimized queries bypass
  /// the plan cache: the cache stores *optimized* plans.
  bool optimize = true;
  Optimizer::Options optimizer;
  LoweringOptions lowering;
  /// Rows per RowBatch in the vectorized execution pipeline. 0 = the
  /// session default (`SET batch_size = N`, initially
  /// RowBatch::kDefaultCapacity).
  size_t batch_size = 0;
  /// Collect a per-operator runtime profile (scoped timers in the PhysOp
  /// entry points) for this query. Also enabled by the session knob
  /// `SET profile = on` and implicitly by EXPLAIN ANALYZE.
  bool profile = false;
  /// Consult/populate the shared plan cache for this query. Also gated by
  /// the session knob `SET plan_cache = on|off`.
  bool use_plan_cache = true;
  /// Per-query memory budget in bytes for the blocking operators
  /// (DESIGN.md §16). 0 = the session default (`SET memory_budget = N`,
  /// initially unlimited). With a budget, Sort / HashJoin / HashGroupBy /
  /// GApply spill to disk instead of buffering past it — results are
  /// bit-for-bit identical either way.
  size_t memory_budget = 0;
};

/// Execution counters + fired-rule log for one query.
struct QueryStats {
  /// The query's work totals, summed from the executed plan tree
  /// (SumWorkCounters). Timer fields are nonzero only for a profiled query.
  ExecContext::Counters counters;
  std::vector<std::string> fired_rules;
  /// Per-firing optimizer trace: rule name plus estimated cardinality of
  /// the rewritten subtree before/after (see Optimizer::RuleFiring). On a
  /// plan-cache hit this is the trace recorded when the plan was first
  /// optimized.
  std::vector<Optimizer::RuleFiring> rule_trace;
  /// Per-operator runtime profile snapshot; populated only when the query
  /// ran with profiling on (QueryOptions::profile / SET profile = on /
  /// EXPLAIN ANALYZE).
  bool has_profile = false;
  ProfileNode profile;

  /// Plan-cache outcome for this query: `plan_cache_checked` is false when
  /// the query bypassed the cache (SET plan_cache = off, optimize = false,
  /// or a non-SELECT statement); otherwise `plan_cache_hit` says whether
  /// the optimized plan was served from the cache.
  bool plan_cache_checked = false;
  bool plan_cache_hit = false;
  /// Database-wide cache totals sampled after this query (all sessions).
  uint64_t plan_cache_hits = 0;
  uint64_t plan_cache_misses = 0;

  /// Admission-control outcome: the DOP this query asked for (its resolved
  /// parallelism settings), the concurrency tokens actually granted (the
  /// lowered DOP is clamped to this), and whether the query had to wait
  /// for a free token.
  size_t admission_requested = 0;
  size_t admission_granted = 0;
  bool admission_waited = false;

  /// Memory governance outcome (DESIGN.md §16): the budget the query ran
  /// under (0 = unlimited) and the peak bytes its blocking operators had
  /// reserved at any instant. Spill volume is in
  /// counters.spill_bytes/spill_partitions.
  size_t memory_budget = 0;
  uint64_t peak_memory = 0;

  /// The statement's wall time split by layer, in nanoseconds, filled only
  /// when the caller passes `stats_out` (untimed calls read no clock). The
  /// layers tile the call from entry to return, so they sum to its wall
  /// time. A plan-cache hit leaves bind and optimize at 0.
  struct LayerNs {
    uint64_t parse = 0;           ///< lex + parse the statement text
    uint64_t bind = 0;
    uint64_t cache_lookup = 0;    ///< normalize, build the key, look up, insert
    uint64_t optimize = 0;
    uint64_t lower = 0;
    uint64_t admission_wait = 0;  ///< schema lock + admission tokens
    uint64_t execute = 0;         ///< run, collect stats, release the plan

    uint64_t total() const {
      return parse + bind + cache_lookup + optimize + lower + admission_wait +
             execute;
    }
  };
  LayerNs layer_ns;
};

/// \brief One client's connection to a Database: per-session `SET` state and
/// prepared statements over the shared catalog/statistics/plan cache.
///
/// Thread model (DESIGN.md §15): a Session is NOT thread-safe — it models
/// one client connection, and one thread drives it at a time. *Different*
/// sessions of the same Database may run queries fully concurrently: every
/// query takes the Database's schema lock in shared mode, so the read path
/// (catalog lookups, table scans, stats, plan cache, admission) is safe
/// against concurrent queries, while schema changes (LoadTpch, Analyze,
/// catalog mutations via Database::WithExclusiveSchema) take it exclusively.
///
/// Statements understood by `Query` beyond plain SELECTs:
///   SET <option> = <value>          per-session knobs, see below
///   PREPARE <name> AS <query>       parse/bind now, run later
///   EXECUTE <name>                  run a prepared statement
///   DEALLOCATE <name> | ALL         drop prepared statement(s)
///   EXPLAIN [ANALYZE] <query>       plans / annotated execution report
///
/// Session options (`SET`, all per-session): `parallelism` (GApply +
/// Exchange DOP; 0 = all hardware threads), `batch_size`, `profile`,
/// `storage = columnar|row`, `plan_cache = on|off`, and `memory_budget`
/// (bytes per query for the blocking operators; `unlimited` turns
/// governance off).
///
/// Queries executed through a Session are admission-controlled: the
/// requested DOP is clamped to the concurrency tokens granted by the
/// Database's AdmissionController, so a client storm degrades each query to
/// a narrower plan instead of oversubscribing the shared ThreadPool.
/// Clamping cannot change results — execution is bit-for-bit identical at
/// every DOP (DESIGN.md §9).
class Session {
 public:
  explicit Session(Database* db) : db_(db) {}

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Parses, plans (through the shared plan cache), admits, and executes
  /// one statement. `stats_out` (optional) receives execution counters,
  /// the fired-rule log, and the plan-cache/admission outcome.
  Result<QueryResult> Query(const std::string& sql,
                            const QueryOptions& options = {},
                            QueryStats* stats_out = nullptr);

  /// Executes an already-built logical plan (bypasses the plan cache —
  /// there is no SQL text to key on).
  Result<QueryResult> Execute(const LogicalOp& plan,
                              const QueryOptions& options = {},
                              QueryStats* stats_out = nullptr);

  /// Registers a prepared statement: parses and binds `sql` now (errors
  /// surface at PREPARE time), then keeps the parsed query and its
  /// normalized text (the plan-cache key's SQL) for EXECUTE. Fails if
  /// `name` is already prepared.
  Status Prepare(const std::string& name, const std::string& sql);

  /// Drops one prepared statement; NotFound if absent.
  Status Deallocate(const std::string& name);

  /// Drops every prepared statement.
  void DeallocateAll();

  /// Names of the session's prepared statements (sorted).
  std::vector<std::string> PreparedNames() const;

  /// Multi-line report for `sql` (a query or EXECUTE <name>): bound plan,
  /// optimized plan, fired rules.
  Result<std::string> Explain(const std::string& sql,
                              const QueryOptions& options = {});

  /// EXPLAIN ANALYZE: executes `sql` (a plain query or EXECUTE <name>)
  /// through the full session path — plan cache, admission, profiling —
  /// and renders the annotated physical plan tree plus plan-cache,
  /// admission, memory and per-layer time (`layers:`) lines and the
  /// optimizer rule trace. Reached through Query("EXPLAIN ANALYZE ...")
  /// without `stats_out`, the layer clock starts after the parse, which
  /// then reads 0.
  Result<std::string> ExplainAnalyze(const std::string& sql,
                                     const QueryOptions& options = {});

  /// EXPLAIN (ANALYZE, FORMAT JSON): same execution; returns the shared
  /// per-operator JSON schema under "plan", the rule trace under "rules",
  /// and headline counters (now including plan_cache_* and admission_*)
  /// under "counters".
  Result<JsonValue> ExplainAnalyzeJson(const std::string& sql,
                                       const QueryOptions& options = {});

  // --- per-session defaults (the `SET` state) ------------------------------

  size_t default_gapply_parallelism() const {
    return default_gapply_parallelism_;
  }
  void set_default_gapply_parallelism(size_t dop);

  size_t default_batch_size() const { return default_batch_size_; }
  void set_default_batch_size(size_t n) {
    default_batch_size_ = n == 0 ? RowBatch::kDefaultCapacity : n;
  }

  bool default_profile() const { return default_profile_; }
  void set_default_profile(bool on) { default_profile_ = on; }

  bool default_columnar_storage() const { return default_columnar_storage_; }
  void set_default_columnar_storage(bool on) {
    default_columnar_storage_ = on;
  }

  bool plan_cache_enabled() const { return plan_cache_enabled_; }
  void set_plan_cache_enabled(bool on) { plan_cache_enabled_ = on; }

  /// Per-query memory budget default in bytes; 0 = unlimited (never spill).
  size_t default_memory_budget() const { return default_memory_budget_; }
  void set_default_memory_budget(size_t bytes) {
    default_memory_budget_ = bytes;
  }

  Database* database() { return db_; }

 private:
  /// Applies a parsed `SET name = value` statement to the session.
  Status ApplySetStatement(const sql::SetStatement& stmt);

  /// A prepared statement: the parsed query (bound again only when its
  /// plan is not cached) and its normalized text.
  struct Prepared {
    sql::QueryPtr query;
    std::string normalized;
  };

  /// Statement dispatch + SQL execution internals. All `*Locked` members
  /// run under the Database schema lock, held in shared mode by the public
  /// entry point (std::shared_mutex is non-reentrant, so internals never
  /// re-acquire).
  Result<QueryResult> QueryLocked(const std::string& sql,
                                  const QueryOptions& options,
                                  QueryStats* stats_out);
  /// Runs a kQuery or kExecute statement through the plan cache.
  Result<QueryResult> RunLocked(const sql::Statement& stmt,
                                const QueryOptions& options,
                                QueryStats* stats_out);
  Result<QueryResult> ExecuteOptimizedLocked(const LogicalOp& optimized,
                                             const QueryOptions& options,
                                             QueryStats* stats_out);
  Status PrepareLocked(const std::string& name, sql::QueryPtr query);
  Result<std::string> ExplainLocked(const sql::Statement& target,
                                    const QueryOptions& options);
  /// Parses `sql` (a query or EXECUTE <name>), takes the schema lock and
  /// runs it with profiling, timing every layer into `*stats`.
  Result<QueryResult> RunProfiled(const std::string& sql,
                                  const QueryOptions& options,
                                  QueryStats* stats);

  /// The query a kQuery or kExecute statement runs; NotFound for an
  /// unknown prepared name. Sets `*prepared` for EXECUTE, else null.
  Result<const sql::Query*> ResolveQuery(const sql::Statement& stmt,
                                         const Prepared** prepared) const;

  /// Charges the time since `layer_mark_ns_` to one layer of `stats` and
  /// moves the mark (no-op when null).
  void ChargeLayer(QueryStats* stats, uint64_t QueryStats::LayerNs::*layer);

  /// Resolves the lowering knobs this session would use for `options`
  /// (session defaults substituted for the 0/unset sentinels). The result
  /// feeds both execution and the cache fingerprint, so the two can never
  /// disagree.
  LoweringOptions ResolveLowering(const QueryOptions& options) const;

  /// The memory budget `options` resolves to (0 = unlimited).
  size_t ResolveMemoryBudget(const QueryOptions& options) const {
    return options.memory_budget != 0 ? options.memory_budget
                                      : default_memory_budget_;
  }

  /// Optimizer options with the resolved memory budget injected, so the
  /// cost model prices spills for this session's budget.
  Optimizer::Options ResolveOptimizer(const QueryOptions& options) const {
    Optimizer::Options opt = options.optimizer;
    if (opt.memory_budget == 0) {
      opt.memory_budget = ResolveMemoryBudget(options);
    }
    return opt;
  }

  /// Serializes every cache-relevant option — the resolved lowering knobs
  /// plus all optimizer toggles — into the fingerprint component of the
  /// plan-cache key. Execution-only knobs (batch_size, profile) are
  /// deliberately excluded (DESIGN.md §15).
  std::string CacheFingerprint(const QueryOptions& options) const;

  Database* db_;
  size_t default_gapply_parallelism_ = 1;
  size_t default_batch_size_ = RowBatch::kDefaultCapacity;
  bool default_profile_ = false;
  bool default_columnar_storage_ = true;
  bool plan_cache_enabled_ = true;
  size_t default_memory_budget_ = 0;
  std::map<std::string, Prepared> prepared_;
  uint64_t layer_mark_ns_ = 0;  // the timed statement's last clock read
};

}  // namespace gapply

#endif  // GAPPLY_ENGINE_SESSION_H_
