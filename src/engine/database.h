#ifndef GAPPLY_ENGINE_DATABASE_H_
#define GAPPLY_ENGINE_DATABASE_H_

#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "src/common/admission.h"
#include "src/common/json.h"
#include "src/common/memory_tracker.h"
#include "src/common/thread_pool.h"
#include "src/engine/plan_cache.h"
#include "src/engine/session.h"
#include "src/exec/lowering.h"
#include "src/exec/physical_op.h"
#include "src/exec/profile.h"
#include "src/optimizer/optimizer.h"
#include "src/sql/binder.h"
#include "src/sql/parser.h"
#include "src/stats/stats.h"
#include "src/storage/catalog.h"
#include "src/tpch/tpch_gen.h"

namespace gapply {

/// \brief The shared engine: catalog + statistics + plan cache + admission
/// control + worker pool, served to N concurrent client Sessions.
///
/// Typical single-client use (the Database owns a default Session and
/// forwards the classic API to it):
///   Database db;
///   db.LoadTpch({.scale_factor = 0.01});
///   auto result = db.Query(
///       "select gapply(select count(*) from g) "
///       "from partsupp group by ps_suppkey : g");
///
/// Multi-client use: create one Session per client thread —
///   Session a(&db), b(&db);          // concurrent-safe against each other
///   a.Query("set parallelism = 4");  // per-session, b unaffected
///   b.Query("prepare q as select count(*) from part");
///   b.Query("execute q");
///
/// Concurrency contract (DESIGN.md §15): queries from different sessions
/// run fully in parallel — each takes the schema lock in shared mode.
/// Schema/statistics changes (LoadTpch, Analyze, WithExclusiveSchema)
/// serialize behind the same lock in exclusive mode. Optimized plans are
/// shared across sessions through a normalized-SQL plan cache keyed on
/// (SQL, cache-relevant session options, catalog/stats versions); per-query
/// DOP is clamped to the tokens granted by the AdmissionController so a
/// client storm cannot oversubscribe the shared ThreadPool.
///
/// See Session for the statement surface (`SET`, PREPARE/EXECUTE/
/// DEALLOCATE, EXPLAIN [ANALYZE]) and the per-session knobs.
class Database {
 public:
  Database();
  ~Database();

  /// Populates the catalog with the synthetic TPC-H subset and gathers
  /// statistics. Takes the schema lock exclusively.
  Status LoadTpch(const tpch::TpchConfig& config);

  Catalog* catalog() { return &catalog_; }
  const Catalog& catalog() const { return catalog_; }
  StatsManager* stats() { return &stats_; }

  /// (Re)computes statistics for every table. Takes the schema lock
  /// exclusively; bumps the stats version, invalidating cached plans.
  Status Analyze();

  /// Runs `fn` with the schema lock held exclusively — the hook for callers
  /// that mutate the catalog (add/remove tables, keys) while sessions are
  /// live. Queries in other sessions block for the duration.
  template <typename Fn>
  auto WithExclusiveSchema(Fn&& fn) {
    std::unique_lock<std::shared_mutex> lock(schema_mutex_);
    return fn();
  }

  /// The shared normalized-SQL → optimized-plan cache (hit/miss/eviction
  /// counters via plan_cache()->stats()).
  PlanCache* plan_cache() { return &plan_cache_; }

  /// The global concurrency-token bucket admission control draws from.
  /// Budget defaults to max(8, 2 × hardware threads); tests and servers
  /// tune it with set_budget.
  AdmissionController* admission() { return &admission_; }

  /// Aggregate memory tracker every budgeted query's tracker chains to
  /// (DESIGN.md §16): its budget caps the *sum* of tracked bytes across
  /// concurrent queries, complementing the per-query budget the same way
  /// the admission budget caps total DOP. Defaults to unlimited.
  MemoryTracker* memory_root() { return &memory_root_; }
  size_t memory_cap() const { return memory_root_.budget(); }
  void set_memory_cap(size_t bytes) { memory_root_.set_budget(bytes); }

  // --- classic single-session facade (forwards to a default Session) ------

  Result<QueryResult> Query(const std::string& sql,
                            const QueryOptions& options = {},
                            QueryStats* stats_out = nullptr);
  Result<QueryResult> Execute(const LogicalOp& plan,
                              const QueryOptions& options = {},
                              QueryStats* stats_out = nullptr);
  Result<std::string> Explain(const std::string& sql,
                              const QueryOptions& options = {});
  Result<std::string> ExplainAnalyze(const std::string& sql,
                                     const QueryOptions& options = {});
  Result<JsonValue> ExplainAnalyzeJson(const std::string& sql,
                                       const QueryOptions& options = {});

  /// Parses + binds without optimizing (tests, EXPLAIN). Does not take the
  /// schema lock: single-threaded callers only, or wrap in a Session query.
  Result<LogicalOpPtr> Plan(const std::string& sql) const;

  /// The default session's `SET` state (classic API; per-session state for
  /// explicitly created Sessions lives on the Session).
  size_t default_gapply_parallelism() const {
    return default_session_->default_gapply_parallelism();
  }
  void set_default_gapply_parallelism(size_t dop) {
    default_session_->set_default_gapply_parallelism(dop);
  }
  size_t default_batch_size() const {
    return default_session_->default_batch_size();
  }
  void set_default_batch_size(size_t n) {
    default_session_->set_default_batch_size(n);
  }
  bool default_profile() const { return default_session_->default_profile(); }
  void set_default_profile(bool on) {
    default_session_->set_default_profile(on);
  }
  bool default_columnar_storage() const {
    return default_session_->default_columnar_storage();
  }
  void set_default_columnar_storage(bool on) {
    default_session_->set_default_columnar_storage(on);
  }
  size_t default_memory_budget() const {
    return default_session_->default_memory_budget();
  }
  void set_default_memory_budget(size_t bytes) {
    default_session_->set_default_memory_budget(bytes);
  }

  /// The Session behind the classic facade.
  Session* default_session() { return default_session_.get(); }

 private:
  friend class Session;

  /// Returns the shared engine pool, (re)created lazily so that the pool's
  /// runner count (pool threads + the helping caller) covers `max_dop`
  /// workers. Never shrinks; a pool that must grow is retired (kept alive
  /// until shutdown — queries already drawing from it keep their pointer)
  /// and replaced. Thread-safe.
  ThreadPool* shared_thread_pool(size_t max_dop);

  Catalog catalog_;
  StatsManager stats_;
  PlanCache plan_cache_;
  AdmissionController admission_;
  MemoryTracker memory_root_;
  /// Guards schema + statistics: queries hold it shared, LoadTpch/Analyze/
  /// WithExclusiveSchema hold it exclusive. Sessions acquire it through
  /// their public entry points (never re-acquired internally — see
  /// Session's *Locked convention).
  std::shared_mutex schema_mutex_;
  std::mutex pool_mu_;
  std::unique_ptr<ThreadPool> thread_pool_;
  std::vector<std::unique_ptr<ThreadPool>> retired_pools_;
  std::unique_ptr<Session> default_session_;
};

}  // namespace gapply

#endif  // GAPPLY_ENGINE_DATABASE_H_
