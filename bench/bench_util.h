#ifndef GAPPLY_BENCH_BENCH_UTIL_H_
#define GAPPLY_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "src/common/json.h"
#include "src/engine/database.h"
#include "src/exec/profile.h"

namespace gapply::bench {

/// Scale factor for bench databases; override with GAPPLY_SF=0.02 etc.
inline double ScaleFactor(double fallback = 0.01) {
  const char* env = std::getenv("GAPPLY_SF");
  if (env == nullptr) return fallback;
  const double sf = std::atof(env);
  return sf > 0 ? sf : fallback;
}

/// True when the run is a CI smoke test (GAPPLY_SMOKE=1): benches still
/// self-validate their results, but shrink synthetic inputs and report
/// perf-criterion misses without failing the process — a shared 1-core CI
/// runner can't meet speedup bars that need real hardware parallelism.
inline bool SmokeMode() {
  const char* env = std::getenv("GAPPLY_SMOKE");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

/// Repetitions per measurement; override with GAPPLY_REPS.
inline int Reps(int fallback = 3) {
  const char* env = std::getenv("GAPPLY_REPS");
  if (env == nullptr) return fallback;
  const int reps = std::atoi(env);
  return reps > 0 ? reps : fallback;
}

inline void LoadDb(Database* db, double scale_factor) {
  tpch::TpchConfig config;
  config.scale_factor = scale_factor;
  Status st = db->LoadTpch(config);
  if (!st.ok()) {
    std::fprintf(stderr, "TPC-H load failed: %s\n", st.ToString().c_str());
    std::exit(1);
  }
}

/// Executes `plan` `reps` times (plus one warmup) and returns the minimum
/// elapsed milliseconds. Row count (of the last run) goes to *rows.
inline double TimePlanMs(Database* db, const LogicalOp& plan,
                         const QueryOptions& options, size_t* rows,
                         int reps_override = 0) {
  const int reps = reps_override > 0 ? reps_override : Reps();
  double best = 1e300;
  for (int i = 0; i <= reps; ++i) {
    const auto start = std::chrono::steady_clock::now();
    Result<QueryResult> r = db->Execute(plan, options);
    const auto end = std::chrono::steady_clock::now();
    if (!r.ok()) {
      std::fprintf(stderr, "plan failed: %s\n%s\n",
                   r.status().ToString().c_str(),
                   plan.DebugString().c_str());
      std::exit(1);
    }
    if (rows != nullptr) *rows = r->rows.size();
    const double ms =
        std::chrono::duration<double, std::milli>(end - start).count();
    if (i > 0 && ms < best) best = ms;  // skip warmup
  }
  return best;
}

/// Parses + binds `sql`, then times it like TimePlanMs.
inline double TimeSqlMs(Database* db, const std::string& sql,
                        const QueryOptions& options, size_t* rows,
                        int reps_override = 0) {
  Result<LogicalOpPtr> plan = db->Plan(sql);
  if (!plan.ok()) {
    std::fprintf(stderr, "bind failed: %s\nSQL: %s\n",
                 plan.status().ToString().c_str(), sql.c_str());
    std::exit(1);
  }
  return TimePlanMs(db, **plan, options, rows, reps_override);
}

/// Asserts two plans produce the same multiset (sanity check before
/// comparing their runtimes).
inline void CheckSameResults(Database* db, const LogicalOp& a,
                             const LogicalOp& b, const char* label) {
  Result<QueryResult> ra = db->Execute(a, QueryOptions{});
  Result<QueryResult> rb = db->Execute(b, QueryOptions{});
  if (!ra.ok() || !rb.ok() ||
      !SameRowMultiset(ra->rows, rb->rows)) {
    std::fprintf(stderr,
                 "BENCH INVALID: %s plans disagree (%zu vs %zu rows)\n",
                 label, ra.ok() ? ra->rows.size() : 0,
                 rb.ok() ? rb->rows.size() : 0);
    std::exit(1);
  }
}

/// Per-bench registry of representative per-operator profile snapshots
/// (label → the shared profile JSON schema, see ProfileToJson). Every bench
/// records one profile per key workload and embeds the registry in its
/// BENCH_*.json as a "profiles" member, so tools/bench_check and humans see
/// the same per-operator breakdown everywhere.
inline JsonValue& ProfileRegistry() {
  static JsonValue* registry = new JsonValue(JsonValue::Object());
  return *registry;
}

/// Executes `plan` once with profiling on and records its per-operator
/// profile under `label`. Failures abort the bench (same policy as
/// TimePlanMs).
inline void RecordPlanProfile(Database* db, const LogicalOp& plan,
                              QueryOptions options, const std::string& label) {
  options.profile = true;
  QueryStats stats;
  Result<QueryResult> r = db->Execute(plan, options, &stats);
  if (!r.ok() || !stats.has_profile) {
    std::fprintf(stderr, "profile run failed (%s): %s\n", label.c_str(),
                 r.status().ToString().c_str());
    std::exit(1);
  }
  ProfileRegistry().Set(label, ProfileToJson(stats.profile));
}

/// Parses + binds `sql`, then records like RecordPlanProfile.
inline void RecordSqlProfile(Database* db, const std::string& sql,
                             const QueryOptions& options,
                             const std::string& label) {
  Result<LogicalOpPtr> plan = db->Plan(sql);
  if (!plan.ok()) {
    std::fprintf(stderr, "bind failed: %s\nSQL: %s\n",
                 plan.status().ToString().c_str(), sql.c_str());
    std::exit(1);
  }
  RecordPlanProfile(db, **plan, options, label);
}

/// Executes a raw physical tree once with profiling on (restoring the
/// context's profiling flag afterwards) and records its profile. Pass a
/// freshly built tree: work counters accumulate on every execution.
inline void RecordPhysProfile(PhysOp* root, ExecContext* ctx,
                              const std::string& label) {
  const bool was_profiling = ctx->profiling();
  ctx->set_profiling(true);
  Result<QueryResult> r = ExecuteToVector(root, ctx);
  ctx->set_profiling(was_profiling);
  if (!r.ok()) {
    std::fprintf(stderr, "profile run failed (%s): %s\n", label.c_str(),
                 r.status().ToString().c_str());
    std::exit(1);
  }
  ProfileRegistry().Set(label, CollectProfileJson(*root));
}

/// One named timing measurement destined for BENCH_*.json. bench_check
/// gates on the "ms" leaf, exactly on the work-counter leaves written after
/// it (pgq_executions, rows_scanned, scan_rows_evaluated), and uses "label"
/// for its messages.
struct TimingRecord {
  std::string label;
  double ms = 0;
  std::vector<std::pair<std::string, uint64_t>> counters;
};

inline std::vector<TimingRecord>& TimingRegistry() {
  static std::vector<TimingRecord>* registry =
      new std::vector<TimingRecord>();
  return *registry;
}

inline void RecordTiming(
    const std::string& label, double ms,
    std::vector<std::pair<std::string, uint64_t>> counters) {
  TimingRegistry().push_back({label, ms, std::move(counters)});
}

/// Writes a "pgq_executions" leaf only when `pgq_executions` is
/// nonnegative.
inline void RecordTiming(const std::string& label, double ms,
                         int64_t pgq_executions = -1) {
  std::vector<std::pair<std::string, uint64_t>> counters;
  if (pgq_executions >= 0) {
    counters.emplace_back("pgq_executions",
                          static_cast<uint64_t>(pgq_executions));
  }
  RecordTiming(label, ms, std::move(counters));
}

/// Writes BENCH_<name>.json with the standard metadata header, every
/// RecordTiming measurement, and the profile registry — the shared shape
/// for benches without a bespoke hand-printed emitter.
inline void WriteBenchJson(const std::string& name, double sf, int reps);

/// Renders the registry as a top-level `"profiles": {...}` member (no
/// trailing comma or newline), indented to nest inside the hand-printed
/// BENCH_*.json documents.
inline std::string ProfilesJsonMember() {
  const std::string dumped = ProfileRegistry().Dump(2);
  std::string indented;
  indented.reserve(dumped.size() + dumped.size() / 8);
  for (size_t start = 0; start < dumped.size();) {
    size_t end = dumped.find('\n', start);
    if (end == std::string::npos) end = dumped.size();
    if (start > 0) indented += "\n  ";
    indented.append(dumped, start, end - start);
    start = end + 1;
  }
  return "  \"profiles\": " + indented;
}

inline void WriteBenchJson(const std::string& name, double sf, int reps) {
  const std::string path = "BENCH_" + name + ".json";
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"%s\",\n"
               "  \"scale_factor\": %g,\n"
               "  \"reps\": %d,\n"
               "  \"hardware_concurrency\": %zu,\n"
               "  \"results\": [\n",
               name.c_str(), sf, reps, ThreadPool::DefaultParallelism());
  const std::vector<TimingRecord>& timings = TimingRegistry();
  for (size_t i = 0; i < timings.size(); ++i) {
    std::string counters;
    for (const auto& [key, count] : timings[i].counters) {
      counters += ", \"" + key + "\": " + std::to_string(count);
    }
    std::fprintf(f, "    {\"label\": \"%s\", \"ms\": %.4f%s}%s\n",
                 JsonEscape(timings[i].label).c_str(), timings[i].ms,
                 counters.c_str(), i + 1 == timings.size() ? "" : ",");
  }
  std::fprintf(f, "  ],\n%s\n}\n", ProfilesJsonMember().c_str());
  std::fclose(f);
  std::printf("wrote %s (%zu timings, %zu profiles)\n", path.c_str(),
              timings.size(), ProfileRegistry().members().size());
}

struct RatioStats {
  double max_benefit = 0;
  double sum_benefit = 0;
  double sum_wins = 0;
  int n = 0;
  int wins = 0;

  void Add(double ratio) {
    if (ratio > max_benefit) max_benefit = ratio;
    sum_benefit += ratio;
    ++n;
    if (ratio > 1.0) {
      sum_wins += ratio;
      ++wins;
    }
  }
  double Average() const { return n == 0 ? 0 : sum_benefit / n; }
  double AverageOverWins() const { return wins == 0 ? 0 : sum_wins / wins; }
};

}  // namespace gapply::bench

#endif  // GAPPLY_BENCH_BENCH_UTIL_H_
