// XML-publishing benchmark program.
//
// Runs one workload against one Database in this process, checks every
// result, and prints each metric by name with its unit. The last line of
// stdout is one JSON object with every metric; run.py turns it into the
// benchmark result. Workloads:
//
//   xq_gapply   Fig. 8 Q1-Q4 in the §3.1 GApply SQL plus the two §4.2
//               group-selection queries from xml::TranslateToGApplySql, one
//               session in a closed loop.
//   xq_souq     the same four Fig. 8 queries as decorrelated sorted-outer-
//               union plans (Session::Execute), plus publishing the
//               Figure-1 document: view -> sorted outer union -> execute ->
//               tagger.
//   lookup_mix  three sessions, one per thread, sending short element
//               fetches in a closed loop: EXECUTEs of statements prepared
//               at set-up beside ad-hoc SQL whose distinct texts overflow
//               the plan cache.
//
// The measured (untraced) runs keep every session at parallelism 1 and a
// core free: on a 4-core box, parallelism 4 or a fourth client let any
// other process stall the run, and run-to-run spreads of 15-30% hid real
// changes.
//
// With --trace 1 the run first measures untraced throughput for half the
// time, then traces operations: each one runs through the session and then
// through the layer entry points (parse, bind, optimize, lower, execute) in
// sequence, with a span around every call. Spans are written as a Chrome
// trace-event file when the run ends. The traced xq_* runs use parallelism
// 2 throughout, so Exchange, the parallel join build and aggregation, and
// the GApply workers run and report their per-layer numbers; lookup_mix
// stays at parallelism 1 as in its measured run.
//
// Usage:
//   xmlpub_bench --workload <xq_gapply|xq_souq|lookup_mix> [--seed N]
//                [--seconds S] [--trace 0|1] [--sf F] [--max-ops N]
//                [--trace-out PATH] [--inject-wrong-result]

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/engine/database.h"
#include "src/exec/lowering.h"
#include "src/exec/profile.h"
#include "src/optimizer/optimizer.h"
#include "src/plan/builder.h"
#include "src/sql/binder.h"
#include "src/sql/parser.h"
#include "src/tpch/tpch_gen.h"
#include "src/xml/tagger.h"
#include "src/xml/view.h"
#include "src/xml/xquery.h"

namespace gapply::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "xmlpub_bench: %s\n", what.c_str());
  std::exit(2);
}

template <typename T>
T Must(Result<T> r, const std::string& what) {
  if (!r.ok()) Die(what + ": " + r.status().ToString());
  return std::move(r).value();
}

void MustOk(const Status& st, const std::string& what) {
  if (!st.ok()) Die(what + ": " + st.ToString());
}

// --- arguments --------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double sf = 0.05;
  int64_t max_ops = 0;  // 0 = bounded by time only
  std::string trace_out;
  bool inject_wrong_result = false;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(value().c_str());
    } else if (flag == "--trace") {
      a.trace = value() == "1";
    } else if (flag == "--sf") {
      a.sf = std::atof(value().c_str());
    } else if (flag == "--max-ops") {
      a.max_ops = std::atoll(value().c_str());
    } else if (flag == "--trace-out") {
      a.trace_out = value();
    } else if (flag == "--inject-wrong-result") {
      a.inject_wrong_result = true;
    } else {
      Die("unknown argument " + flag);
    }
  }
  if (a.workload != "xq_gapply" && a.workload != "xq_souq" &&
      a.workload != "lookup_mix") {
    Die("--workload must be xq_gapply, xq_souq or lookup_mix");
  }
  if (a.seconds <= 0 || a.sf <= 0) Die("--seconds and --sf must be > 0");
  return a;
}

// --- metrics ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::vector<Metric>& Metrics() {
  static std::vector<Metric> metrics;
  return metrics;
}

void AddMetric(const std::string& name, double value, const std::string& unit) {
  Metrics().push_back({name, value, unit});
  std::printf("metric %-34s %14.6f %s\n", name.c_str(), value, unit.c_str());
}

/// Nearest-rank percentile of `v` (q in [0, 1]); 0 for an empty sample.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double PeakRssMb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::atof(line + 6);
  }
  std::fclose(f);
  return kb / 1024.0;
}

// --- result fingerprints ----------------------------------------------------

uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Order-insensitive digest of a row multiset: row count plus the sum of
/// per-row hashes. Equal multisets give equal fingerprints.
struct Fingerprint {
  uint64_t rows = 0;
  uint64_t sum = 0;

  void Add(const Row& row) {
    uint64_t h = 0x51ed270b27d9c2a1ull;
    for (const Value& v : row) h = Mix64(h ^ v.Hash());
    sum += Mix64(h);
    ++rows;
  }
  bool operator==(const Fingerprint&) const = default;
};

Fingerprint FingerprintRows(const std::vector<Row>& rows) {
  Fingerprint fp;
  for (const Row& r : rows) fp.Add(r);
  return fp;
}

/// What one operation produced: result rows, or a published document.
struct OpOutput {
  std::vector<Row> rows;
  std::string doc;
  size_t tuples = 0;  // rows fed to the tagger (publishing only)
};

Fingerprint FingerprintOf(const OpOutput& out) {
  if (!out.doc.empty()) return {out.doc.size(), Fnv1a(out.doc)};
  return FingerprintRows(out.rows);
}

/// Makes a correct output wrong, for the self-test's injected mismatch.
void Corrupt(OpOutput* out) {
  if (!out->doc.empty()) {
    out->doc.push_back(' ');
  } else if (!out->rows.empty()) {
    out->rows.pop_back();
  } else {
    out->rows.push_back(Row{Value::Int(0)});
  }
}

// --- tracing ----------------------------------------------------------------

struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int parent;  // index into the same tracer, -1 for an operation root
  int64_t op;
};

/// Per-thread span buffer; spans are kept in memory until the run ends.
class Tracer {
 public:
  int Begin(const char* name, int parent, int64_t op) {
    spans_.push_back({name, NowNs(), 0, parent, op});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) { spans_[static_cast<size_t>(id)].end_ns = NowNs(); }
  double Ms(int id) const {
    const Span& s = spans_[static_cast<size_t>(id)];
    return static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Per-layer accumulators for traced operations, merged across threads.
struct LayerStats {
  uint64_t ops = 0;
  std::map<std::string, std::vector<double>> span_ms;  // name -> durations
  std::vector<double> overhead_us;  // cache-hit queries only
  uint64_t rules_fired = 0;
  uint64_t optimizes = 0;
  uint64_t cache_lookups = 0;
  uint64_t cache_hits = 0;
  uint64_t queries = 0;
  uint64_t admission_waits = 0;
  ExecContext::Counters counters;
  double skew_max_ns = 0;
  double skew_min_ns = 0;
  std::map<std::string, uint64_t> op_self_ns;
  uint64_t tagged_tuples = 0;
  uint64_t doc_bytes = 0;

  void MergeFrom(const LayerStats& o) {
    ops += o.ops;
    for (const auto& [name, v] : o.span_ms) {
      span_ms[name].insert(span_ms[name].end(), v.begin(), v.end());
    }
    overhead_us.insert(overhead_us.end(), o.overhead_us.begin(),
                       o.overhead_us.end());
    rules_fired += o.rules_fired;
    optimizes += o.optimizes;
    cache_lookups += o.cache_lookups;
    cache_hits += o.cache_hits;
    queries += o.queries;
    admission_waits += o.admission_waits;
    counters.MergeFrom(o.counters);
    skew_max_ns += o.skew_max_ns;
    skew_min_ns += o.skew_min_ns;
    for (const auto& [name, ns] : o.op_self_ns) op_self_ns[name] += ns;
    tagged_tuples += o.tagged_tuples;
    doc_bytes += o.doc_bytes;
  }
};

/// Operator kind from a profile node name: "HashJoin(l=[0], r=[1])" ->
/// "HashJoin".
std::string OpKindName(const std::string& debug_name) {
  size_t end = 0;
  while (end < debug_name.size() &&
         std::isalnum(static_cast<unsigned char>(debug_name[end]))) {
    ++end;
  }
  return debug_name.substr(0, end);
}

void AddSelfTimes(const ProfileNode& node, LayerStats* ls) {
  ls->op_self_ns[OpKindName(node.name)] += node.self_ns;
  for (const ProfileNode& child : node.children) AddSelfTimes(child, ls);
}

void RecordQueryStats(const QueryStats& stats, LayerStats* ls) {
  ++ls->queries;
  if (stats.plan_cache_checked) {
    ++ls->cache_lookups;
    if (stats.plan_cache_hit) ++ls->cache_hits;
  }
  if (stats.admission_waited) ++ls->admission_waits;
  ls->counters.MergeFrom(stats.counters);
  if (stats.counters.gapply_workers > 0) {
    ls->skew_max_ns +=
        static_cast<double>(stats.counters.gapply_worker_busy_max_ns);
    ls->skew_min_ns +=
        static_cast<double>(stats.counters.gapply_worker_busy_min_ns);
  }
  if (stats.has_profile) AddSelfTimes(stats.profile, ls);
}

/// One traced operation: the tracer, the operation's root span, its id,
/// and where its layer numbers go.
struct TraceCtx {
  Tracer* tracer;
  int root;
  int64_t op;
  LayerStats* ls;
  double last_ms = 0;  // duration of the latest Call

  /// Runs `fn` inside a span named `name` under `parent` (the operation's
  /// root by default).
  template <typename Fn>
  auto Call(const char* name, Fn&& fn, int parent = -1) {
    const int id = tracer->Begin(name, parent < 0 ? root : parent, op);
    auto result = fn();
    tracer->End(id);
    last_ms = tracer->Ms(id);
    ls->span_ms[name].push_back(last_ms);
    return result;
  }
};

// --- the engine environment -------------------------------------------------

/// How the benchmark lowers and runs plans when it calls the layers
/// directly: the same resolved knobs a Session uses at parallelism `dop`,
/// with `pool` (dop - 1 threads plus the helping caller) for the workers.
struct LayerRunner {
  Database* db;
  size_t dop;
  ThreadPool* pool;

  LoweringOptions Lowering() const {
    LoweringOptions lo;
    lo.gapply_parallelism = dop;
    lo.exchange_parallelism = dop;
    lo.columnar_storage = true;
    return lo;
  }

  /// optimize -> lower -> execute, one span each. `plan` is consumed.
  Status OptimizeLowerExecute(TraceCtx* tc, LogicalOpPtr plan,
                              double* lower_ms, double* exec_ms) {
    Optimizer optimizer(db->catalog(), db->stats(), Optimizer::Options{});
    Result<LogicalOpPtr> optimized = tc->Call(
        "optimizer.optimize", [&] { return optimizer.Optimize(std::move(plan)); });
    RETURN_NOT_OK(optimized.status());
    tc->ls->rules_fired += optimizer.fired_rules().size();
    ++tc->ls->optimizes;
    const LoweringOptions lowering = Lowering();
    Result<PhysOpPtr> phys = tc->Call(
        "exec.lower", [&] { return LowerPlan(**optimized, lowering); });
    RETURN_NOT_OK(phys.status());
    *lower_ms = tc->last_ms;
    ExecContext ctx;
    ctx.set_profiling(true);
    if (dop > 1) ctx.set_thread_pool(pool);
    Result<QueryResult> rows = tc->Call(
        "exec.execute", [&] { return ExecuteToVector(phys->get(), &ctx); });
    RETURN_NOT_OK(rows.status());
    *exec_ms = tc->last_ms;
    return Status::OK();
  }

  /// A SQL statement as a traced operation: the measured session call,
  /// then parse -> bind -> optimize -> lower -> execute on `layer_sql`
  /// (the statement text itself, or the text an EXECUTE runs).
  Status TracedSql(TraceCtx* tc, Session* session, const std::string& sql,
                   const std::string& layer_sql, OpOutput* out) {
    QueryOptions qo;
    qo.profile = true;
    QueryStats stats;
    Result<QueryResult> r =
        tc->Call("engine.query", [&] { return session->Query(sql, qo, &stats); });
    RETURN_NOT_OK(r.status());
    const double query_ms = tc->last_ms;
    out->rows = std::move(r->rows);
    RecordQueryStats(stats, tc->ls);

    Result<sql::QueryPtr> ast =
        tc->Call("sql.parse", [&] { return sql::Parse(layer_sql); });
    RETURN_NOT_OK(ast.status());
    sql::Binder binder(db->catalog());
    Result<LogicalOpPtr> bound =
        tc->Call("sql.bind", [&] { return binder.Bind(**ast); });
    RETURN_NOT_OK(bound.status());
    double lower_ms = 0;
    double exec_ms = 0;
    RETURN_NOT_OK(OptimizeLowerExecute(tc, std::move(bound).value(), &lower_ms,
                                       &exec_ms));
    if (stats.plan_cache_hit) {
      tc->ls->overhead_us.push_back((query_ms - lower_ms - exec_ms) * 1e3);
    }
    return Status::OK();
  }

  /// A logical plan run through Session::Execute as a traced operation.
  Status TracedPlan(TraceCtx* tc, Session* session, const LogicalOp& plan,
                    OpOutput* out) {
    QueryOptions qo;
    qo.profile = true;
    QueryStats stats;
    Result<QueryResult> r = tc->Call(
        "engine.query", [&] { return session->Execute(plan, qo, &stats); });
    RETURN_NOT_OK(r.status());
    out->rows = std::move(r->rows);
    RecordQueryStats(stats, tc->ls);
    double lower_ms = 0;
    double exec_ms = 0;
    return OptimizeLowerExecute(tc, plan.Clone(), &lower_ms, &exec_ms);
  }
};

// --- Fig. 8 queries ---------------------------------------------------------
//
// The §3.1 GApply texts and the decorrelated sorted-outer-union baselines a
// classical engine gets from the §2 SQL (the same pairs the repository's
// Fig. 8 bench times).

const char* const kFig8GApply[4] = {
    // Q1: per supplier, (p_name, p_retailprice) pairs plus the average price.
    "select gapply(select p_name, p_retailprice, null from g "
    "              union all "
    "              select null, null, avg(p_retailprice) from g) "
    "from partsupp, part where ps_partkey = p_partkey "
    "group by ps_suppkey : g",
    // Q2: counts above / below the per-supplier average.
    "select gapply(select count(*), null from g "
    "              where p_retailprice >= "
    "                    (select avg(p_retailprice) from g) "
    "              union all "
    "              select null, count(*) from g "
    "              where p_retailprice < "
    "                    (select avg(p_retailprice) from g)) "
    "from partsupp, part where ps_partkey = p_partkey "
    "group by ps_suppkey : g",
    // Q3: high-end and low-end part prices per supplier.
    "select gapply(select p_name, p_retailprice from g "
    "              where p_retailprice >= "
    "                    (select max(p_retailprice) from g) * 0.97 "
    "              union all "
    "              select p_name, p_retailprice from g "
    "              where p_retailprice <= "
    "                    (select min(p_retailprice) from g) * 1.03) "
    "from partsupp, part where ps_partkey = p_partkey "
    "group by ps_suppkey : g",
    // Q4: per (supplier, size), parts above the group average.
    "select gapply(select p_name, p_retailprice from g "
    "              where p_retailprice > "
    "                    (select avg(p_retailprice) from g)) "
    "from partsupp, part where ps_partkey = p_partkey "
    "group by ps_suppkey, p_size : g",
};


PlanBuilder PartsuppPart(const Catalog& c) {
  return PlanBuilder::Scan(c, "partsupp")
      .Join(PlanBuilder::Scan(c, "part"), {"ps_partkey"}, {"p_partkey"});
}

std::vector<ExprPtr> Cols(const Schema& s,
                          const std::vector<const char*>& names) {
  std::vector<ExprPtr> e;
  for (const char* n : names) {
    e.push_back(n == nullptr ? Lit(Value::Null()) : Col(s, n));
  }
  return e;
}

LogicalOpPtr Q1Baseline(const Catalog& c) {
  auto detail = PartsuppPart(c).ProjectExprs(
      [](const Schema& s) {
        return Cols(s, {"ps_suppkey", "p_name", "p_retailprice", nullptr});
      },
      {"ps_suppkey", "p_name", "p_retailprice", "avg_price"});
  auto averages =
      PartsuppPart(c)
          .GroupBy({"ps_suppkey"},
                   {{AggKind::kAvg, "p_retailprice", "avgp", false}})
          .ProjectExprs(
              [](const Schema& s) {
                return Cols(s, {"ps_suppkey", nullptr, nullptr, "avgp"});
              },
              {"ps_suppkey", "p_name", "p_retailprice", "avg_price"});
  std::vector<PlanBuilder> branches;
  branches.push_back(std::move(detail));
  branches.push_back(std::move(averages));
  return Must(
      PlanBuilder::UnionAll(std::move(branches)).OrderBy({"ps_suppkey"}).Build(),
      "Q1 baseline");
}

LogicalOpPtr Q2Baseline(const Catalog& c) {
  auto branch = [&](bool above) {
    auto averages =
        PartsuppPart(c)
            .GroupBy({"ps_suppkey"},
                     {{AggKind::kAvg, "p_retailprice", "avgp", false}})
            .ProjectExprs(
                [](const Schema& s) { return Cols(s, {"ps_suppkey", "avgp"}); },
                {"sk_avg", "avgp"});
    return PartsuppPart(c)
        .Join(std::move(averages), {"ps_suppkey"}, {"sk_avg"})
        .Select([&](const Schema& s) {
          return above ? Ge(Col(s, "p_retailprice"), Col(s, "avgp"))
                       : Lt(Col(s, "p_retailprice"), Col(s, "avgp"));
        })
        .GroupBy({"ps_suppkey"}, {{AggKind::kCountStar, "", "c", false}})
        .ProjectExprs(
            [&](const Schema& s) {
              return above ? Cols(s, {"ps_suppkey", "c", nullptr})
                           : Cols(s, {"ps_suppkey", nullptr, "c"});
            },
            {"ps_suppkey", "count_above", "count_below"});
  };
  std::vector<PlanBuilder> branches;
  branches.push_back(branch(true));
  branches.push_back(branch(false));
  return Must(
      PlanBuilder::UnionAll(std::move(branches)).OrderBy({"ps_suppkey"}).Build(),
      "Q2 baseline");
}

LogicalOpPtr Q3Baseline(const Catalog& c) {
  // Each branch re-derives the per-supplier extremes, as the sorted-outer-
  // union SQL would.
  auto branch = [&](bool high) {
    auto extremes =
        PartsuppPart(c)
            .GroupBy({"ps_suppkey"},
                     {{AggKind::kMax, "p_retailprice", "maxp", false},
                      {AggKind::kMin, "p_retailprice", "minp", false}})
            .ProjectExprs(
                [](const Schema& s) {
                  return Cols(s, {"ps_suppkey", "maxp", "minp"});
                },
                {"sk_mm", "maxp", "minp"});
    return PartsuppPart(c)
        .Join(std::move(extremes), {"ps_suppkey"}, {"sk_mm"})
        .Select([&](const Schema& s) -> ExprPtr {
          if (high) {
            return Ge(Col(s, "p_retailprice"),
                      Binary(BinaryOp::kMultiply, Col(s, "maxp"), Lit(0.97)));
          }
          return Le(Col(s, "p_retailprice"),
                    Binary(BinaryOp::kMultiply, Col(s, "minp"), Lit(1.03)));
        })
        .Project({"ps_suppkey", "p_name", "p_retailprice"});
  };
  std::vector<PlanBuilder> branches;
  branches.push_back(branch(true));
  branches.push_back(branch(false));
  return Must(
      PlanBuilder::UnionAll(std::move(branches)).OrderBy({"ps_suppkey"}).Build(),
      "Q3 baseline");
}

LogicalOpPtr Q4Baseline(const Catalog& c) {
  auto averages =
      PartsuppPart(c)
          .GroupBy({"ps_suppkey", "p_size"},
                   {{AggKind::kAvg, "p_retailprice", "avgp", false}})
          .ProjectExprs(
              [](const Schema& s) {
                return Cols(s, {"ps_suppkey", "p_size", "avgp"});
              },
              {"sk_avg", "size_avg", "avgp"});
  return Must(PartsuppPart(c)
                  .Join(std::move(averages), {"ps_suppkey", "p_size"},
                        {"sk_avg", "size_avg"})
                  .Select([](const Schema& s) {
                    return Gt(Col(s, "p_retailprice"), Col(s, "avgp"));
                  })
                  .ProjectExprs(
                      [](const Schema& s) {
                        return Cols(s, {"ps_suppkey", "p_size", "p_name",
                                        "p_retailprice"});
                      },
                      {"ps_suppkey", "p_size", "p_name", "p_retailprice"})
                  .OrderBy({"ps_suppkey"})
                  .Build(),
              "Q4 baseline");
}

// §4.2 group selection over the Figure-1 view: "suppliers with some part
// priced above 1900" and "suppliers whose average part price is above
// 1400". Prices top out near 1909 and average near 1400 at every scale
// factor used here, so both keep part of the elements.
constexpr double kSomeChildLiteral = 1900;
constexpr double kAggCompareLiteral = 1400;

xml::FlwrViewBinding SupplierPartsBinding() {
  xml::FlwrViewBinding view;
  view.child_from = "partsupp, part";
  view.child_where = "ps_partkey = p_partkey";
  view.parent_key = "ps_suppkey";
  view.key_table = "partsupp";
  return view;
}

std::string GroupSelectionSql(xml::FlwrCondKind kind) {
  xml::FlwrQuery q;
  q.where.kind = kind;
  q.where.column = "p_retailprice";
  q.where.op = BinaryOp::kGt;
  q.where.agg = AggKind::kAvg;
  q.where.literal = Value::Double(kind == xml::FlwrCondKind::kSomeChild
                                      ? kSomeChildLiteral
                                      : kAggCompareLiteral);
  return Must(xml::TranslateToGApplySql(q, SupplierPartsBinding()),
              "translate §4.2 query");
}

// --- publishing -------------------------------------------------------------

/// Publishes the Figure-1 document: view -> sorted outer union -> execute
/// -> tagger. With `tc` set, each step is a span.
Status Publish(Database* db, Session* session, TraceCtx* tc, OpOutput* out) {
  auto step = [&](const char* name, auto&& fn, int parent = -1) {
    if (tc != nullptr) return tc->Call(name, fn, parent);
    return fn();
  };
  std::string root_element;
  Result<xml::SouqPlan> souq =
      step("xml.build_view", [&]() -> Result<xml::SouqPlan> {
        ASSIGN_OR_RETURN(xml::XmlView view,
                         xml::MakeSupplierPartsView(*db->catalog()));
        root_element = view.root_element;
        return xml::BuildSortedOuterUnion(view);
      });
  RETURN_NOT_OK(souq.status());
  QueryOptions qo;
  qo.profile = tc != nullptr;
  QueryStats stats;
  Result<QueryResult> rows = step("xml.souq_execute", [&] {
    return session->Execute(*souq->plan, qo, tc != nullptr ? &stats : nullptr);
  });
  RETURN_NOT_OK(rows.status());
  if (tc != nullptr) RecordQueryStats(stats, tc->ls);
  out->doc.clear();
  xml::Tagger tagger(*souq, [out](const std::string& s) { out->doc += s; });
  const int tag_span =
      tc != nullptr ? tc->tracer->Begin("xml.tag", tc->root, tc->op) : -1;
  tagger.Begin(root_element);
  Status st = step(
      "xml.tag.feed",
      [&] {
        for (const Row& row : rows->rows) {
          Status fed = tagger.Feed(row);
          if (!fed.ok()) return fed;
        }
        return Status::OK();
      },
      tag_span);
  RETURN_NOT_OK(st);
  RETURN_NOT_OK(step("xml.tag.finish", [&] { return tagger.Finish(); },
                     tag_span));
  if (tc != nullptr) {
    tc->tracer->End(tag_span);
    tc->ls->span_ms["xml.tag"].push_back(tc->tracer->Ms(tag_span));
    tc->ls->tagged_tuples += rows->rows.size();
    tc->ls->doc_bytes += out->doc.size();
  }
  out->tuples = rows->rows.size();
  return Status::OK();
}

std::string EscapeText(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '&') {
      out += "&amp;";
    } else if (c == '<') {
      out += "&lt;";
    } else if (c == '>') {
      out += "&gt;";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// The Figure-1 document rendered straight from the base tables, sharing no
/// code with the view, the executor or the tagger: suppliers by key, each
/// holding its parts by part key.
std::string ReferenceDocument(const Catalog& catalog) {
  const Table* supplier = catalog.FindTable("supplier");
  const Table* part = catalog.FindTable("part");
  const Table* partsupp = catalog.FindTable("partsupp");
  std::map<int64_t, const Row*> parts;
  for (const Row& r : part->rows()) parts[r[0].int_val()] = &r;
  std::map<int64_t, std::vector<int64_t>> supplied;  // suppkey -> partkeys
  for (const Row& r : partsupp->rows()) {
    supplied[r[1].int_val()].push_back(r[0].int_val());
  }
  std::map<int64_t, const Row*> suppliers;
  for (const Row& r : supplier->rows()) suppliers[r[0].int_val()] = &r;

  std::string doc = "<suppliers>\n";
  auto leaf = [&](int indent, const char* tag, const Value& v) {
    doc += std::string(static_cast<size_t>(indent), ' ') + "<" + tag + ">" +
           EscapeText(v.ToString()) + "</" + tag + ">\n";
  };
  for (const auto& [suppkey, srow] : suppliers) {
    doc += "  <supplier>\n";
    leaf(4, "s_suppkey", (*srow)[0]);
    leaf(4, "s_name", (*srow)[1]);
    std::vector<int64_t> keys = supplied[suppkey];
    std::sort(keys.begin(), keys.end());
    for (int64_t pk : keys) {
      const Row& prow = *parts.at(pk);
      doc += "    <part>\n";
      leaf(6, "p_name", prow[1]);
      leaf(6, "p_retailprice", prow[5]);
      doc += "    </part>\n";
    }
    doc += "  </supplier>\n";
  }
  doc += "</suppliers>\n";
  return doc;
}

/// Well-formedness of the tagger's output: one root, every end tag closes
/// the innermost open element, and text holds no raw '<' or bare '&'.
bool WellFormed(const std::string& doc, std::string* why) {
  std::vector<std::string> open;
  int roots = 0;
  size_t i = 0;
  while (i < doc.size()) {
    if (doc[i] != '<') {
      if (doc[i] == '&') {
        const bool entity = doc.compare(i, 5, "&amp;") == 0 ||
                            doc.compare(i, 4, "&lt;") == 0 ||
                            doc.compare(i, 4, "&gt;") == 0;
        if (!entity) {
          *why = "bare '&' at byte " + std::to_string(i);
          return false;
        }
      } else if (open.empty() && !std::isspace(static_cast<unsigned char>(
                                      doc[i]))) {
        *why = "text outside the root at byte " + std::to_string(i);
        return false;
      }
      ++i;
      continue;
    }
    const size_t close = doc.find('>', i);
    if (close == std::string::npos) {
      *why = "unterminated tag at byte " + std::to_string(i);
      return false;
    }
    const bool end_tag = doc[i + 1] == '/';
    const std::string name =
        doc.substr(i + (end_tag ? 2 : 1), close - i - (end_tag ? 2 : 1));
    if (name.empty() || name.find_first_of("<&/ ") != std::string::npos) {
      *why = "bad tag name at byte " + std::to_string(i);
      return false;
    }
    if (end_tag) {
      if (open.empty() || open.back() != name) {
        *why = "mismatched </" + name + "> at byte " + std::to_string(i);
        return false;
      }
      open.pop_back();
    } else {
      if (open.empty() && ++roots > 1) {
        *why = "second root element at byte " + std::to_string(i);
        return false;
      }
      open.push_back(name);
    }
    i = close + 1;
  }
  if (!open.empty() || roots != 1) {
    *why = "unclosed elements at end of document";
    return false;
  }
  return true;
}

// --- workloads --------------------------------------------------------------

/// One kind of operation in a workload: how to run it untraced (the
/// measured path) and traced, and the fingerprint of its correct output,
/// fixed at set-up.
struct OpKind {
  std::string label;
  std::function<Status(OpOutput*)> run;
  std::function<Status(TraceCtx*, OpOutput*)> run_traced;
  Fingerprint expected;
};

/// Everything one set-up builds: the database, its sessions and the
/// workload's prepared operations.
struct Env {
  explicit Env(size_t parallelism)
      : dop(parallelism),
        pool(parallelism > 1 ? std::make_unique<ThreadPool>(parallelism - 1)
                             : nullptr) {}

  Database db;
  size_t dop;  // every session's SET parallelism
  std::unique_ptr<ThreadPool> pool;  // LayerRunner's workers when dop > 1
  std::vector<std::unique_ptr<Session>> sessions;
  std::vector<OpKind> kinds;
  std::vector<int> round;  // kind indexes, one closed-loop round
  std::vector<LogicalOpPtr> baselines;

  // lookup_mix
  struct Request {
    int kind;  // 0 = supplier header, 1 = part's suppliers, 2 = supplier's parts
    int64_t key;
    std::string sql;  // statement sent; EXECUTE for prepared ones
    std::string layer_sql;
  };
  std::vector<Request> hot;  // prepared at set-up
  std::vector<double> supp_cdf, part_cdf;
  std::vector<int64_t> supp_rank, part_rank;  // Zipf rank -> key

  LayerRunner Runner() { return LayerRunner{&db, dop, pool.get()}; }
};

Session* NewSession(Env* env) {
  env->sessions.push_back(std::make_unique<Session>(&env->db));
  Session* s = env->sessions.back().get();
  MustOk(s->Query("set parallelism = " + std::to_string(env->dop)).status(),
         "SET parallelism");
  return s;
}

void PrepareXqGApply(Env* env) {
  Session* s = NewSession(env);
  std::vector<std::pair<std::string, std::string>> texts;
  for (int q = 0; q < 4; ++q) {
    texts.push_back({"Q" + std::to_string(q + 1), kFig8GApply[q]});
  }
  texts.push_back({"sel_some", GroupSelectionSql(xml::FlwrCondKind::kSomeChild)});
  texts.push_back({"sel_agg", GroupSelectionSql(xml::FlwrCondKind::kAggCompare)});
  for (const auto& [label, sql] : texts) {
    OpKind k;
    k.label = label;
    k.run = [s, sql](OpOutput* out) {
      Result<QueryResult> r = s->Query(sql);
      RETURN_NOT_OK(r.status());
      out->rows = std::move(r->rows);
      return Status::OK();
    };
    k.run_traced = [env, s, sql](TraceCtx* tc, OpOutput* out) {
      return env->Runner().TracedSql(tc, s, sql, sql, out);
    };
    env->kinds.push_back(std::move(k));
  }
  // Q4 twice per round: it is the query whose per-group overhead the
  // paper's claim hinges on, and seven slots keep the median inside one
  // query's latency band instead of on the edge between two.
  env->round = {0, 1, 2, 3, 4, 5, 3};
}

void PrepareXqSouq(Env* env) {
  Session* s = NewSession(env);
  const Catalog& c = *env->db.catalog();
  env->baselines.push_back(Q1Baseline(c));
  env->baselines.push_back(Q2Baseline(c));
  env->baselines.push_back(Q3Baseline(c));
  env->baselines.push_back(Q4Baseline(c));
  for (int q = 0; q < 4; ++q) {
    const LogicalOp* plan = env->baselines[static_cast<size_t>(q)].get();
    OpKind k;
    k.label = "Q" + std::to_string(q + 1);
    k.run = [s, plan](OpOutput* out) {
      Result<QueryResult> r = s->Execute(*plan);
      RETURN_NOT_OK(r.status());
      out->rows = std::move(r->rows);
      return Status::OK();
    };
    k.run_traced = [env, s, plan](TraceCtx* tc, OpOutput* out) {
      return env->Runner().TracedPlan(tc, s, *plan, out);
    };
    env->kinds.push_back(std::move(k));
  }
  OpKind pub;
  pub.label = "publish";
  Database* db = &env->db;
  pub.run = [db, s](OpOutput* out) { return Publish(db, s, nullptr, out); };
  pub.run_traced = [db, s](TraceCtx* tc, OpOutput* out) {
    return Publish(db, s, tc, out);
  };
  env->kinds.push_back(std::move(pub));
  // Q1 twice per round. Sorted by latency the kinds are Q1 < Q2 ~ Q3 < Q4 <
  // publish; with two Q1 slots, two below the Q2/Q3 band and two above it,
  // the median falls in the middle of that band instead of on its edge with
  // Q4, where the two bands' tails overlap.
  env->round = {0, 1, 2, 0, 3, 4};
}

// lookup_mix shape. No request log of an XML-publishing client is at hand,
// so the mix is synthetic and follows one rule: each of the four request
// classes (EXECUTE of a prepared fetch, ad-hoc supplier header, ad-hoc
// part's suppliers, ad-hoc supplier's parts join) takes about a quarter of
// the operation time, so a change to any one class's cost moves throughput
// alike. Shares of all requests are therefore proportional to 1 / mean
// latency, measured with this program at SF 0.05 on a 4-core x86 host:
// EXECUTE 0.038 ms, header 0.036 ms, part's suppliers 0.064 ms, join
// 4.5 ms. The join is 0.3% of requests, so p50 to p99 fall among the short
// fetches, where compilation and plan-cache misses dominate.
constexpr int kLookupSessions = 3;
constexpr double kExecuteShare = 0.376;
constexpr double kHeaderShare = 0.397;
constexpr double kJoinShare = 0.0031;  // the rest (0.224): part's suppliers
// Ad-hoc keys follow a Zipf law over every key with YCSB's default
// constant, so their distinct texts far exceed the plan cache's 256
// entries. The prepared hot set is the 16 most popular keys of each
// lookup; its 32 statements take an eighth of the cache and fit beside the
// ad-hoc working set.
constexpr double kZipfExponent = 0.99;
constexpr int kHotHeaders = 16;
constexpr int kHotPartSupps = 16;

std::string LookupSql(int kind, int64_t key) {
  char buf[256];
  const long long k = static_cast<long long>(key);
  switch (kind) {
    case 0:
      std::snprintf(buf, sizeof(buf),
                    "select s_suppkey, s_name, s_nationkey, s_acctbal "
                    "from supplier where s_suppkey = %lld",
                    k);
      break;
    case 1:
      std::snprintf(buf, sizeof(buf),
                    "select ps_suppkey, ps_availqty, ps_supplycost "
                    "from partsupp where ps_partkey = %lld",
                    k);
      break;
    default:
      std::snprintf(buf, sizeof(buf),
                    "select p_partkey, p_name, p_retailprice "
                    "from partsupp, part "
                    "where ps_partkey = p_partkey and ps_suppkey = %lld",
                    k);
      break;
  }
  return buf;
}

void ZipfTable(size_t n, uint64_t seed, std::vector<double>* cdf,
               std::vector<int64_t>* rank_to_key) {
  cdf->resize(n);
  double sum = 0;
  for (size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), kZipfExponent);
    (*cdf)[i] = sum;
  }
  for (double& c : *cdf) c /= sum;
  rank_to_key->resize(n);
  for (size_t i = 0; i < n; ++i) (*rank_to_key)[i] = static_cast<int64_t>(i) + 1;
  Rng rng(seed);
  for (size_t i = n - 1; i > 0; --i) {
    const size_t j = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(i)));
    std::swap((*rank_to_key)[i], (*rank_to_key)[j]);
  }
}

int64_t ZipfKey(Rng* rng, const std::vector<double>& cdf,
                const std::vector<int64_t>& rank_to_key) {
  const double u = rng->UniformDouble(0, 1);
  const size_t idx = static_cast<size_t>(
      std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
  return rank_to_key[std::min(idx, rank_to_key.size() - 1)];
}

void PrepareLookup(Env* env, uint64_t seed) {
  const Catalog& c = *env->db.catalog();
  const size_t suppliers = c.FindTable("supplier")->num_rows();
  const size_t parts = c.FindTable("part")->num_rows();
  ZipfTable(suppliers, seed * 7919 + 1, &env->supp_cdf, &env->supp_rank);
  ZipfTable(parts, seed * 7919 + 2, &env->part_cdf, &env->part_rank);
  auto add_hot = [&](int kind, int64_t key, const char* prefix) {
    Env::Request req{kind, key, "", LookupSql(kind, key)};
    req.sql = std::string("execute ") + prefix + std::to_string(key);
    env->hot.push_back(std::move(req));
  };
  for (int i = 0; i < kHotHeaders; ++i) add_hot(0, env->supp_rank[i], "h_s_");
  for (int i = 0; i < kHotPartSupps; ++i) {
    add_hot(1, env->part_rank[i], "h_p_");
  }
  for (int i = 0; i < kLookupSessions; ++i) {
    Session* s = NewSession(env);
    for (const Env::Request& req : env->hot) {
      MustOk(s->Query("prepare " + req.sql.substr(8) + " as " + req.layer_sql)
                 .status(),
             "PREPARE");
    }
  }
}

Env::Request NextRequest(const Env& env, Rng* rng) {
  const double u = rng->UniformDouble(0, 1);
  if (u < kExecuteShare) {
    return env.hot[static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(env.hot.size()) - 1))];
  }
  const int kind = u < kExecuteShare + kHeaderShare ? 0
                   : u < kExecuteShare + kHeaderShare + kJoinShare ? 2
                                                                   : 1;
  const int64_t key = kind == 1 ? ZipfKey(rng, env.part_cdf, env.part_rank)
                                : ZipfKey(rng, env.supp_cdf, env.supp_rank);
  std::string sql = LookupSql(kind, key);
  return {kind, key, sql, sql};
}

/// Serial reference answers for every lookup key, computed from the base
/// tables without the engine.
struct LookupReference {
  std::vector<Fingerprint> header, part_supp, supplier_parts;

  explicit LookupReference(const Catalog& c) {
    const Table* supplier = c.FindTable("supplier");
    const Table* part = c.FindTable("part");
    const Table* partsupp = c.FindTable("partsupp");
    header.resize(supplier->num_rows() + 1);
    supplier_parts.resize(supplier->num_rows() + 1);
    part_supp.resize(part->num_rows() + 1);
    for (const Row& r : supplier->rows()) {
      header[static_cast<size_t>(r[0].int_val())].Add(r);
    }
    std::vector<const Row*> part_by_key(part->num_rows() + 1);
    for (const Row& r : part->rows()) {
      part_by_key[static_cast<size_t>(r[0].int_val())] = &r;
    }
    for (const Row& r : partsupp->rows()) {
      const size_t pk = static_cast<size_t>(r[0].int_val());
      part_supp[pk].Add(Row{r[1], r[2], r[3]});
      const Row& p = *part_by_key[pk];
      supplier_parts[static_cast<size_t>(r[1].int_val())].Add(
          Row{p[0], p[1], p[5]});
    }
  }

  const Fingerprint& For(int kind, int64_t key) const {
    const auto& v = kind == 0 ? header : kind == 1 ? part_supp : supplier_parts;
    return v[static_cast<size_t>(key)];
  }
};

// --- running ----------------------------------------------------------------

/// Operations of one closed loop. Latency samples past kMaxSamples are
/// reservoir-sampled, so the kept set stays uniform while memory, and with
/// it peak RSS, does not grow with throughput.
struct LoopStats {
  static constexpr size_t kMaxSamples = size_t{1} << 18;

  std::vector<double> lat_ms;
  std::vector<int> kind;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double busy_s = 0;

  void Record(double ms, int k) {
    ++attempted;
    busy_s += ms / 1e3;
    if (lat_ms.size() < kMaxSamples) {
      lat_ms.push_back(ms);
      kind.push_back(k);
      return;
    }
    const uint64_t slot = Mix64(attempted) % attempted;
    if (slot < kMaxSamples) {
      lat_ms[slot] = ms;
      kind[slot] = k;
    }
  }
};

void MergeLoop(LoopStats* into, const LoopStats& from) {
  into->lat_ms.insert(into->lat_ms.end(), from.lat_ms.begin(),
                      from.lat_ms.end());
  into->kind.insert(into->kind.end(), from.kind.begin(), from.kind.end());
  into->attempted += from.attempted;
  into->failed += from.failed;
  into->busy_s += from.busy_s;
}

/// Runs one operation, times only the engine call, and checks its output.
bool RunChecked(OpKind& k, TraceCtx* tc, bool corrupt, LoopStats* ls,
                int kind_index, const std::string& label) {
  OpOutput out;
  const int64_t t0 = NowNs();
  Status st = tc != nullptr ? k.run_traced(tc, &out) : k.run(&out);
  const int64_t t1 = NowNs();
  if (tc != nullptr) tc->tracer->End(tc->root);
  ls->Record(static_cast<double>(t1 - t0) / 1e6, kind_index);
  if (corrupt) Corrupt(&out);
  if (!st.ok()) {
    ++ls->failed;
    std::fprintf(stderr, "FAILED %s: %s\n", label.c_str(),
                 st.ToString().c_str());
    return false;
  }
  if (!(FingerprintOf(out) == k.expected)) {
    ++ls->failed;
    std::fprintf(stderr, "WRONG RESULT %s: %llu rows/bytes, expected %llu\n",
                 label.c_str(), static_cast<unsigned long long>(
                                    FingerprintOf(out).rows),
                 static_cast<unsigned long long>(k.expected.rows));
    return false;
  }
  return true;
}

/// Closed loop over `env->round` for one session. With `whole_rounds`,
/// stops only at a round boundary so per-operation counters repeat exactly.
LoopStats SingleSessionLoop(Env* env, double seconds, int64_t max_ops,
                            bool inject, Tracer* tracer, LayerStats* layers,
                            bool whole_rounds, int64_t* op_id) {
  LoopStats ls;
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  size_t slot = 0;
  while (true) {
    const bool at_boundary = slot % env->round.size() == 0;
    const bool out_of_time = NowNs() >= deadline ||
                             (max_ops > 0 && static_cast<int64_t>(
                                                 ls.attempted) >= max_ops);
    if (out_of_time && (!whole_rounds || at_boundary) && ls.attempted > 0) {
      break;
    }
    const int kind = env->round[slot % env->round.size()];
    OpKind& k = env->kinds[static_cast<size_t>(kind)];
    const int64_t op = (*op_id)++;
    if (tracer != nullptr) {
      TraceCtx tc{tracer, tracer->Begin("op", -1, op), op, layers};
      RunChecked(k, &tc, inject && ls.attempted == 0, &ls, kind, k.label);
      ++layers->ops;
    } else {
      RunChecked(k, nullptr, inject && ls.attempted == 0, &ls, kind, k.label);
    }
    ++slot;
  }
  return ls;
}

/// The lookup_mix closed loop: one thread per session, each drawing from
/// its own seeded request stream. Returns per-phase stats, and the checked
/// but untimed warm-up operations in `warm_stats`.
struct LookupPhase {
  double seconds = 0;
  int64_t ops_per_session = 0;  // 0 = time-bounded
  bool traced = false;
};

void LookupLoops(Env* env, const LookupReference& ref, uint64_t seed,
                 int64_t warmup_ops, const std::vector<LookupPhase>& phases,
                 bool inject, std::vector<LoopStats>* phase_stats,
                 LoopStats* warm_stats, std::vector<Tracer>* tracers,
                 LayerStats* layers) {
  phase_stats->assign(phases.size(), LoopStats{});
  tracers->assign(kLookupSessions, Tracer{});
  std::vector<std::vector<LoopStats>> per_thread(
      kLookupSessions, std::vector<LoopStats>(phases.size()));
  std::vector<LoopStats> warm(kLookupSessions);
  std::vector<LayerStats> thread_layers(kLookupSessions);
  std::barrier sync(kLookupSessions);
  std::atomic<int64_t> deadline{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kLookupSessions; ++t) {
    threads.emplace_back([&, t] {
      Session* session = env->sessions[static_cast<size_t>(t)].get();
      Rng rng(seed * 1000003 + 101 + static_cast<uint64_t>(t));
      LayerRunner runner = env->Runner();
      int64_t op_id = static_cast<int64_t>(t) << 40;
      auto one = [&](LoopStats* ls, bool traced, bool corrupt) {
        const Env::Request req = NextRequest(*env, &rng);
        OpOutput out;
        Status st;
        const int64_t t0 = NowNs();
        if (traced) {
          Tracer* tracer = &(*tracers)[static_cast<size_t>(t)];
          TraceCtx tc{tracer, tracer->Begin("op", -1, op_id), op_id,
                      &thread_layers[static_cast<size_t>(t)]};
          st = runner.TracedSql(&tc, session, req.sql, req.layer_sql, &out);
          tracer->End(tc.root);
          ++tc.ls->ops;
        } else {
          Result<QueryResult> r = session->Query(req.sql);
          st = r.status();
          if (r.ok()) out.rows = std::move(r->rows);
        }
        const int64_t t1 = NowNs();
        ++op_id;
        ls->Record(static_cast<double>(t1 - t0) / 1e6,
                   req.sql[0] == 'e' ? 3 : req.kind);
        if (corrupt) Corrupt(&out);
        if (!st.ok() || !(FingerprintRows(out.rows) == ref.For(req.kind,
                                                                req.key))) {
          ++ls->failed;
          std::fprintf(stderr, "%s lookup: %s\n",
                       st.ok() ? "WRONG RESULT" : "FAILED",
                       st.ok() ? req.sql.c_str() : st.ToString().c_str());
        }
      };
      for (int64_t i = 0; i < warmup_ops; ++i) {
        one(&warm[static_cast<size_t>(t)], false, false);
      }
      for (size_t p = 0; p < phases.size(); ++p) {
        sync.arrive_and_wait();
        if (t == 0) {
          deadline = NowNs() + static_cast<int64_t>(phases[p].seconds * 1e9);
        }
        sync.arrive_and_wait();
        LoopStats& ls = per_thread[static_cast<size_t>(t)][p];
        bool first = inject && t == 0 && p == 0;
        while (true) {
          if (phases[p].ops_per_session > 0
                  ? ls.attempted >=
                        static_cast<uint64_t>(phases[p].ops_per_session)
                  : false) {
            break;
          }
          if (NowNs() >= deadline.load() && ls.attempted > 0) break;
          one(&ls, phases[p].traced, first);
          first = false;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  *warm_stats = LoopStats{};
  for (int t = 0; t < kLookupSessions; ++t) {
    MergeLoop(warm_stats, warm[static_cast<size_t>(t)]);
    for (size_t p = 0; p < phases.size(); ++p) {
      MergeLoop(&(*phase_stats)[p], per_thread[static_cast<size_t>(t)][p]);
    }
    layers->MergeFrom(thread_layers[static_cast<size_t>(t)]);
  }
}

// --- reporting --------------------------------------------------------------

/// Operations per second of operation time: sessions x ops / summed latency,
/// which for a closed loop with no think time is the rate the engine
/// sustained (checking time between operations is excluded).
double Throughput(const LoopStats& ls, int sessions) {
  return ls.busy_s > 0
             ? static_cast<double>(sessions) *
                   static_cast<double>(ls.attempted) / ls.busy_s
             : 0;
}

std::vector<double> KindLatencies(const LoopStats& ls, int kind) {
  std::vector<double> v;
  for (size_t i = 0; i < ls.lat_ms.size(); ++i) {
    if (ls.kind[i] == kind) v.push_back(ls.lat_ms[i]);
  }
  return v;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

void ReportLayers(const LayerStats& ls, const std::vector<Tracer>& tracers,
                  double untraced_ops_s, double traced_ops_s,
                  double load_s) {
  const double ops = std::max<double>(1, static_cast<double>(ls.ops));
  auto span_mean_us = [&](const char* name) {
    auto it = ls.span_ms.find(name);
    return it == ls.span_ms.end() ? 0.0 : Mean(it->second) * 1e3;
  };
  auto span_mean_ms = [&](const char* name) {
    auto it = ls.span_ms.find(name);
    return it == ls.span_ms.end() ? 0.0 : Mean(it->second);
  };
  // Layer self time: a span's time minus the time its children cover.
  std::map<std::string, std::pair<double, double>> layer;  // total, self ns
  for (const Tracer& t : tracers) {
    const std::vector<Span>& spans = t.spans();
    std::vector<double> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) {
        child_ns[static_cast<size_t>(s.parent)] +=
            static_cast<double>(s.end_ns - s.start_ns);
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const double d = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
      auto& [total, self] = layer[spans[i].name];
      total += d;
      self += d - child_ns[i];
    }
  }
  std::printf("per-layer time per traced operation (%llu operations):\n",
              static_cast<unsigned long long>(ls.ops));
  for (const auto& [name, ts] : layer) {
    std::printf("  layer %-22s total %10.4f ms  self %10.4f ms\n",
                name.c_str(), ts.first / 1e6 / ops, ts.second / 1e6 / ops);
  }

  AddMetric("sql.parse_us", span_mean_us("sql.parse"), "us");
  AddMetric("sql.bind_us", span_mean_us("sql.bind"), "us");
  AddMetric("engine.overhead_us", Median(ls.overhead_us), "us");
  AddMetric("exec.lower_us", span_mean_us("exec.lower"), "us");
  AddMetric("optimizer.optimize_us", span_mean_us("optimizer.optimize"), "us");
  AddMetric("optimizer.rules_fired",
            ls.optimizes == 0 ? 0
                              : static_cast<double>(ls.rules_fired) /
                                    static_cast<double>(ls.optimizes),
            "count");
  AddMetric("engine.plan_cache_hits", static_cast<double>(ls.cache_hits),
            "count");
  AddMetric("engine.plan_cache_lookups", static_cast<double>(ls.cache_lookups),
            "count");
  AddMetric("engine.plan_cache_hit_ratio",
            ls.cache_lookups == 0 ? 0
                                  : static_cast<double>(ls.cache_hits) /
                                        static_cast<double>(ls.cache_lookups),
            "ratio");
  AddMetric("engine.admission_wait_frac",
            ls.queries == 0 ? 0
                            : static_cast<double>(ls.admission_waits) /
                                  static_cast<double>(ls.queries),
            "ratio");
  const ExecContext::Counters& c = ls.counters;
  auto per_op = [&](uint64_t v) { return static_cast<double>(v) / ops; };
  AddMetric("exec.pgq_executions", per_op(c.pgq_executions), "count");
  AddMetric("exec.group_rows_scanned", per_op(c.group_rows_scanned), "count");
  AddMetric("exec.rows_sorted", per_op(c.rows_sorted), "count");
  AddMetric("exec.rows_scanned", per_op(c.rows_scanned), "count");
  // Includes the time of the GApply's child (the join below it): the
  // engine's partition counter measures from the first child pull.
  AddMetric("exec.gapply_partition_ms", per_op(c.gapply_partition_ns) / 1e6,
            "ms");
  AddMetric("exec.gapply_pgq_ms", per_op(c.gapply_pgq_ns) / 1e6, "ms");
  AddMetric("exec.gapply_worker_skew",
            ls.skew_min_ns > 0 ? ls.skew_max_ns / ls.skew_min_ns : 0, "ratio");
  AddMetric("exec.exchange_partition_ms",
            per_op(c.exchange_partition_ns) / 1e6, "ms");
  AddMetric("exec.exchange_merge_ms", per_op(c.exchange_merge_ns) / 1e6, "ms");
  // No Exchange entry: the profile sums an Exchange's worker-clone children,
  // which exceeds its wall time at parallelism > 1, so its self time is
  // clamped to 0. Its own work is in exchange_partition_ms and _merge_ms.
  for (const char* op : {"GApply", "GroupScan", "ScalarAgg", "Project",
                         "Filter", "HashJoin", "Sort", "HashGroupBy",
                         "UnionAll", "TableScan"}) {
    auto it = ls.op_self_ns.find(op);
    AddMetric(std::string("exec.op_self_ms.") + op,
              it == ls.op_self_ns.end() ? 0 : per_op(it->second) / 1e6, "ms");
  }
  AddMetric("storage.morsels_pruned_frac",
            c.morsels_pruned + c.morsels_scanned == 0
                ? 0
                : static_cast<double>(c.morsels_pruned) /
                      static_cast<double>(c.morsels_pruned + c.morsels_scanned),
            "ratio");
  AddMetric("xml.souq_execute_ms", span_mean_ms("xml.souq_execute"), "ms");
  AddMetric("xml.tag_ms", span_mean_ms("xml.tag"), "ms");
  double tag_ms_total = 0;
  if (auto it = ls.span_ms.find("xml.tag"); it != ls.span_ms.end()) {
    for (double v : it->second) tag_ms_total += v;
  }
  AddMetric("xml.tag_ns_per_tuple",
            ls.tagged_tuples == 0
                ? 0
                : tag_ms_total * 1e6 / static_cast<double>(ls.tagged_tuples),
            "ns");
  AddMetric("xml.bytes_per_tuple",
            ls.tagged_tuples == 0 ? 0
                                  : static_cast<double>(ls.doc_bytes) /
                                        static_cast<double>(ls.tagged_tuples),
            "bytes");
  AddMetric("tpch.load_s", load_s, "s");
  AddMetric("trace.untraced_ops_s", untraced_ops_s, "1/s");
  AddMetric("trace.traced_ops_s", traced_ops_s, "1/s");
  AddMetric("trace.overhead_frac",
            untraced_ops_s > 0 ? 1.0 - traced_ops_s / untraced_ops_s : 0,
            "ratio");
}

void WriteChromeTrace(const std::string& path, const std::vector<Tracer>& tracers,
                      const Args& a) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) Die("cannot write trace file " + path);
  int64_t base = INT64_MAX;
  for (const Tracer& t : tracers) {
    for (const Span& s : t.spans()) base = std::min(base, s.start_ns);
  }
  std::fprintf(f,
               "{\"otherData\": {\"workload\": \"%s\", \"seed\": %llu, "
               "\"scale_factor\": %g},\n\"traceEvents\": [\n",
               a.workload.c_str(), static_cast<unsigned long long>(a.seed),
               a.sf);
  bool first = true;
  for (size_t tid = 0; tid < tracers.size(); ++tid) {
    const std::vector<Span>& spans = tracers[tid].spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(
          f,
          "%s{\"name\": \"%s\", \"cat\": \"layer\", \"ph\": \"X\", "
          "\"pid\": 1, \"tid\": %zu, \"ts\": %.3f, \"dur\": %.3f, "
          "\"args\": {\"span\": %zu, \"parent\": %d, \"op\": %lld}}",
          first ? "" : ",\n", s.name, tid,
          static_cast<double>(s.start_ns - base) / 1e3,
          static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent,
          static_cast<long long>(s.op));
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
  std::printf("trace: wrote %s\n", path.c_str());
}

// --- set-up checks ----------------------------------------------------------

/// Executes every Fig. 8 query in both forms and requires equal row
/// multisets; returns the GApply-side and baseline-side fingerprints.
bool CheckFig8Forms(Env* env, Session* s, std::vector<Fingerprint>* gapply_fp,
                    std::vector<Fingerprint>* souq_fp) {
  const Catalog& c = *env->db.catalog();
  std::vector<LogicalOpPtr> baselines;
  baselines.push_back(Q1Baseline(c));
  baselines.push_back(Q2Baseline(c));
  baselines.push_back(Q3Baseline(c));
  baselines.push_back(Q4Baseline(c));
  bool ok = true;
  for (int q = 0; q < 4; ++q) {
    QueryResult g = Must(s->Query(kFig8GApply[q]), "Fig. 8 GApply query");
    QueryResult b =
        Must(s->Execute(*baselines[static_cast<size_t>(q)]), "Fig. 8 baseline");
    const bool same = SameRowMultiset(g.rows, b.rows);
    std::printf("check: fig8 Q%d gapply == sorted outer union: %s "
                "(%zu rows)\n",
                q + 1, same ? "ok" : "MISMATCH", g.rows.size());
    ok = ok && same;
    gapply_fp->push_back(FingerprintRows(g.rows));
    souq_fp->push_back(FingerprintRows(b.rows));
  }
  return ok;
}

/// Runs a §4.2 query optimized and with every rule off (the literal per-
/// group evaluation); requires equal results and reports the share of
/// supplier elements it keeps.
bool CheckGroupSelection(Env* env, Session* s, const std::string& label,
                         const std::string& sql, Fingerprint* fp) {
  QueryResult opt = Must(s->Query(sql), label);
  QueryOptions literal;
  literal.optimize = false;
  QueryResult ref = Must(s->Query(sql, literal), label + " (rules off)");
  const bool same = SameRowMultiset(opt.rows, ref.rows);
  std::map<int64_t, bool> kept;
  const int key_col = opt.schema.Resolve("ps_suppkey").ok()
                          ? opt.schema.Resolve("ps_suppkey").value()
                          : 0;
  for (const Row& r : opt.rows) {
    kept[r[static_cast<size_t>(key_col)].int_val()] = true;
  }
  const double share =
      static_cast<double>(kept.size()) /
      static_cast<double>(env->db.catalog()->FindTable("supplier")->num_rows());
  std::printf("check: %s optimized == per-group evaluation: %s (%zu rows, "
              "keeps %.1f%% of supplier elements)\n",
              label.c_str(), same ? "ok" : "MISMATCH", opt.rows.size(),
              share * 100);
  *fp = FingerprintRows(opt.rows);
  return same && !opt.rows.empty() && share < 1.0;
}

int Main(int argc, char** argv) {
  const Args a = ParseArgs(argc, argv);
  std::printf("# xmlpub_bench workload=%s seed=%llu sf=%g seconds=%g "
              "trace=%d\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed), a.sf,
              a.seconds, a.trace ? 1 : 0);

  // Set-up, repeated so its median is steady: load + analyze (LoadTpch),
  // then the workload's sessions, SETs, PREPAREs and plans. The last one is
  // kept.
  constexpr int kSetupReps = 25;
  constexpr size_t kTracedParallelism = 2;
  const size_t dop =
      a.trace && a.workload != "lookup_mix" ? kTracedParallelism : 1;
  std::vector<double> setup_s;
  std::vector<double> load_s;
  std::unique_ptr<Env> env;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    env.reset();
    const int64_t t0 = NowNs();
    env = std::make_unique<Env>(dop);
    tpch::TpchConfig config;
    config.scale_factor = a.sf;
    config.seed = a.seed;
    MustOk(env->db.LoadTpch(config), "LoadTpch");
    const int64_t t1 = NowNs();
    if (a.workload == "xq_gapply") {
      PrepareXqGApply(env.get());
    } else if (a.workload == "xq_souq") {
      PrepareXqSouq(env.get());
    } else {
      PrepareLookup(env.get(), a.seed);
    }
    const int64_t t2 = NowNs();
    load_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    setup_s.push_back(static_cast<double>(t2 - t0) / 1e9);
  }
  std::printf("setup: ms per repetition");
  for (double s : setup_s) std::printf(" %.2f", s * 1e3);
  std::printf("\n");
  const Catalog& catalog = *env->db.catalog();
  std::printf("data: %zu suppliers, %zu parts, %zu partsupp rows\n",
              catalog.FindTable("supplier")->num_rows(),
              catalog.FindTable("part")->num_rows(),
              catalog.FindTable("partsupp")->num_rows());

  // Output checks at set-up; a mismatch fails the run.
  bool setup_ok = true;
  if (a.workload != "lookup_mix") {
    Session* s = env->sessions[0].get();
    std::vector<Fingerprint> gfp;
    std::vector<Fingerprint> bfp;
    setup_ok = CheckFig8Forms(env.get(), s, &gfp, &bfp) && setup_ok;
    const std::vector<Fingerprint>& fp = a.workload == "xq_gapply" ? gfp : bfp;
    for (int q = 0; q < 4; ++q) {
      env->kinds[static_cast<size_t>(q)].expected = fp[static_cast<size_t>(q)];
    }
    if (a.workload == "xq_gapply") {
      setup_ok = CheckGroupSelection(
                     env.get(), s, "sel_some",
                     GroupSelectionSql(xml::FlwrCondKind::kSomeChild),
                     &env->kinds[4].expected) &&
                 setup_ok;
      setup_ok = CheckGroupSelection(
                     env.get(), s, "sel_agg",
                     GroupSelectionSql(xml::FlwrCondKind::kAggCompare),
                     &env->kinds[5].expected) &&
                 setup_ok;
    } else {
      const std::string ref = ReferenceDocument(catalog);
      OpOutput out;
      MustOk(Publish(&env->db, s, nullptr, &out), "publish");
      std::string why;
      const bool wf = WellFormed(out.doc, &why);
      const bool same = out.doc == ref;
      std::printf("check: document %zu bytes from %zu tuples, fnv1a "
                  "%016llx, well-formed: %s, equals table-derived "
                  "reference: %s\n",
                  out.doc.size(), out.tuples,
                  static_cast<unsigned long long>(Fnv1a(out.doc)),
                  wf ? "yes" : ("NO, " + why).c_str(), same ? "yes" : "NO");
      setup_ok = setup_ok && wf && same;
      env->kinds[4].expected = {ref.size(), Fnv1a(ref)};
    }
  }
  std::unique_ptr<LookupReference> lookup_ref;
  if (a.workload == "lookup_mix") {
    lookup_ref = std::make_unique<LookupReference>(catalog);
  }

  // `measured` holds the timed untraced operations; `attempted` and
  // `failed` count every checked operation, warm-up and traced ones too.
  LoopStats measured;
  LoopStats warm;
  LoopStats traced;
  LayerStats layers;
  std::vector<Tracer> tracers;
  int sessions = 1;
  const double untraced_seconds = a.trace ? a.seconds / 2 : a.seconds;
  if (a.workload == "lookup_mix") {
    sessions = kLookupSessions;
    std::vector<LookupPhase> phases = {{untraced_seconds, a.max_ops, false}};
    if (a.trace) {
      phases.push_back({a.seconds / 2, a.max_ops > 0 ? a.max_ops : 500, true});
    }
    std::vector<LoopStats> phase_stats;
    LookupLoops(env.get(), *lookup_ref, a.seed, a.max_ops > 0 ? 10 : 300,
                phases, a.inject_wrong_result, &phase_stats, &warm, &tracers,
                &layers);
    measured = phase_stats[0];
    if (a.trace) traced = phase_stats[1];
  } else {
    int64_t op_id = 0;
    // Warm-up: untimed rounds fill the plan cache and let the allocator
    // reach its steady state.
    warm = SingleSessionLoop(env.get(), 0, 3 * env->round.size(), false,
                             nullptr, nullptr, true, &op_id);
    measured = SingleSessionLoop(env.get(), untraced_seconds, a.max_ops,
                                 a.inject_wrong_result, nullptr, nullptr,
                                 false, &op_id);
    if (a.trace) {
      tracers.assign(1, Tracer{});
      traced = SingleSessionLoop(env.get(), a.seconds / 2, a.max_ops, false,
                                 &tracers[0], &layers, true, &op_id);
    }
  }
  const uint64_t attempted = warm.attempted + measured.attempted +
                             traced.attempted + (setup_ok ? 0 : 1);
  const uint64_t failed =
      warm.failed + measured.failed + traced.failed + (setup_ok ? 0 : 1);
  const double traced_ops_s = Throughput(traced, sessions);

  // --- report -------------------------------------------------------------
  const double untraced_ops_s = Throughput(measured, sessions);
  std::printf("samples: %zu timed operations over %d session(s); latency ms",
              measured.lat_ms.size(), sessions);
  for (double q : {0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 0.999}) {
    std::printf(" p%g=%.4f", q * 100, Percentile(measured.lat_ms, q));
  }
  std::printf("\n");
  std::vector<std::string> kind_labels = {"header", "part_supps",
                                          "supp_parts", "execute"};
  if (a.workload != "lookup_mix") {
    kind_labels.clear();
    for (const OpKind& k : env->kinds) kind_labels.push_back(k.label);
  }
  for (size_t k = 0; k < kind_labels.size(); ++k) {
    const std::vector<double> v = KindLatencies(measured, static_cast<int>(k));
    std::printf("  %-10s n=%zu latency ms mean=%.4f p25=%.4f p50=%.4f "
                "p75=%.4f p95=%.4f\n",
                kind_labels[k].c_str(), v.size(), Mean(v),
                Percentile(v, 0.25), Percentile(v, 0.5), Percentile(v, 0.75),
                Percentile(v, 0.95));
  }
  if (!a.trace) {
    AddMetric("setup_s", Median(setup_s), "s");
    AddMetric("throughput_ops_s", untraced_ops_s, "1/s");
    AddMetric("latency_p50_ms", Percentile(measured.lat_ms, 0.50), "ms");
    AddMetric("latency_p95_ms", Percentile(measured.lat_ms, 0.95), "ms");
    AddMetric("latency_p99_ms", Percentile(measured.lat_ms, 0.99), "ms");
    if (a.workload != "lookup_mix") {
      for (int q = 0; q < 4; ++q) {
        AddMetric("fig8_q" + std::to_string(q + 1) + "_ms",
                  Median(KindLatencies(measured, q)), "ms");
      }
    }
    if (a.workload == "xq_gapply") {
      AddMetric("sel_some_ms", Median(KindLatencies(measured, 4)), "ms");
      AddMetric("sel_agg_ms", Median(KindLatencies(measured, 5)), "ms");
    } else if (a.workload == "xq_souq") {
      const double publish_ms = Median(KindLatencies(measured, 4));
      AddMetric("publish_doc_ms", publish_ms, "ms");
      AddMetric("xml_mb_s",
                publish_ms > 0 ? static_cast<double>(env->kinds[4].expected.rows) /
                                     1e6 / (publish_ms / 1e3)
                               : 0,
                "MB/s");
    } else {
      const char* names[] = {"lookup_header_ms", "lookup_part_suppliers_ms",
                             "lookup_supplier_parts_ms", "lookup_execute_ms"};
      for (int k = 0; k < 4; ++k) {
        AddMetric(names[k], Median(KindLatencies(measured, k)), "ms");
      }
    }
    AddMetric("failed_frac",
              static_cast<double>(failed) / static_cast<double>(attempted),
              "ratio");
    AddMetric("peak_rss_mb", PeakRssMb(), "MB");
  } else {
    ReportLayers(layers, tracers, untraced_ops_s, traced_ops_s, Median(load_s));
    if (!a.trace_out.empty()) WriteChromeTrace(a.trace_out, tracers, a);
  }

  const bool correct = failed == 0;
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"correct\": %s, "
              "\"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < Metrics().size(); ++i) {
    const Metric& m = Metrics()[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace gapply::perfbench

int main(int argc, char** argv) { return gapply::perfbench::Main(argc, argv); }
