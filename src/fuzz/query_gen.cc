#include "src/fuzz/query_gen.h"

#include <algorithm>
#include <memory>
#include <set>
#include <utility>

#include "src/sql/parser.h"
#include "src/sql/printer.h"

namespace gapply::fuzz {

namespace {

using sql::Query;
using sql::QueryPtr;
using sql::SelectItem;
using sql::SelectStmt;
using sql::SqlExpr;
using sql::SqlExprKind;
using sql::SqlExprPtr;
using sql::TableRef;

// --- AST construction helpers ---------------------------------------------

SqlExprPtr RawLit(Value v) {
  auto e = std::make_unique<SqlExpr>();
  e->kind = SqlExprKind::kLiteral;
  e->literal = std::move(v);
  return e;
}

SqlExprPtr Col(const std::string& name) {
  auto e = std::make_unique<SqlExpr>();
  e->kind = SqlExprKind::kColumnRef;
  e->name = name;
  return e;
}

SqlExprPtr Un(UnaryOp op, SqlExprPtr child) {
  auto e = std::make_unique<SqlExpr>();
  e->kind = SqlExprKind::kUnary;
  e->unary_op = op;
  e->left = std::move(child);
  return e;
}

// Negative numeric constants are emitted as unary minus over the positive
// literal: the parser has no negative-literal token (a minus sign always
// parses as UnaryOp::kNegate), so printing "-3.7" directly would break the
// print→parse→print fixpoint the fuzzer's replay story depends on.
SqlExprPtr SLit(Value v) {
  if (v.is_null()) return RawLit(std::move(v));
  if (v.type() == TypeId::kInt64 && v.int_val() < 0) {
    return Un(UnaryOp::kNegate, RawLit(Value::Int(-v.int_val())));
  }
  if (v.type() == TypeId::kDouble && v.double_val() < 0) {
    return Un(UnaryOp::kNegate, RawLit(Value::Double(-v.double_val())));
  }
  return RawLit(std::move(v));
}

SqlExprPtr Bin(BinaryOp op, SqlExprPtr l, SqlExprPtr r) {
  auto e = std::make_unique<SqlExpr>();
  e->kind = SqlExprKind::kBinary;
  e->binary_op = op;
  e->left = std::move(l);
  e->right = std::move(r);
  return e;
}

SqlExprPtr Agg(const std::string& func, SqlExprPtr arg, bool star,
               bool distinct) {
  auto e = std::make_unique<SqlExpr>();
  e->kind = SqlExprKind::kFuncCall;
  e->func = func;
  e->star_arg = star;
  e->distinct_arg = distinct;
  if (arg != nullptr) e->args.push_back(std::move(arg));
  return e;
}

SqlExprPtr Subquery(QueryPtr q, bool exists, bool negated) {
  auto e = std::make_unique<SqlExpr>();
  e->kind = exists ? SqlExprKind::kExists : SqlExprKind::kScalarSubquery;
  e->subquery = std::move(q);
  e->negated = negated;
  return e;
}

QueryPtr Wrap(std::unique_ptr<SelectStmt> stmt) {
  auto q = std::make_unique<Query>();
  q->branches.push_back(std::move(stmt));
  return q;
}

/// Deep copy by round-tripping through the printer and parser — the
/// printer guarantees `Parse(ToSql(s))` reconstructs the statement, and
/// the AST has no native Clone.
std::unique_ptr<SelectStmt> CloneSelect(const SelectStmt& s) {
  Result<QueryPtr> parsed = sql::Parse(sql::ToSql(s));
  if (!parsed.ok() || (*parsed)->branches.size() != 1) return nullptr;
  return std::move((*parsed)->branches[0]);
}

// --- generator -------------------------------------------------------------

using Scope = std::vector<const FuzzColumn*>;

/// A generated SELECT plus its output column names. `raw_names` means some
/// outputs carry source column names (star expansion / grouping
/// passthrough) instead of fresh aliases, so they can collide with outer
/// names — callers must rename before exposing them next to grouping
/// columns. `extra_branch` (PGQ unions) is a second, union-compatible
/// branch the caller should append to the wrapping Query.
struct GenSelect {
  std::unique_ptr<SelectStmt> stmt;
  std::vector<std::string> out_names;
  bool raw_names = false;
  std::unique_ptr<SelectStmt> extra_branch;
};

class QueryGen {
 public:
  // `side_` and `join_side_` are seeded off (not drawn from) the main
  // stream.
  QueryGen(const FuzzDataset& ds, Rng* rng)
      : ds_(ds),
        rng_(rng),
        side_(Rng(*rng).Next() ^ 0x5a17edc0ull),
        join_side_(Rng(*rng).Next() ^ 0x6b28fed1ull) {}

  GeneratedQuery Generate() {
    // On a d0 with a run key, most queries join on it instead of pk. The
    // draw comes from its own stream and rk stays out of JoinScope, so a
    // query that joins on pk is the one the dataset without rk would get.
    if (ds_.dim.has_value() && ds_.dim->columns.back().name == "rk" &&
        join_side_.Bernoulli(0.75)) {
      dim_key_ = "rk";
    }
    GeneratedQuery out;
    out.ast = GenTop();
    out.sql = sql::ToSql(*out.ast);
    out.features.assign(features_.begin(), features_.end());
    return out;
  }

 private:
  void Tag(const char* feature) { features_.insert(feature); }

  // --- scopes and literals ---

  Scope FactScope() const {
    Scope s;
    for (const FuzzColumn& c : ds_.fact.columns) s.push_back(&c);
    return s;
  }

  Scope JoinScope() const {
    Scope s = FactScope();
    for (const FuzzColumn& c : ds_.dim->columns) {
      if (c.name != "rk") s.push_back(&c);
    }
    return s;
  }

  /// The equi-join predicate of `from t0, d0`; tags a join on the run key.
  SqlExprPtr JoinPred() {
    if (dim_key_ == "rk") Tag("run-key-join");
    return Bin(BinaryOp::kEq, Col("fk"), Col(dim_key_));
  }

  const FuzzColumn* Pick(const Scope& scope) {
    return scope[static_cast<size_t>(
        rng_->UniformInt(0, static_cast<int64_t>(scope.size()) - 1))];
  }

  Scope Filter(const Scope& scope, bool (*pred)(const FuzzColumn&)) {
    Scope out;
    for (const FuzzColumn* c : scope) {
      if (pred(*c)) out.push_back(c);
    }
    return out;
  }

  Scope NumericCols(const Scope& s) {
    return Filter(s, [](const FuzzColumn& c) { return IsNumeric(c.type); });
  }
  Scope StringCols(const Scope& s) {
    return Filter(s, [](const FuzzColumn& c) {
      return c.type == TypeId::kString;
    });
  }
  Scope KeyCols(const Scope& s) {
    return Filter(s, [](const FuzzColumn& c) { return c.group_key; });
  }

  std::string FreshAlias() { return "c" + std::to_string(alias_counter_++); }

  /// Literal aimed at the column's populated domain: usually inside it,
  /// sometimes at or past the edge (selecting nothing — the empty-group
  /// path), rarely NULL.
  Value LiteralFor(const FuzzColumn& col) {
    if (rng_->Bernoulli(0.04)) return Value::Null();
    switch (col.type) {
      case TypeId::kInt64: {
        const int roll = static_cast<int>(rng_->UniformInt(0, 9));
        if (roll < 6) return Value::Int(rng_->UniformInt(col.int_min, col.int_max));
        if (roll == 6) return Value::Int(col.int_min);
        if (roll == 7) return Value::Int(col.int_max);
        if (roll == 8) return Value::Int(col.int_max + 1);
        return Value::Int(col.int_min - 1);
      }
      case TypeId::kDouble: {
        if (rng_->Bernoulli(0.2)) return Value::Double(col.dbl_max + 1.0);
        return Value::Double(
            static_cast<double>(rng_->UniformInt(
                static_cast<int64_t>(col.dbl_min * 10),
                static_cast<int64_t>(col.dbl_max * 10))) /
            10.0);
      }
      case TypeId::kString: {
        if (!ds_.words.empty() && rng_->Bernoulli(0.8)) {
          return Value::Str(ds_.words[static_cast<size_t>(rng_->UniformInt(
              0, static_cast<int64_t>(ds_.words.size()) - 1))]);
        }
        return Value::Str("zzzz");  // outside the pool: selects nothing
      }
      default:
        return Value::Null();
    }
  }

  // --- expressions ---

  /// Numeric scalar: a column, or simple arithmetic over columns and small
  /// literals. Divide/modulo are excluded so evaluation is total.
  SqlExprPtr NumExpr(const Scope& scope) {
    Scope nums = NumericCols(scope);
    if (nums.empty()) return SLit(Value::Int(1));
    const FuzzColumn* a = Pick(nums);
    const int roll = static_cast<int>(rng_->UniformInt(0, 9));
    if (roll < 6) return Col(a->name);
    static const BinaryOp kArith[] = {BinaryOp::kAdd, BinaryOp::kSubtract,
                                      BinaryOp::kMultiply};
    const BinaryOp op = kArith[rng_->UniformInt(0, 2)];
    if (roll < 8) {
      return Bin(op, Col(a->name), SLit(Value::Int(rng_->UniformInt(-3, 3))));
    }
    const FuzzColumn* b = Pick(nums);
    if (roll == 8) return Bin(op, Col(a->name), Col(b->name));
    return Un(UnaryOp::kNegate, Col(a->name));
  }

  BinaryOp Cmp() {
    static const BinaryOp kCmps[] = {BinaryOp::kEq, BinaryOp::kNe,
                                     BinaryOp::kLt, BinaryOp::kLe,
                                     BinaryOp::kGt, BinaryOp::kGe};
    return kCmps[rng_->UniformInt(0, 5)];
  }

  SqlExprPtr PredAtom(const Scope& scope) {
    const FuzzColumn* col = Pick(scope);
    const int roll = static_cast<int>(rng_->UniformInt(0, 9));
    if (roll < 2) {
      return Un(rng_->Bernoulli(0.5) ? UnaryOp::kIsNull : UnaryOp::kIsNotNull,
                Col(col->name));
    }
    if (roll < 4) {
      // Column vs column, type-matched so Compare cannot fail.
      Scope family = IsNumeric(col->type) ? NumericCols(scope)
                     : col->type == TypeId::kString ? StringCols(scope)
                                                    : Scope{};
      if (family.size() >= 2) {
        const FuzzColumn* other = Pick(family);
        return Bin(Cmp(), Col(col->name), Col(other->name));
      }
    }
    if (roll < 6 && IsNumeric(col->type)) {
      return Bin(Cmp(), NumExpr(scope), SLit(LiteralFor(*col)));
    }
    return Bin(Cmp(), Col(col->name), SLit(LiteralFor(*col)));
  }

  /// A predicate; on a dataset with a sorted column in `scope`, often with
  /// an `=`/range conjunct on that column and-ed on top, where a scan
  /// below can take it as a pushed conjunct and narrow by binary search.
  /// The conjunct draws from `side_` only, after the predicate is drawn, so
  /// the main stream, and with it the rest of the query and its features,
  /// is what it would be on an unsorted dataset.
  SqlExprPtr Pred(const Scope& scope) {
    SqlExprPtr pred = DrawnPred(scope, 0);
    const auto sorted = std::find_if(
        scope.begin(), scope.end(),
        [](const FuzzColumn* c) { return c->sorted; });
    if (sorted == scope.end() || !side_.Bernoulli(0.6)) return pred;
    const FuzzColumn& col = **sorted;
    static const BinaryOp kCmps[] = {BinaryOp::kEq, BinaryOp::kEq,
                                     BinaryOp::kLt, BinaryOp::kLe,
                                     BinaryOp::kGt, BinaryOp::kGe,
                                     BinaryOp::kNe};
    const BinaryOp op = kCmps[side_.UniformInt(0, 6)];
    // Mostly a key some row holds, so `=` and the range ends land on a
    // duplicate run rather than outside the zone map's range.
    const size_t c = static_cast<size_t>(&col - ds_.fact.columns.data());
    const std::vector<Row>& rows = ds_.fact.rows;
    const Value& held = rows[static_cast<size_t>(
        side_.UniformInt(0, static_cast<int64_t>(rows.size()) - 1))][c];
    const int64_t v = !held.is_null() && side_.Bernoulli(0.7)
                          ? held.int_val()
                          : side_.UniformInt(col.int_min - 1, col.int_max + 1);
    // Now and then a double literal, which never narrows an int column.
    Value lit = side_.Bernoulli(0.1)
                    ? Value::Double(static_cast<double>(v) + 0.5)
                    : Value::Int(v);
    return Bin(BinaryOp::kAnd, Bin(op, Col(col.name), SLit(std::move(lit))),
               std::move(pred));
  }

  SqlExprPtr DrawnPred(const Scope& scope, int depth) {
    if (depth >= 2 || rng_->Bernoulli(0.55)) {
      SqlExprPtr atom = PredAtom(scope);
      if (rng_->Bernoulli(0.12)) atom = Un(UnaryOp::kNot, std::move(atom));
      return atom;
    }
    const BinaryOp op =
        rng_->Bernoulli(0.6) ? BinaryOp::kAnd : BinaryOp::kOr;
    return Bin(op, DrawnPred(scope, depth + 1), DrawnPred(scope, depth + 1));
  }

  /// One aggregate call over the scope, e.g. sum(v0), count(distinct s1).
  SqlExprPtr AggCall(const Scope& scope) {
    const int roll = static_cast<int>(rng_->UniformInt(0, 9));
    if (roll < 3) return Agg("count", nullptr, /*star=*/true, false);
    Scope nums = NumericCols(scope);
    if (roll < 5 && !nums.empty()) {
      const bool distinct = rng_->Bernoulli(0.15);
      if (distinct) Tag("distinct-agg");
      return Agg("sum", Col(Pick(nums)->name), false, distinct);
    }
    if (roll < 6 && !nums.empty()) {
      return Agg("avg", Col(Pick(nums)->name), false, false);
    }
    if (roll < 8) {
      const bool distinct = rng_->Bernoulli(0.15);
      if (distinct) Tag("distinct-agg");
      return Agg("count", Col(Pick(scope)->name), false, distinct);
    }
    const FuzzColumn* c = Pick(scope);
    return Agg(rng_->Bernoulli(0.5) ? "min" : "max", Col(c->name), false,
               false);
  }

  // --- select statement shapes ---

  static std::vector<TableRef> FromTables(
      const std::vector<std::string>& names) {
    std::vector<TableRef> refs;
    for (const std::string& n : names) refs.push_back({n, n});
    return refs;
  }

  /// Picks 1–2 distinct grouping columns. `must_include` (may be empty)
  /// forces a column into the list (the join column for invariant
  /// grouping).
  std::vector<std::string> PickGroupCols(const Scope& scope,
                                         const std::string& must_include) {
    Scope keys = KeyCols(scope);
    if (keys.empty()) keys = scope;
    std::vector<std::string> out;
    if (!must_include.empty()) out.push_back(must_include);
    const int want = rng_->Bernoulli(0.35) ? 2 : 1;
    int guard = 0;
    while (static_cast<int>(out.size()) < want && guard++ < 8) {
      const std::string name = Pick(keys)->name;
      if (std::find(out.begin(), out.end(), name) == out.end()) {
        out.push_back(name);
      }
    }
    if (out.empty()) out.push_back(scope.front()->name);
    return out;
  }

  /// Plain (non-gapply) select: filter/project, scalar aggregate, or
  /// grouped aggregate, optionally over the FK join.
  GenSelect GenPlainSelect(bool allow_join) {
    GenSelect g;
    g.stmt = std::make_unique<SelectStmt>();
    const bool join =
        allow_join && ds_.dim.has_value() && rng_->Bernoulli(0.3);
    Scope scope = join ? JoinScope() : FactScope();
    g.stmt->from = FromTables(join ? std::vector<std::string>{"t0", "d0"}
                                   : std::vector<std::string>{"t0"});
    if (join) Tag("join");

    SqlExprPtr where;
    if (join) where = JoinPred();
    if (rng_->Bernoulli(join ? 0.5 : 0.55)) {
      SqlExprPtr pred = Pred(scope);
      where = where == nullptr
                  ? std::move(pred)
                  : Bin(BinaryOp::kAnd, std::move(where), std::move(pred));
    }
    g.stmt->where = std::move(where);

    const int roll = static_cast<int>(rng_->UniformInt(0, 9));
    if (roll < 4) {
      // Grouped aggregate.
      Tag("plain-groupby");
      std::vector<std::string> gcols = PickGroupCols(scope, "");
      for (const std::string& c : gcols) {
        g.stmt->group_by.push_back(Col(c));
        std::string alias = FreshAlias();
        g.stmt->items.push_back({Col(c), alias});
        g.out_names.push_back(alias);
      }
      const int aggs = static_cast<int>(rng_->UniformInt(1, 2));
      for (int i = 0; i < aggs; ++i) {
        std::string alias = FreshAlias();
        g.stmt->items.push_back({AggCall(scope), alias});
        g.out_names.push_back(alias);
      }
      if (rng_->Bernoulli(0.3)) {
        Tag("having");
        g.stmt->having =
            Bin(Cmp(), AggCall(scope), SLit(Value::Int(rng_->UniformInt(0, 5))));
      }
    } else if (roll < 7) {
      // Scalar aggregate (always exactly one output row).
      Tag("plain-agg");
      const int aggs = static_cast<int>(rng_->UniformInt(1, 3));
      for (int i = 0; i < aggs; ++i) {
        std::string alias = FreshAlias();
        g.stmt->items.push_back({AggCall(scope), alias});
        g.out_names.push_back(alias);
      }
    } else {
      // Filter/project.
      const int items = static_cast<int>(rng_->UniformInt(1, 3));
      for (int i = 0; i < items; ++i) {
        std::string alias = FreshAlias();
        SqlExprPtr e = rng_->Bernoulli(0.6) ? Col(Pick(scope)->name)
                                            : NumExpr(scope);
        g.stmt->items.push_back({std::move(e), alias});
        g.out_names.push_back(alias);
      }
    }
    return g;
  }

  /// The per-group query over group variable `var` whose rows have the
  /// group's schema (`scope`).
  GenSelect GenPgq(const std::string& var, const Scope& scope, int depth) {
    const int roll = static_cast<int>(rng_->UniformInt(0, 99));
    // Weighted towards the shapes lowering loop-lifts (DESIGN.md §17) —
    // scalar subqueries, EXISTS and unions of aggregates — so the
    // lifted-vs-per-group oracles keep comparing two different PGQ plans.
    // Deep recursion collapses to the three simple shapes.
    if (depth <= 2) {
      if (roll < 18) return GenPgqScalarSubquery(var, scope);
      if (roll < 34) return GenPgqExists(var, scope);
      if (roll < 41) return GenPgqAggExists(var, scope);
      if (roll < 55) return GenPgqUnion(var, scope);
      if (roll < 60 && depth <= 1) return GenPgqNestedGApply(var, scope, depth);
    }
    if (roll < 74) return GenPgqPassthrough(var, scope);
    if (roll < 88) return GenPgqScalarAgg(var, scope);
    return GenPgqGroupBy(var, scope);
  }

  GenSelect GenPgqPassthrough(const std::string& var, const Scope& scope) {
    GenSelect g;
    g.stmt = std::make_unique<SelectStmt>();
    g.stmt->from = FromTables({var});
    if (rng_->Bernoulli(0.3)) {
      Tag("pgq-star");
      g.stmt->select_star = true;
      g.raw_names = true;
      for (const FuzzColumn* c : scope) g.out_names.push_back(c->name);
    } else {
      const int items = static_cast<int>(rng_->UniformInt(1, 3));
      for (int i = 0; i < items; ++i) {
        std::string alias = FreshAlias();
        SqlExprPtr e = rng_->Bernoulli(0.65) ? Col(Pick(scope)->name)
                                             : NumExpr(scope);
        g.stmt->items.push_back({std::move(e), alias});
        g.out_names.push_back(alias);
      }
    }
    if (rng_->Bernoulli(0.55)) g.stmt->where = Pred(scope);
    return g;
  }

  GenSelect GenPgqScalarAgg(const std::string& var, const Scope& scope) {
    Tag("pgq-agg");
    GenSelect g;
    g.stmt = std::make_unique<SelectStmt>();
    g.stmt->from = FromTables({var});
    const int aggs = static_cast<int>(rng_->UniformInt(1, 3));
    for (int i = 0; i < aggs; ++i) {
      std::string alias = FreshAlias();
      g.stmt->items.push_back({AggCall(scope), alias});
      g.out_names.push_back(alias);
    }
    if (rng_->Bernoulli(0.5)) g.stmt->where = Pred(scope);
    return g;
  }

  GenSelect GenPgqGroupBy(const std::string& var, const Scope& scope) {
    Tag("pgq-groupby");
    GenSelect g;
    g.stmt = std::make_unique<SelectStmt>();
    g.stmt->from = FromTables({var});
    std::vector<std::string> gcols = PickGroupCols(scope, "");
    for (const std::string& c : gcols) {
      g.stmt->group_by.push_back(Col(c));
      std::string alias = FreshAlias();
      g.stmt->items.push_back({Col(c), alias});
      g.out_names.push_back(alias);
    }
    const int aggs = static_cast<int>(rng_->UniformInt(1, 2));
    for (int i = 0; i < aggs; ++i) {
      std::string alias = FreshAlias();
      g.stmt->items.push_back({AggCall(scope), alias});
      g.out_names.push_back(alias);
    }
    if (rng_->Bernoulli(0.5)) g.stmt->where = Pred(scope);
    if (rng_->Bernoulli(0.35)) {
      Tag("having");
      g.stmt->having =
          Bin(Cmp(), AggCall(scope), SLit(Value::Int(rng_->UniformInt(0, 4))));
    }
    return g;
  }

  GenSelect GenPgqScalarSubquery(const std::string& var, const Scope& scope) {
    Tag("pgq-subquery");
    GenSelect g = GenPgqPassthrough(var, scope);
    // where <numeric> CMP (select agg from var [where ...]):
    // the classic correlated-aggregate comparison (paper Fig. 3).
    auto sub = std::make_unique<SelectStmt>();
    sub->from = FromTables({var});
    sub->items.push_back({AggCall(scope), FreshAlias()});
    if (rng_->Bernoulli(0.35)) sub->where = Pred(scope);
    SqlExprPtr cmp = Bin(Cmp(), NumExpr(scope),
                         Subquery(Wrap(std::move(sub)), false, false));
    g.stmt->where = g.stmt->where == nullptr
                        ? std::move(cmp)
                        : Bin(BinaryOp::kAnd, std::move(g.stmt->where),
                              std::move(cmp));
    return g;
  }

  GenSelect GenPgqExists(const std::string& var, const Scope& scope) {
    Tag("pgq-exists");
    GenSelect g = GenPgqPassthrough(var, scope);
    auto sub = std::make_unique<SelectStmt>();
    sub->from = FromTables({var});
    sub->items.push_back({Col(Pick(scope)->name), FreshAlias()});
    sub->where = Pred(scope);
    SqlExprPtr ex =
        Subquery(Wrap(std::move(sub)), true, rng_->Bernoulli(0.4));
    // EXISTS must stay a top-level conjunct for the binder.
    g.stmt->where = g.stmt->where == nullptr
                        ? std::move(ex)
                        : Bin(BinaryOp::kAnd, std::move(ex),
                              std::move(g.stmt->where));
    return g;
  }

  /// `where exists (select agg from var having agg CMP k)` — the
  /// GroupSelectionAggregate shape (paper §4.2).
  GenSelect GenPgqAggExists(const std::string& var, const Scope& scope) {
    Tag("pgq-agg-exists");
    GenSelect g;
    g.stmt = std::make_unique<SelectStmt>();
    g.stmt->from = FromTables({var});
    g.stmt->select_star = true;
    g.raw_names = true;
    for (const FuzzColumn* c : scope) g.out_names.push_back(c->name);

    auto sub = std::make_unique<SelectStmt>();
    sub->from = FromTables({var});
    sub->items.push_back({AggCall(scope), FreshAlias()});
    sub->having =
        Bin(Cmp(), AggCall(scope), SLit(Value::Int(rng_->UniformInt(0, 5))));
    g.stmt->where =
        Subquery(Wrap(std::move(sub)), true, rng_->Bernoulli(0.3));
    return g;
  }

  GenSelect GenPgqUnion(const std::string& var, const Scope& scope) {
    Tag("pgq-union");
    GenSelect base = rng_->Bernoulli(0.4) ? GenPgqPassthrough(var, scope)
                                          : GenPgqScalarAgg(var, scope);
    std::unique_ptr<SelectStmt> other = CloneSelect(*base.stmt);
    if (other == nullptr) return base;  // printer failed: degrade gracefully
    // Vary the clone's filter; the output schema (and thus union
    // compatibility) is untouched.
    if (rng_->Bernoulli(0.75)) {
      other->where = Pred(scope);
    } else {
      other->where = nullptr;
    }
    GenSelect g;
    g.stmt = std::move(base.stmt);
    g.out_names = std::move(base.out_names);
    g.raw_names = base.raw_names;
    g.extra_branch = std::move(other);
    return g;
  }

  GenSelect GenPgqNestedGApply(const std::string& var, const Scope& scope,
                               int depth) {
    Tag("nested-gapply");
    return GenGApplySelect({var}, scope, depth);
  }

  /// `select gapply(PGQ) [as (...)] from ... group by cols : v`.
  /// `from` is either base tables or an enclosing group variable.
  GenSelect GenGApplySelect(const std::vector<std::string>& from,
                            const Scope& scope, int depth) {
    Tag("gapply");
    GenSelect g;
    g.stmt = std::make_unique<SelectStmt>();
    g.stmt->from = FromTables(from);

    const bool join = from.size() == 2;
    std::string must;
    if (join && rng_->Bernoulli(0.75)) must = "fk";
    std::vector<std::string> gcols = PickGroupCols(scope, must);
    for (const std::string& c : gcols) g.stmt->group_by.push_back(Col(c));
    g.stmt->group_var = depth == 0 ? "g" : "h" + std::to_string(depth);

    SqlExprPtr where;
    if (join) where = JoinPred();
    if (rng_->Bernoulli(0.45)) {
      SqlExprPtr pred = Pred(scope);
      where = where == nullptr
                  ? std::move(pred)
                  : Bin(BinaryOp::kAnd, std::move(where), std::move(pred));
    }
    g.stmt->where = std::move(where);

    GenSelect pgq = GenPgq(g.stmt->group_var, scope, depth + 1);
    auto pgq_query = Wrap(std::move(pgq.stmt));
    if (pgq.extra_branch != nullptr) {
      pgq_query->branches.push_back(std::move(pgq.extra_branch));
    }
    g.stmt->gapply_pgq = std::move(pgq_query);

    // The GApply output is grouping columns followed by PGQ output. If the
    // PGQ re-exposes source column names (star shapes) they can collide
    // with the grouping columns, so renaming is mandatory there and
    // optional otherwise.
    const bool need_names = pgq.raw_names;
    if (need_names || rng_->Bernoulli(0.5)) {
      for (size_t i = 0; i < pgq.out_names.size(); ++i) {
        g.stmt->gapply_names.push_back(FreshAlias());
      }
      g.out_names = gcols;
      g.out_names.insert(g.out_names.end(), g.stmt->gapply_names.begin(),
                         g.stmt->gapply_names.end());
    } else {
      g.out_names = gcols;
      g.out_names.insert(g.out_names.end(), pgq.out_names.begin(),
                         pgq.out_names.end());
    }
    return g;
  }

  /// Top-level query: gapply select, plain select, or a UNION ALL pair,
  /// with an optional ORDER BY over uniquely named outputs.
  QueryPtr GenTop() {
    const int roll = static_cast<int>(rng_->UniformInt(0, 99));
    GenSelect head;
    if (roll < 60) {
      const bool join = ds_.dim.has_value() && rng_->Bernoulli(0.45);
      if (join) Tag("join");
      head = GenGApplySelect(
          join ? std::vector<std::string>{"t0", "d0"}
               : std::vector<std::string>{"t0"},
          join ? JoinScope() : FactScope(), 0);
    } else {
      head = GenPlainSelect(/*allow_join=*/true);
    }

    auto q = std::make_unique<Query>();
    const bool union_top = roll >= 85 || (roll < 60 && rng_->Bernoulli(0.12));
    if (union_top) {
      std::unique_ptr<SelectStmt> other = CloneSelect(*head.stmt);
      if (other != nullptr) {
        Tag("union-top");
        if (rng_->Bernoulli(0.7)) {
          // New filter over the same scope; schema unchanged.
          Scope scope = other->from.size() == 2 ? JoinScope() : FactScope();
          SqlExprPtr pred = Pred(scope);
          if (other->from.size() == 2) {
            pred = Bin(BinaryOp::kAnd,
                       JoinPred(),
                       std::move(pred));
          }
          other->where = std::move(pred);
        }
        q->branches.push_back(std::move(other));
      }
    }
    q->branches.insert(q->branches.begin(), std::move(head.stmt));

    // ORDER BY only when every output name is unique (else the bind is
    // legitimately ambiguous).
    std::set<std::string> uniq(head.out_names.begin(), head.out_names.end());
    if (uniq.size() == head.out_names.size() && !head.out_names.empty() &&
        rng_->Bernoulli(0.45)) {
      Tag("order-by");
      const int n = std::min<int>(static_cast<int>(head.out_names.size()),
                                  rng_->Bernoulli(0.4) ? 2 : 1);
      std::set<std::string> used;
      for (int i = 0; i < n; ++i) {
        const std::string& name = head.out_names[static_cast<size_t>(
            rng_->UniformInt(0, static_cast<int64_t>(head.out_names.size()) -
                                    1))];
        if (!used.insert(name).second) continue;
        q->order_by.push_back({Col(name), rng_->Bernoulli(0.7)});
      }
    }
    return q;
  }

  const FuzzDataset& ds_;
  Rng* rng_;
  Rng side_;
  Rng join_side_;
  /// The d0 column every `fk = ...` join predicate of this query uses.
  std::string dim_key_ = "pk";
  std::set<std::string> features_;
  int alias_counter_ = 0;
};

}  // namespace

GeneratedQuery GenerateQuery(const FuzzDataset& dataset, Rng* rng) {
  return QueryGen(dataset, rng).Generate();
}

}  // namespace gapply::fuzz
