#include "src/core/analyses.h"

#include <map>
#include <utility>

#include "src/plan/plan_utils.h"

namespace gapply::core {

namespace {

// ---------------------------------------------------------------------------
// Covering-range helpers. nullptr = TRUE (whole group); literal false =
// "reads no group tuples".
// ---------------------------------------------------------------------------

bool IsFalseLiteral(const ExprPtr& e) {
  if (e == nullptr || e->kind() != ExprKind::kLiteral) return false;
  const Value& v = static_cast<const LiteralExpr&>(*e).value();
  return v.type() == TypeId::kBool && !v.bool_val();
}

ExprPtr FalseRange() { return Lit(Value::Bool(false)); }

// OR of two ranges with TRUE/FALSE simplification.
ExprPtr OrRanges(ExprPtr a, ExprPtr b) {
  if (a == nullptr || b == nullptr) return nullptr;  // TRUE dominates
  if (IsFalseLiteral(a)) return b;
  if (IsFalseLiteral(b)) return a;
  return Or(std::move(a), std::move(b));
}

// AND of two ranges; nullptr = TRUE is the identity.
ExprPtr AndRanges(ExprPtr a, ExprPtr b) {
  if (a == nullptr) return b;
  if (b == nullptr) return a;
  if (IsFalseLiteral(a)) return a;
  if (IsFalseLiteral(b)) return b;
  return And(std::move(a), std::move(b));
}

// Rewrites `e` (over a node's output columns) into an expression over the
// group schema, using `pure_source` (output col -> group col or -1).
// Returns nullptr if any referenced column is not a pure pass-through or a
// correlated reference is present.
ExprPtr TryRemapToGroup(const Expr& e, const std::vector<int>& pure_source) {
  switch (e.kind()) {
    case ExprKind::kLiteral:
      return e.Clone();
    case ExprKind::kColumnRef: {
      const auto& ref = static_cast<const ColumnRefExpr&>(e);
      const int idx = ref.index();
      if (idx < 0 || static_cast<size_t>(idx) >= pure_source.size()) {
        return nullptr;
      }
      const int src = pure_source[static_cast<size_t>(idx)];
      if (src < 0) return nullptr;
      return std::make_unique<ColumnRefExpr>(src, ref.type(), ref.name());
    }
    case ExprKind::kCorrelatedColumnRef:
      return nullptr;
    case ExprKind::kUnary: {
      const auto& un = static_cast<const UnaryExpr&>(e);
      ExprPtr child = TryRemapToGroup(un.child(), pure_source);
      if (child == nullptr) return nullptr;
      return Unary(un.op(), std::move(child));
    }
    case ExprKind::kBinary: {
      const auto& bin = static_cast<const BinaryExpr&>(e);
      ExprPtr l = TryRemapToGroup(bin.left(), pure_source);
      if (l == nullptr) return nullptr;
      ExprPtr r = TryRemapToGroup(bin.right(), pure_source);
      if (r == nullptr) return nullptr;
      return Binary(bin.op(), std::move(l), std::move(r));
    }
  }
  return nullptr;
}

// Union of the provenance of every column `e` references.
void ExprProvenance(const Expr& e,
                    const std::vector<std::set<int>>& col_provenance,
                    const std::vector<const PgqInfo*>& outer_stack,
                    std::set<int>* out) {
  switch (e.kind()) {
    case ExprKind::kColumnRef: {
      const int idx = static_cast<const ColumnRefExpr&>(e).index();
      if (idx >= 0 && static_cast<size_t>(idx) < col_provenance.size()) {
        out->insert(col_provenance[static_cast<size_t>(idx)].begin(),
                    col_provenance[static_cast<size_t>(idx)].end());
      }
      return;
    }
    case ExprKind::kCorrelatedColumnRef: {
      const auto& ref = static_cast<const CorrelatedColumnRefExpr&>(e);
      const int d = ref.depth();
      if (d >= 0 && static_cast<size_t>(d) < outer_stack.size()) {
        const PgqInfo* outer =
            outer_stack[outer_stack.size() - 1 - static_cast<size_t>(d)];
        const int idx = ref.index();
        if (idx >= 0 &&
            static_cast<size_t>(idx) < outer->provenance.size()) {
          out->insert(outer->provenance[static_cast<size_t>(idx)].begin(),
                      outer->provenance[static_cast<size_t>(idx)].end());
        }
      }
      return;
    }
    case ExprKind::kUnary:
      ExprProvenance(static_cast<const UnaryExpr&>(e).child(), col_provenance,
                     outer_stack, out);
      return;
    case ExprKind::kBinary: {
      const auto& bin = static_cast<const BinaryExpr&>(e);
      ExprProvenance(bin.left(), col_provenance, outer_stack, out);
      ExprProvenance(bin.right(), col_provenance, outer_stack, out);
      return;
    }
    default:
      return;
  }
}

Result<PgqInfo> Analyze(const LogicalOp& node, const std::string& var,
                        int group_width,
                        std::vector<const PgqInfo*>* outer_stack);

// Shared plumbing: analyze child 0 and start from its info.
Result<PgqInfo> AnalyzeChild(const LogicalOp& node, const std::string& var,
                             int group_width,
                             std::vector<const PgqInfo*>* outer_stack) {
  return Analyze(*node.child(0), var, group_width, outer_stack);
}

Result<PgqInfo> Analyze(const LogicalOp& node, const std::string& var,
                        int group_width,
                        std::vector<const PgqInfo*>* outer_stack) {
  switch (node.type()) {
    case LogicalOpType::kGroupScan: {
      const auto& scan = static_cast<const LogicalGroupScan&>(node);
      PgqInfo info;
      const size_t n = scan.output_schema().num_columns();
      if (scan.var() == var) {
        if (static_cast<int>(n) != group_width) {
          return Status::Internal(
              "GroupScan width does not match group schema");
        }
        info.covering_range = nullptr;  // TRUE: needs the whole group
        info.pure_source.resize(n);
        info.provenance.resize(n);
        for (size_t i = 0; i < n; ++i) {
          info.pure_source[i] = static_cast<int>(i);
          info.provenance[i] = {static_cast<int>(i)};
        }
        info.empty_on_empty = true;
        return info;
      }
      // A different group variable (nested GApply) or unrelated relation:
      // reads none of OUR group's tuples, and produces output regardless of
      // our group being empty.
      info.covering_range = FalseRange();
      info.empty_on_empty = false;
      info.pure_source.assign(n, -1);
      info.provenance.assign(n, {});
      return info;
    }
    case LogicalOpType::kScan: {
      const auto& scan = static_cast<const LogicalScan&>(node);
      PgqInfo info;
      info.covering_range = FalseRange();
      info.empty_on_empty = false;
      const size_t n = scan.output_schema().num_columns();
      info.pure_source.assign(n, -1);
      info.provenance.assign(n, {});
      return info;
    }
    case LogicalOpType::kSelect: {
      const auto& sel = static_cast<const LogicalSelect&>(node);
      ASSIGN_OR_RETURN(PgqInfo info,
                       AnalyzeChild(node, var, group_width, outer_stack));
      std::set<int> cond_prov;
      ExprProvenance(sel.predicate(), info.provenance, *outer_stack,
                     &cond_prov);
      info.eval_columns.insert(cond_prov.begin(), cond_prov.end());
      info.used_columns.insert(cond_prov.begin(), cond_prov.end());
      // Covering range: AND the condition in only when the subtree has no
      // apply/groupby/aggregate and the condition is expressible over group
      // columns (§4.1).
      if (!info.blocking && !HasCorrelatedRef(sel.predicate())) {
        ExprPtr remapped =
            TryRemapToGroup(sel.predicate(), info.pure_source);
        if (remapped != nullptr) {
          info.covering_range = AndRanges(std::move(info.covering_range),
                                          std::move(remapped));
        }
      }
      return info;
    }
    case LogicalOpType::kProject: {
      const auto& proj = static_cast<const LogicalProject&>(node);
      ASSIGN_OR_RETURN(PgqInfo child,
                       AnalyzeChild(node, var, group_width, outer_stack));
      PgqInfo info = std::move(child);
      std::vector<int> pure;
      std::vector<std::set<int>> prov;
      for (const ExprPtr& e : proj.exprs()) {
        std::set<int> p;
        ExprProvenance(*e, info.provenance, *outer_stack, &p);
        info.used_columns.insert(p.begin(), p.end());
        prov.push_back(std::move(p));
        if (e->kind() == ExprKind::kColumnRef) {
          const int idx = static_cast<const ColumnRefExpr&>(*e).index();
          pure.push_back(info.pure_source[static_cast<size_t>(idx)]);
        } else {
          pure.push_back(-1);
        }
      }
      info.pure_source = std::move(pure);
      info.provenance = std::move(prov);
      return info;
    }
    case LogicalOpType::kDistinct: {
      ASSIGN_OR_RETURN(PgqInfo info,
                       AnalyzeChild(node, var, group_width, outer_stack));
      // Duplicate elimination inspects every output column: all of their
      // source columns are needed for evaluation, not just re-attachable.
      for (const std::set<int>& p : info.provenance) {
        info.eval_columns.insert(p.begin(), p.end());
        info.used_columns.insert(p.begin(), p.end());
      }
      return info;
    }
    case LogicalOpType::kOrderBy: {
      const auto& order = static_cast<const LogicalOrderBy&>(node);
      ASSIGN_OR_RETURN(PgqInfo info,
                       AnalyzeChild(node, var, group_width, outer_stack));
      for (const SortKey& k : order.keys()) {
        const std::set<int>& p =
            info.provenance[static_cast<size_t>(k.column)];
        info.eval_columns.insert(p.begin(), p.end());
        info.used_columns.insert(p.begin(), p.end());
      }
      return info;
    }
    case LogicalOpType::kGroupBy: {
      const auto& gb = static_cast<const LogicalGroupBy&>(node);
      ASSIGN_OR_RETURN(PgqInfo child,
                       AnalyzeChild(node, var, group_width, outer_stack));
      PgqInfo info;
      info.empty_on_empty = child.empty_on_empty;
      info.covering_range = std::move(child.covering_range);
      info.eval_columns = std::move(child.eval_columns);
      info.used_columns = std::move(child.used_columns);
      info.blocking = true;
      for (int k : gb.keys()) {
        const std::set<int>& p = child.provenance[static_cast<size_t>(k)];
        info.eval_columns.insert(p.begin(), p.end());
        info.used_columns.insert(p.begin(), p.end());
        info.pure_source.push_back(
            child.pure_source[static_cast<size_t>(k)]);
        info.provenance.push_back(p);
      }
      for (const AggregateDesc& a : gb.aggs()) {
        std::set<int> p;
        if (a.arg != nullptr) {
          ExprProvenance(*a.arg, child.provenance, *outer_stack, &p);
        }
        info.eval_columns.insert(p.begin(), p.end());
        info.used_columns.insert(p.begin(), p.end());
        info.pure_source.push_back(-1);
        info.provenance.push_back(std::move(p));
      }
      return info;
    }
    case LogicalOpType::kScalarAgg: {
      const auto& agg = static_cast<const LogicalScalarAgg&>(node);
      ASSIGN_OR_RETURN(PgqInfo child,
                       AnalyzeChild(node, var, group_width, outer_stack));
      PgqInfo info;
      info.empty_on_empty = false;  // aggregates emit a row on empty input
      info.covering_range = std::move(child.covering_range);
      info.eval_columns = std::move(child.eval_columns);
      info.used_columns = std::move(child.used_columns);
      info.blocking = true;
      for (const AggregateDesc& a : agg.aggs()) {
        std::set<int> p;
        if (a.arg != nullptr) {
          ExprProvenance(*a.arg, child.provenance, *outer_stack, &p);
        }
        info.eval_columns.insert(p.begin(), p.end());
        info.used_columns.insert(p.begin(), p.end());
        info.pure_source.push_back(-1);
        info.provenance.push_back(std::move(p));
      }
      return info;
    }
    case LogicalOpType::kExists: {
      ASSIGN_OR_RETURN(PgqInfo child,
                       AnalyzeChild(node, var, group_width, outer_stack));
      PgqInfo info;
      info.empty_on_empty = child.empty_on_empty;
      info.covering_range = std::move(child.covering_range);
      info.eval_columns = std::move(child.eval_columns);
      info.used_columns = std::move(child.used_columns);
      info.blocking = child.blocking;
      return info;  // null schema: no output columns
    }
    case LogicalOpType::kApply: {
      const auto& apply = static_cast<const LogicalApply&>(node);
      ASSIGN_OR_RETURN(PgqInfo outer,
                       Analyze(*apply.outer(), var, group_width, outer_stack));
      outer_stack->push_back(&outer);
      Result<PgqInfo> inner_r =
          Analyze(*apply.inner(), var, group_width, outer_stack);
      outer_stack->pop_back();
      RETURN_NOT_OK(inner_r.status());
      PgqInfo inner = std::move(inner_r).value();

      PgqInfo info;
      info.empty_on_empty = outer.empty_on_empty;  // paper: outer child's
      info.covering_range = OrRanges(std::move(outer.covering_range),
                                     std::move(inner.covering_range));
      info.eval_columns = outer.eval_columns;
      info.eval_columns.insert(inner.eval_columns.begin(),
                               inner.eval_columns.end());
      info.used_columns = outer.used_columns;
      info.used_columns.insert(inner.used_columns.begin(),
                               inner.used_columns.end());
      info.blocking = true;
      info.pure_source = outer.pure_source;
      info.pure_source.insert(info.pure_source.end(),
                              inner.pure_source.begin(),
                              inner.pure_source.end());
      info.provenance = outer.provenance;
      info.provenance.insert(info.provenance.end(), inner.provenance.begin(),
                             inner.provenance.end());
      return info;
    }
    case LogicalOpType::kUnionAll: {
      PgqInfo info;
      info.empty_on_empty = true;
      info.covering_range = FalseRange();
      bool first = true;
      for (size_t i = 0; i < node.num_children(); ++i) {
        ASSIGN_OR_RETURN(
            PgqInfo child,
            Analyze(*node.child(i), var, group_width, outer_stack));
        info.empty_on_empty = info.empty_on_empty && child.empty_on_empty;
        info.covering_range = OrRanges(std::move(info.covering_range),
                                       std::move(child.covering_range));
        info.eval_columns.insert(child.eval_columns.begin(),
                                 child.eval_columns.end());
        info.used_columns.insert(child.used_columns.begin(),
                                 child.used_columns.end());
        info.blocking = info.blocking || child.blocking;
        if (first) {
          info.pure_source = child.pure_source;
          info.provenance = child.provenance;
          first = false;
        } else {
          for (size_t c = 0; c < info.pure_source.size() &&
                             c < child.pure_source.size();
               ++c) {
            if (info.pure_source[c] != child.pure_source[c]) {
              info.pure_source[c] = -1;
            }
            info.provenance[c].insert(child.provenance[c].begin(),
                                      child.provenance[c].end());
          }
        }
      }
      return info;
    }
    case LogicalOpType::kGApply: {
      // Nested groupwise processing inside the per-group query.
      const auto& ga = static_cast<const LogicalGApply&>(node);
      ASSIGN_OR_RETURN(PgqInfo outer,
                       Analyze(*ga.outer(), var, group_width, outer_stack));
      // Analyze the nested PGQ against the *nested* group variable to learn
      // which nested-group columns it needs, then translate through the
      // nested outer's provenance.
      ASSIGN_OR_RETURN(
          PgqInfo nested,
          AnalyzePgq(*ga.pgq(), ga.var(),
                     static_cast<int>(ga.outer()->output_schema()
                                          .num_columns())));
      PgqInfo info;
      info.empty_on_empty = outer.empty_on_empty;
      info.covering_range = std::move(outer.covering_range);
      info.eval_columns = outer.eval_columns;
      info.used_columns = outer.used_columns;
      info.blocking = true;
      auto translate = [&outer](const std::set<int>& nested_cols,
                                std::set<int>* out) {
        for (int c : nested_cols) {
          const std::set<int>& p = outer.provenance[static_cast<size_t>(c)];
          out->insert(p.begin(), p.end());
        }
      };
      translate(nested.eval_columns, &info.eval_columns);
      translate(nested.used_columns, &info.used_columns);
      // Output: grouping columns then nested PGQ output.
      for (int g : ga.grouping_columns()) {
        info.pure_source.push_back(outer.pure_source[static_cast<size_t>(g)]);
        info.provenance.push_back(outer.provenance[static_cast<size_t>(g)]);
      }
      for (const std::set<int>& p : nested.provenance) {
        std::set<int> mapped;
        translate(p, &mapped);
        info.pure_source.push_back(-1);
        info.provenance.push_back(std::move(mapped));
      }
      return info;
    }
    case LogicalOpType::kJoin:
      return Status::NotImplemented(
          "join inside a per-group query is outside the paper's PGQ "
          "operator set");
  }
  return Status::Internal("unknown operator in PGQ analysis");
}

}  // namespace

Result<PgqInfo> AnalyzePgq(const LogicalOp& pgq, const std::string& var,
                           int group_width) {
  std::vector<const PgqInfo*> outer_stack;
  ASSIGN_OR_RETURN(PgqInfo info, Analyze(pgq, var, group_width, &outer_stack));
  // Pass-through output columns are "used" (they flow out of the PGQ).
  for (const std::set<int>& p : info.provenance) {
    info.used_columns.insert(p.begin(), p.end());
  }
  return info;
}

// ---------------------------------------------------------------------------
// RemapExprTree
// ---------------------------------------------------------------------------

Result<ExprPtr> RemapExprTree(
    const Expr& expr, const std::vector<int>& mapping,
    const std::vector<const std::vector<int>*>& outer_mappings) {
  switch (expr.kind()) {
    case ExprKind::kLiteral:
      return expr.Clone();
    case ExprKind::kColumnRef: {
      const auto& ref = static_cast<const ColumnRefExpr&>(expr);
      const int idx = ref.index();
      if (idx < 0 || static_cast<size_t>(idx) >= mapping.size() ||
          mapping[static_cast<size_t>(idx)] < 0) {
        return Status::InvalidArgument(
            "column " + ref.name() + " was pruned but is still referenced");
      }
      return ExprPtr(std::make_unique<ColumnRefExpr>(
          mapping[static_cast<size_t>(idx)], ref.type(), ref.name()));
    }
    case ExprKind::kCorrelatedColumnRef: {
      const auto& ref = static_cast<const CorrelatedColumnRefExpr&>(expr);
      const int d = ref.depth();
      if (d < 0 || static_cast<size_t>(d) >= outer_mappings.size()) {
        return expr.Clone();  // refers outside the remapped region
      }
      const std::vector<int>* m =
          outer_mappings[outer_mappings.size() - 1 - static_cast<size_t>(d)];
      if (m == nullptr) return expr.Clone();
      const int idx = ref.index();
      if (idx < 0 || static_cast<size_t>(idx) >= m->size() ||
          (*m)[static_cast<size_t>(idx)] < 0) {
        return Status::InvalidArgument(
            "correlated column was pruned but is still referenced");
      }
      return ExprPtr(std::make_unique<CorrelatedColumnRefExpr>(
          d, (*m)[static_cast<size_t>(idx)], ref.type(), ref.name()));
    }
    case ExprKind::kUnary: {
      const auto& un = static_cast<const UnaryExpr&>(expr);
      ASSIGN_OR_RETURN(ExprPtr child,
                       RemapExprTree(un.child(), mapping, outer_mappings));
      return ExprPtr(Unary(un.op(), std::move(child)));
    }
    case ExprKind::kBinary: {
      const auto& bin = static_cast<const BinaryExpr&>(expr);
      ASSIGN_OR_RETURN(ExprPtr l,
                       RemapExprTree(bin.left(), mapping, outer_mappings));
      ASSIGN_OR_RETURN(ExprPtr r,
                       RemapExprTree(bin.right(), mapping, outer_mappings));
      return ExprPtr(Binary(bin.op(), std::move(l), std::move(r)));
    }
  }
  return Status::Internal("unknown expression kind in remap");
}

// ---------------------------------------------------------------------------
// RemapPgq
// ---------------------------------------------------------------------------

namespace {

struct NodeRemap {
  LogicalOpPtr plan;
  std::vector<int> mapping;         // old out col -> new out col, -1 dropped
  std::vector<int> pure_old;        // old out col -> OLD group col or -1
  std::vector<int> dropped_source;  // old out col -> OLD group col iff dropped
};

struct RemapEnv {
  // var -> (new group schema, old->new group mapping)
  std::map<std::string, std::pair<const Schema*, const std::vector<int>*>>
      vars;
  // Apply outer-output mappings for correlated references (innermost last).
  std::vector<const std::vector<int>*> outer_mappings;
};

std::vector<int> IdentityMapping(size_t n) {
  std::vector<int> m(n);
  for (size_t i = 0; i < n; ++i) m[i] = static_cast<int>(i);
  return m;
}

bool NoDrops(const std::vector<int>& mapping) {
  for (int m : mapping) {
    if (m < 0) return false;
  }
  return true;
}

Result<NodeRemap> Remap(const LogicalOp& node, RemapEnv* env,
                        bool allow_drop);

Result<std::vector<AggregateDesc>> RemapAggs(
    const std::vector<AggregateDesc>& aggs, const NodeRemap& child,
    const RemapEnv& env) {
  std::vector<AggregateDesc> out;
  out.reserve(aggs.size());
  for (const AggregateDesc& a : aggs) {
    AggregateDesc copy;
    copy.kind = a.kind;
    copy.distinct = a.distinct;
    copy.output_name = a.output_name;
    if (a.arg != nullptr) {
      ASSIGN_OR_RETURN(copy.arg, RemapExprTree(*a.arg, child.mapping,
                                               env.outer_mappings));
    }
    out.push_back(std::move(copy));
  }
  return out;
}

Result<NodeRemap> Remap(const LogicalOp& node, RemapEnv* env,
                        bool allow_drop) {
  switch (node.type()) {
    case LogicalOpType::kGroupScan: {
      const auto& scan = static_cast<const LogicalGroupScan&>(node);
      NodeRemap out;
      auto it = env->vars.find(scan.var());
      if (it == env->vars.end()) {
        out.plan = scan.Clone();
        out.mapping = IdentityMapping(scan.output_schema().num_columns());
        out.pure_old.assign(scan.output_schema().num_columns(), -1);
        out.dropped_source.assign(scan.output_schema().num_columns(), -1);
        return out;
      }
      const Schema* new_schema = it->second.first;
      const std::vector<int>* g_map = it->second.second;
      out.plan = std::make_unique<LogicalGroupScan>(scan.var(), *new_schema);
      out.mapping = *g_map;
      out.pure_old = IdentityMapping(g_map->size());
      out.dropped_source.assign(g_map->size(), -1);
      // A pruned group column simply no longer exists in the binding; it is
      // an error only if something downstream still references it (checked
      // where references are remapped).
      for (size_t i = 0; i < g_map->size(); ++i) {
        if ((*g_map)[i] < 0) out.dropped_source[i] = static_cast<int>(i);
      }
      return out;
    }
    case LogicalOpType::kScan: {
      NodeRemap out;
      out.plan = node.Clone();
      out.mapping = IdentityMapping(node.output_schema().num_columns());
      out.pure_old.assign(node.output_schema().num_columns(), -1);
      out.dropped_source.assign(node.output_schema().num_columns(), -1);
      return out;
    }
    case LogicalOpType::kSelect: {
      const auto& sel = static_cast<const LogicalSelect&>(node);
      ASSIGN_OR_RETURN(NodeRemap child, Remap(*node.child(0), env, allow_drop));
      ASSIGN_OR_RETURN(
          ExprPtr pred,
          RemapExprTree(sel.predicate(), child.mapping, env->outer_mappings));
      NodeRemap out;
      out.mapping = child.mapping;
      out.pure_old = child.pure_old;
      out.dropped_source = child.dropped_source;
      out.plan = std::make_unique<LogicalSelect>(std::move(child.plan),
                                                 std::move(pred));
      return out;
    }
    case LogicalOpType::kProject: {
      const auto& proj = static_cast<const LogicalProject&>(node);
      ASSIGN_OR_RETURN(NodeRemap child, Remap(*node.child(0), env, allow_drop));
      NodeRemap out;
      std::vector<ExprPtr> exprs;
      std::vector<std::string> names;
      int next = 0;
      for (size_t i = 0; i < proj.exprs().size(); ++i) {
        const Expr& e = *proj.exprs()[i];
        Result<ExprPtr> remapped =
            RemapExprTree(e, child.mapping, env->outer_mappings);
        if (remapped.ok()) {
          exprs.push_back(std::move(*remapped));
          names.push_back(proj.names()[i]);
          out.mapping.push_back(next++);
          out.pure_old.push_back(
              e.kind() == ExprKind::kColumnRef
                  ? child.pure_old[static_cast<size_t>(
                        static_cast<const ColumnRefExpr&>(e).index())]
                  : -1);
          out.dropped_source.push_back(-1);
          continue;
        }
        // Reference to a pruned column: droppable only for pure
        // pass-throughs of group columns (§4.3's adapted per-group query).
        if (allow_drop && e.kind() == ExprKind::kColumnRef) {
          const int idx = static_cast<const ColumnRefExpr&>(e).index();
          const int src = child.pure_old[static_cast<size_t>(idx)];
          if (src >= 0) {
            out.mapping.push_back(-1);
            out.pure_old.push_back(src);
            out.dropped_source.push_back(src);
            continue;
          }
        }
        return remapped.status();
      }
      out.plan = std::make_unique<LogicalProject>(
          std::move(child.plan), std::move(exprs), std::move(names));
      return out;
    }
    case LogicalOpType::kDistinct: {
      ASSIGN_OR_RETURN(NodeRemap child,
                       Remap(*node.child(0), env, /*allow_drop=*/false));
      if (!NoDrops(child.mapping)) {
        return Status::InvalidArgument(
            "cannot prune columns under Distinct (duplicate semantics "
            "would change)");
      }
      NodeRemap out;
      out.mapping = child.mapping;
      out.pure_old = child.pure_old;
      out.dropped_source = child.dropped_source;
      out.plan = std::make_unique<LogicalDistinct>(std::move(child.plan));
      return out;
    }
    case LogicalOpType::kOrderBy: {
      const auto& order = static_cast<const LogicalOrderBy&>(node);
      ASSIGN_OR_RETURN(NodeRemap child, Remap(*node.child(0), env, allow_drop));
      std::vector<SortKey> keys;
      for (const SortKey& k : order.keys()) {
        const int m = child.mapping[static_cast<size_t>(k.column)];
        if (m < 0) {
          return Status::InvalidArgument("ordering column was pruned");
        }
        keys.push_back({m, k.ascending});
      }
      NodeRemap out;
      out.mapping = child.mapping;
      out.pure_old = child.pure_old;
      out.dropped_source = child.dropped_source;
      out.plan = std::make_unique<LogicalOrderBy>(std::move(child.plan),
                                                  std::move(keys));
      return out;
    }
    case LogicalOpType::kGroupBy: {
      const auto& gb = static_cast<const LogicalGroupBy&>(node);
      ASSIGN_OR_RETURN(NodeRemap child, Remap(*node.child(0), env, allow_drop));
      std::vector<int> keys;
      NodeRemap out;
      for (int k : gb.keys()) {
        const int m = child.mapping[static_cast<size_t>(k)];
        if (m < 0) {
          return Status::InvalidArgument("grouping column was pruned");
        }
        keys.push_back(m);
        out.pure_old.push_back(child.pure_old[static_cast<size_t>(k)]);
      }
      ASSIGN_OR_RETURN(std::vector<AggregateDesc> aggs,
                       RemapAggs(gb.aggs(), child, *env));
      for (size_t i = 0; i < aggs.size(); ++i) out.pure_old.push_back(-1);
      out.mapping = IdentityMapping(keys.size() + aggs.size());
      out.dropped_source.assign(out.mapping.size(), -1);
      out.plan = std::make_unique<LogicalGroupBy>(std::move(child.plan),
                                                  std::move(keys),
                                                  std::move(aggs));
      return out;
    }
    case LogicalOpType::kScalarAgg: {
      const auto& agg = static_cast<const LogicalScalarAgg&>(node);
      ASSIGN_OR_RETURN(NodeRemap child, Remap(*node.child(0), env, allow_drop));
      ASSIGN_OR_RETURN(std::vector<AggregateDesc> aggs,
                       RemapAggs(agg.aggs(), child, *env));
      NodeRemap out;
      out.mapping = IdentityMapping(aggs.size());
      out.pure_old.assign(aggs.size(), -1);
      out.dropped_source.assign(aggs.size(), -1);
      out.plan = std::make_unique<LogicalScalarAgg>(std::move(child.plan),
                                                    std::move(aggs));
      return out;
    }
    case LogicalOpType::kExists: {
      const auto& ex = static_cast<const LogicalExists&>(node);
      ASSIGN_OR_RETURN(NodeRemap child, Remap(*node.child(0), env, allow_drop));
      NodeRemap out;
      out.plan = std::make_unique<LogicalExists>(std::move(child.plan),
                                                 ex.negated());
      return out;  // null schema
    }
    case LogicalOpType::kApply: {
      ASSIGN_OR_RETURN(NodeRemap outer, Remap(*node.child(0), env, allow_drop));
      env->outer_mappings.push_back(&outer.mapping);
      Result<NodeRemap> inner_r = Remap(*node.child(1), env, allow_drop);
      env->outer_mappings.pop_back();
      RETURN_NOT_OK(inner_r.status());
      NodeRemap inner = std::move(inner_r).value();

      const int new_outer_width = static_cast<int>(
          outer.plan->output_schema().num_columns());
      NodeRemap out;
      out.mapping = outer.mapping;
      for (int m : inner.mapping) {
        out.mapping.push_back(m < 0 ? -1 : new_outer_width + m);
      }
      out.pure_old = outer.pure_old;
      out.pure_old.insert(out.pure_old.end(), inner.pure_old.begin(),
                          inner.pure_old.end());
      out.dropped_source = outer.dropped_source;
      out.dropped_source.insert(out.dropped_source.end(),
                                inner.dropped_source.begin(),
                                inner.dropped_source.end());
      out.plan = std::make_unique<LogicalApply>(std::move(outer.plan),
                                                std::move(inner.plan));
      return out;
    }
    case LogicalOpType::kUnionAll: {
      std::vector<LogicalOpPtr> kids;
      NodeRemap out;
      bool first = true;
      for (size_t i = 0; i < node.num_children(); ++i) {
        ASSIGN_OR_RETURN(NodeRemap child,
                         Remap(*node.child(i), env, allow_drop));
        if (first) {
          out.mapping = child.mapping;
          out.pure_old = child.pure_old;
          out.dropped_source = child.dropped_source;
          first = false;
        } else if (out.mapping != child.mapping) {
          return Status::InvalidArgument(
              "union branches would prune different column positions");
        }
        kids.push_back(std::move(child.plan));
      }
      ASSIGN_OR_RETURN(LogicalOpPtr u, LogicalUnionAll::Make(std::move(kids)));
      out.plan = std::move(u);
      return out;
    }
    case LogicalOpType::kGApply: {
      const auto& ga = static_cast<const LogicalGApply&>(node);
      ASSIGN_OR_RETURN(NodeRemap outer, Remap(*node.child(0), env, allow_drop));
      std::vector<int> gcols;
      NodeRemap out;
      for (int g : ga.grouping_columns()) {
        const int m = outer.mapping[static_cast<size_t>(g)];
        if (m < 0) {
          return Status::InvalidArgument(
              "nested GApply grouping column was pruned");
        }
        gcols.push_back(m);
        out.pure_old.push_back(outer.pure_old[static_cast<size_t>(g)]);
      }
      // Rewrite the nested PGQ against the nested group's new schema.
      RemapEnv nested_env = *env;
      const Schema& nested_schema = outer.plan->output_schema();
      nested_env.vars[ga.var()] = {&nested_schema, &outer.mapping};
      ASSIGN_OR_RETURN(NodeRemap pgq, Remap(*ga.pgq(), &nested_env,
                                            /*allow_drop=*/false));
      if (!NoDrops(pgq.mapping)) {
        return Status::InvalidArgument(
            "nested GApply per-group query would lose columns");
      }
      for (size_t i = 0; i < pgq.mapping.size(); ++i) {
        out.pure_old.push_back(-1);
      }
      out.mapping = IdentityMapping(gcols.size() + pgq.mapping.size());
      out.dropped_source.assign(out.mapping.size(), -1);
      out.plan = std::make_unique<LogicalGApply>(
          std::move(outer.plan), std::move(gcols), ga.var(),
          std::move(pgq.plan), ga.mode());
      return out;
    }
    case LogicalOpType::kJoin:
      return Status::NotImplemented("join inside a per-group query");
  }
  return Status::Internal("unknown operator in PGQ remap");
}

}  // namespace

Result<RemappedPgq> RemapPgq(const LogicalOp& pgq, const std::string& var,
                             const Schema& new_group_schema,
                             const std::vector<int>& group_old_to_new,
                             bool allow_dropping_passthrough) {
  RemapEnv env;
  env.vars[var] = {&new_group_schema, &group_old_to_new};
  ASSIGN_OR_RETURN(NodeRemap node,
                   Remap(pgq, &env, allow_dropping_passthrough));
  RemappedPgq out;
  out.plan = std::move(node.plan);
  out.output_mapping = std::move(node.mapping);
  out.dropped_group_source = std::move(node.dropped_source);
  return out;
}

}  // namespace gapply::core
