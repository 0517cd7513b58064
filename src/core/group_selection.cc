#include "src/core/analyses.h"
#include "src/core/rules.h"
#include "src/plan/plan_utils.h"

namespace gapply::core {

namespace {

bool IsGroupScanOf(const LogicalOp& op, const std::string& var) {
  return op.type() == LogicalOpType::kGroupScan &&
         static_cast<const LogicalGroupScan&>(op).var() == var;
}

// Walks down a [Project | Select]* chain to `GroupScan($var)`, collecting
// the conjunction of the Select predicates found *below every Project* (so
// they are expressed over the group schema). Selects above a Project (whose
// predicates would reference projected columns) fail the match. Projections
// are transparent for existence tests. Returns false on mismatch.
bool MatchExistsProbe(const LogicalOp* op, const std::string& var,
                      ExprPtr* combined) {
  bool seen_project = false;
  while (true) {
    if (op->type() == LogicalOpType::kProject) {
      seen_project = true;
      op = op->child(0);
      continue;
    }
    if (op->type() == LogicalOpType::kSelect) {
      const auto* sel = static_cast<const LogicalSelect*>(op);
      if (HasCorrelatedRef(sel->predicate())) return false;
      // A Select above a Project references projected columns; only the
      // below-Project selects are group-schema predicates. The binder
      // always produces Project(Select(GroupScan)), so require that order.
      ExprPtr pred = sel->predicate().Clone();
      *combined = *combined == nullptr
                      ? std::move(pred)
                      : And(std::move(*combined), std::move(pred));
      op = op->child(0);
      // Selects must not appear above a projection of the scan; they would
      // be over projected columns. Once below, further selects are fine.
      continue;
    }
    break;
  }
  (void)seen_project;
  return IsGroupScanOf(*op, var) && *combined != nullptr;
}

// Matches inner = [Project]* ScalarAgg(GroupScan($var)). On success fills
// `agg` and `inner_out_to_agg`: inner output column -> aggregate ordinal
// (identity when no projection; -1 for computed projection outputs).
bool MatchScalarAggProbe(const LogicalOp* op, const std::string& var,
                         const LogicalScalarAgg** agg,
                         std::vector<int>* inner_out_to_agg) {
  std::vector<const LogicalProject*> projects;
  while (op->type() == LogicalOpType::kProject) {
    projects.push_back(static_cast<const LogicalProject*>(op));
    op = op->child(0);
  }
  if (op->type() != LogicalOpType::kScalarAgg) return false;
  const auto* scalar = static_cast<const LogicalScalarAgg*>(op);
  if (!IsGroupScanOf(*scalar->child(0), var)) return false;

  // Compose the projection chain bottom-up into output→aggregate mapping.
  std::vector<int> mapping(scalar->aggs().size());
  for (size_t i = 0; i < mapping.size(); ++i) mapping[i] = static_cast<int>(i);
  for (auto it = projects.rbegin(); it != projects.rend(); ++it) {
    std::vector<int> next;
    for (const ExprPtr& e : (*it)->exprs()) {
      if (e->kind() == ExprKind::kColumnRef) {
        const int idx = static_cast<const ColumnRefExpr&>(*e).index();
        next.push_back(mapping[static_cast<size_t>(idx)]);
      } else {
        next.push_back(-1);
      }
    }
    mapping = std::move(next);
  }
  *agg = scalar;
  *inner_out_to_agg = std::move(mapping);
  return true;
}

Result<bool> RewriteIsCheaper(const LogicalOp& original,
                              const LogicalOp& rewrite,
                              OptimizerContext* ctx) {
  if (!ctx->cost_gate || ctx->cost_model == nullptr) return true;
  ASSIGN_OR_RETURN(PlanEstimate before, ctx->cost_model->Estimate(original));
  ASSIGN_OR_RETURN(PlanEstimate after, ctx->cost_model->Estimate(rewrite));
  return after.cost < before.cost;
}

// Join(T, qualifying_keys) on the grouping columns: reconstructs the
// qualifying groups. The key set goes on the right so the hash join builds
// on the (usually tiny) set of qualifying group ids and streams T past it —
// the cheap direction the paper's two-phase plan implies.
//
// The join must be null-safe (IS NOT DISTINCT FROM): GApply partitions like
// GROUP BY, where NULL grouping keys compare equal and form a real group. A
// plain SQL equi-join silently drops every NULL-keyed group — a bug the
// differential fuzzer caught (gapply_fuzz --seed=6555: a NULL-keyed group
// vanished from the rewritten side under rule:GroupSelectionExists).
LogicalOpPtr ReconstructGroups(LogicalOpPtr keys, LogicalOpPtr t,
                               const std::vector<int>& gcols) {
  std::vector<int> rk;
  for (size_t i = 0; i < gcols.size(); ++i) rk.push_back(static_cast<int>(i));
  return std::make_unique<LogicalJoin>(std::move(t), std::move(keys), gcols,
                                       rk, /*residual=*/nullptr,
                                       /*null_safe=*/true);
}

// Matches the optional outer wrapper the SQL binder puts around the whole
// PGQ: a Project whose every expression is a pure reference to a group
// column (index < group_width). Returns the node below and the referenced
// group columns in output order (empty mapping when there is no wrapper).
const LogicalOp* StripRestoreProject(const LogicalOp* pgq, int group_width,
                                     std::vector<int>* out_cols,
                                     bool* matched) {
  *matched = false;
  if (pgq->type() != LogicalOpType::kProject) return pgq;
  const auto* proj = static_cast<const LogicalProject*>(pgq);
  std::vector<int> cols;
  for (const ExprPtr& e : proj->exprs()) {
    if (e->kind() != ExprKind::kColumnRef) return pgq;
    const int idx = static_cast<const ColumnRefExpr&>(*e).index();
    if (idx >= group_width) return pgq;
    cols.push_back(idx);
  }
  *out_cols = std::move(cols);
  *matched = true;
  return pgq->child(0);
}

}  // namespace

Result<bool> GroupSelectionExistsRule::Apply(LogicalOpPtr* node,
                                             OptimizerContext* ctx) {
  if ((*node)->type() != LogicalOpType::kGApply) return false;
  // The rewrite introduces a Join; the paper's PGQ operator set has none,
  // so firing on a GApply nested inside another GApply's per-group query
  // produces an unlowerable plan (found by the differential fuzzer,
  // gapply_fuzz --seed=7631).
  if (ctx->in_pgq) return false;
  auto* gapply = static_cast<LogicalGApply*>(node->get());
  const int group_width = static_cast<int>(
      gapply->outer()->output_schema().num_columns());

  // Shape: [restore-Project] Apply(GroupScan($g), Exists(probe)).
  std::vector<int> restore;
  bool has_restore = false;
  const LogicalOp* body = StripRestoreProject(gapply->pgq(), group_width,
                                              &restore, &has_restore);
  if (body->type() != LogicalOpType::kApply) return false;
  const auto* apply = static_cast<const LogicalApply*>(body);
  if (!IsGroupScanOf(*apply->outer(), gapply->var())) return false;
  if (apply->inner()->type() != LogicalOpType::kExists) return false;
  const auto* exists = static_cast<const LogicalExists*>(apply->inner());
  if (exists->negated()) return false;

  ExprPtr selection;
  if (!MatchExistsProbe(exists->child(0), gapply->var(), &selection)) {
    return false;
  }

  // Rewrite: Join_C(Distinct(π_C(σ_S(T))), T) [+ restore projection].
  const LogicalOp& t = *gapply->outer();
  const Schema& t_schema = t.output_schema();
  const std::vector<int>& gcols = gapply->grouping_columns();
  std::vector<ExprPtr> key_exprs;
  std::vector<std::string> key_names;
  for (int g : gcols) {
    key_exprs.push_back(Col(t_schema, g));
    key_names.push_back(t_schema.column(static_cast<size_t>(g)).name);
  }
  LogicalOpPtr qualifying = std::make_unique<LogicalDistinct>(
      std::make_unique<LogicalProject>(
          std::make_unique<LogicalSelect>(t.Clone(), std::move(selection)),
          std::move(key_exprs), std::move(key_names)));
  LogicalOpPtr rewrite =
      ReconstructGroups(std::move(qualifying), t.Clone(), gcols);

  // Restore the original output schema: gcols from the join's left side,
  // then the PGQ outputs from the re-joined T columns.
  // The join output is T's columns followed by the key columns; everything
  // the original GApply output needs lives in the T prefix.
  const Schema& original = (*node)->output_schema();
  const size_t ngc = gcols.size();
  std::vector<ExprPtr> out_exprs;
  std::vector<std::string> out_names;
  const Schema& joined = rewrite->output_schema();
  for (size_t j = 0; j < original.num_columns(); ++j) {
    int pos;
    if (j < ngc) {
      pos = gcols[j];
    } else if (has_restore) {
      pos = restore[j - ngc];
    } else {
      pos = static_cast<int>(j - ngc);  // pgq output == group columns
    }
    out_exprs.push_back(Col(joined, pos));
    out_names.push_back(original.column(j).name);
  }
  rewrite = std::make_unique<LogicalProject>(
      std::move(rewrite), std::move(out_exprs), std::move(out_names));

  ASSIGN_OR_RETURN(bool cheaper, RewriteIsCheaper(**node, *rewrite, ctx));
  if (!cheaper) return false;
  *node = std::move(rewrite);
  return true;
}

Result<bool> GroupSelectionAggregateRule::Apply(LogicalOpPtr* node,
                                                OptimizerContext* ctx) {
  if ((*node)->type() != LogicalOpType::kGApply) return false;
  // Same PGQ guard as GroupSelectionExistsRule: no Join inside a PGQ.
  if (ctx->in_pgq) return false;
  auto* gapply = static_cast<LogicalGApply*>(node->get());
  const int group_width = static_cast<int>(
      gapply->outer()->output_schema().num_columns());
  const std::vector<int>& gcols = gapply->grouping_columns();
  const size_t ngc = gcols.size();

  // Two accepted shapes:
  //  (1) algebraic:  Apply(GroupScan, Exists(σ_P(ScalarAgg-probe)))
  //  (2) SQL binder: [restore-Project] σ_P(Apply(GroupScan,
  //                  ScalarAgg-probe)) where P references only appended
  //                  aggregate columns.
  const LogicalScalarAgg* agg = nullptr;
  std::vector<int> inner_out_to_agg;
  ExprPtr condition;            // over the aggregate outputs (remapped)
  std::vector<int> restore;     // restore projection (shape 2)
  bool has_restore = false;

  const LogicalOp* body = StripRestoreProject(gapply->pgq(), group_width,
                                              &restore, &has_restore);
  if (body->type() == LogicalOpType::kApply) {
    // Shape 1.
    const auto* apply = static_cast<const LogicalApply*>(body);
    if (!IsGroupScanOf(*apply->outer(), gapply->var())) return false;
    if (apply->inner()->type() != LogicalOpType::kExists) return false;
    const auto* exists = static_cast<const LogicalExists*>(apply->inner());
    if (exists->negated()) return false;
    // Exists child: Select chain over the ScalarAgg probe.
    const LogicalOp* probe = exists->child(0);
    ExprPtr combined;
    while (probe->type() == LogicalOpType::kSelect) {
      const auto* sel = static_cast<const LogicalSelect*>(probe);
      if (HasCorrelatedRef(sel->predicate())) return false;
      ExprPtr pred = sel->predicate().Clone();
      combined = combined == nullptr
                     ? std::move(pred)
                     : And(std::move(combined), std::move(pred));
      probe = probe->child(0);
    }
    if (combined == nullptr) return false;
    if (!MatchScalarAggProbe(probe, gapply->var(), &agg,
                             &inner_out_to_agg)) {
      return false;
    }
    // Condition references the probe's outputs directly.
    std::vector<int> to_agg = inner_out_to_agg;
    Result<ExprPtr> remapped = RemapExprTree(*combined, to_agg, {});
    if (!remapped.ok()) return false;
    condition = std::move(*remapped);
  } else if (body->type() == LogicalOpType::kSelect) {
    // Shape 2.
    ExprPtr combined;
    const LogicalOp* below = body;
    while (below->type() == LogicalOpType::kSelect) {
      const auto* sel = static_cast<const LogicalSelect*>(below);
      if (HasCorrelatedRef(sel->predicate())) return false;
      ExprPtr pred = sel->predicate().Clone();
      combined = combined == nullptr
                     ? std::move(pred)
                     : And(std::move(combined), std::move(pred));
      below = below->child(0);
    }
    if (below->type() != LogicalOpType::kApply) return false;
    const auto* apply = static_cast<const LogicalApply*>(below);
    if (!IsGroupScanOf(*apply->outer(), gapply->var())) return false;
    if (!MatchScalarAggProbe(apply->inner(), gapply->var(), &agg,
                             &inner_out_to_agg)) {
      return false;
    }
    if (!has_restore) return false;  // aggregate columns would leak out
    // The condition is over Apply output (group cols ++ probe output);
    // remap probe columns to aggregate ordinals, reject group-column refs
    // (those would be per-row, not per-group, conditions).
    std::vector<int> to_agg(static_cast<size_t>(group_width), -1);
    for (int m : inner_out_to_agg) to_agg.push_back(m);
    Result<ExprPtr> remapped = RemapExprTree(*combined, to_agg, {});
    if (!remapped.ok()) return false;
    condition = std::move(*remapped);
  } else {
    return false;
  }

  // Rewrite: π_C(σ_P'(GroupBy_{C,aggs}(T))) ⋈_C T [+ restore projection],
  // where P' shifts aggregate ordinals past the key columns.
  std::vector<AggregateDesc> aggs;
  for (const AggregateDesc& a : agg->aggs()) aggs.push_back(a.Clone());
  const LogicalOp& t = *gapply->outer();
  LogicalOpPtr grouped = std::make_unique<LogicalGroupBy>(t.Clone(), gcols,
                                                          std::move(aggs));
  std::vector<int> shift(agg->aggs().size());
  for (size_t i = 0; i < shift.size(); ++i) {
    shift[i] = static_cast<int>(ngc + i);
  }
  ASSIGN_OR_RETURN(ExprPtr shifted, RemapExprTree(*condition, shift, {}));
  LogicalOpPtr filtered = std::make_unique<LogicalSelect>(std::move(grouped),
                                                          std::move(shifted));
  const Schema& f_schema = filtered->output_schema();
  std::vector<ExprPtr> key_exprs;
  std::vector<std::string> key_names;
  for (size_t i = 0; i < ngc; ++i) {
    key_exprs.push_back(Col(f_schema, static_cast<int>(i)));
    key_names.push_back(f_schema.column(i).name);
  }
  LogicalOpPtr keys = std::make_unique<LogicalProject>(
      std::move(filtered), std::move(key_exprs), std::move(key_names));
  LogicalOpPtr rewrite = ReconstructGroups(std::move(keys), t.Clone(), gcols);

  // Join output = T's columns ++ key columns (see ReconstructGroups).
  const Schema& original = (*node)->output_schema();
  const Schema& joined = rewrite->output_schema();
  std::vector<ExprPtr> out_exprs;
  std::vector<std::string> out_names;
  for (size_t j = 0; j < original.num_columns(); ++j) {
    int pos;
    if (j < ngc) {
      pos = gcols[j];
    } else if (has_restore) {
      pos = restore[j - ngc];
    } else {
      pos = static_cast<int>(j - ngc);
    }
    out_exprs.push_back(Col(joined, pos));
    out_names.push_back(original.column(j).name);
  }
  rewrite = std::make_unique<LogicalProject>(
      std::move(rewrite), std::move(out_exprs), std::move(out_names));

  ASSIGN_OR_RETURN(bool cheaper, RewriteIsCheaper(**node, *rewrite, ctx));
  if (!cheaper) return false;
  *node = std::move(rewrite);
  return true;
}

}  // namespace gapply::core
