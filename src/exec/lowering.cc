#include "src/exec/lowering.h"

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "src/exec/agg_ops.h"
#include "src/exec/apply_ops.h"
#include "src/exec/exchange_op.h"
#include "src/exec/filter_project_ops.h"
#include "src/exec/gapply_op.h"
#include "src/exec/join_ops.h"
#include "src/exec/lifted_ops.h"
#include "src/exec/scan_ops.h"
#include "src/plan/plan_utils.h"

namespace gapply {

namespace {

/// Demotes every HashJoin on the streaming spine under `op` to a serial
/// build: inside an Exchange segment each worker clone builds its own hash
/// table, so a nested parallel build would only add partitioning overhead.
/// A LookupJoin builds nothing; the walk passes through its probe side.
void DemoteSpineJoinBuilds(PhysOp* op) {
  if (auto* join = dynamic_cast<HashJoinOp*>(op)) join->set_parallelism(1);
  if (dynamic_cast<FilterOp*>(op) == nullptr &&
      dynamic_cast<ProjectOp*>(op) == nullptr &&
      dynamic_cast<HashJoinOp*>(op) == nullptr &&
      dynamic_cast<LookupJoinOp*>(op) == nullptr) {
    return;
  }
  std::vector<const PhysOp*> kids = op->children();
  if (!kids.empty()) DemoteSpineJoinBuilds(const_cast<PhysOp*>(kids[0]));
}

/// Wraps `op` in an Exchange when it is a morsel-drivable streaming segment
/// over a base table large enough to amortize the fan-out. Called at
/// pipeline-breaker boundaries (aggregation/sort/distinct inputs, GApply's
/// outer, the plan root).
PhysOpPtr MaybeWrapExchange(PhysOpPtr op, const LoweringOptions& opts,
                            size_t dop) {
  if (dop <= 1) return op;
  TableScanOp* scan = FindExchangeMorselSource(op.get());
  if (scan == nullptr) return op;
  if (scan->num_rows() < opts.exchange_min_rows) return op;
  DemoteSpineJoinBuilds(op.get());
  return std::make_unique<ExchangeOp>(std::move(op), dop,
                                      opts.exchange_morsel_rows);
}

bool CmpOpFromBinary(BinaryOp op, value_ops::CmpOp* out) {
  switch (op) {
    case BinaryOp::kEq: *out = value_ops::CmpOp::kEq; return true;
    case BinaryOp::kNe: *out = value_ops::CmpOp::kNe; return true;
    case BinaryOp::kLt: *out = value_ops::CmpOp::kLt; return true;
    case BinaryOp::kLe: *out = value_ops::CmpOp::kLe; return true;
    case BinaryOp::kGt: *out = value_ops::CmpOp::kGt; return true;
    case BinaryOp::kGe: *out = value_ops::CmpOp::kGe; return true;
    default: return false;
  }
}

/// Mirror of `a <op> b` ≡ `b <flip(op)> a` for normalizing literal-first
/// comparisons to column-first.
value_ops::CmpOp FlipCmp(value_ops::CmpOp op) {
  switch (op) {
    case value_ops::CmpOp::kLt: return value_ops::CmpOp::kGt;
    case value_ops::CmpOp::kLe: return value_ops::CmpOp::kGe;
    case value_ops::CmpOp::kGt: return value_ops::CmpOp::kLt;
    case value_ops::CmpOp::kGe: return value_ops::CmpOp::kLe;
    default: return op;  // kEq / kNe are symmetric
  }
}

/// Column/literal pairings Value::Compare handles without a type error —
/// the bar a conjunct must meet to be evaluated inside the scan.
bool TypeSoundForPushdown(TypeId col, TypeId lit) {
  const auto numeric = [](TypeId t) {
    return t == TypeId::kInt64 || t == TypeId::kDouble;
  };
  if (numeric(col) && numeric(lit)) return true;
  if (col == TypeId::kString && lit == TypeId::kString) return true;
  if (col == TypeId::kBool && lit == TypeId::kBool) return true;
  return false;
}

/// Tries to view `e` as `col <op> literal` (either orientation) with a
/// non-NULL, type-sound literal — the shape TableScanOp can evaluate over
/// its dense arrays and prune morsels with.
bool ExtractScanPredicate(const Expr& e, const Schema& schema,
                          ScanPredicate* out) {
  const auto* bin = dynamic_cast<const BinaryExpr*>(&e);
  if (bin == nullptr) return false;
  value_ops::CmpOp op;
  if (!CmpOpFromBinary(bin->op(), &op)) return false;
  const auto* col = dynamic_cast<const ColumnRefExpr*>(&bin->left());
  const auto* lit = dynamic_cast<const LiteralExpr*>(&bin->right());
  if (col == nullptr || lit == nullptr) {
    col = dynamic_cast<const ColumnRefExpr*>(&bin->right());
    lit = dynamic_cast<const LiteralExpr*>(&bin->left());
    if (col == nullptr || lit == nullptr) return false;
    op = FlipCmp(op);
  }
  if (lit->value().is_null()) return false;
  if (col->index() < 0 ||
      static_cast<size_t>(col->index()) >= schema.num_columns()) {
    return false;
  }
  const TypeId col_type = schema.column(static_cast<size_t>(col->index())).type;
  if (!TypeSoundForPushdown(col_type, lit->value().type())) return false;
  out->column = col->index();
  out->op = op;
  out->literal = lit->value();
  return true;
}

Result<PhysOpPtr> Lower(const LogicalOp& node, const LoweringOptions& opts,
                        size_t exchange_dop);

// --- column-only Project folding ---------------------------------------------

/// A Project whose expressions are all plain column references.
const LogicalProject* AsColumnProject(const LogicalOp& node) {
  if (node.type() != LogicalOpType::kProject) return nullptr;
  const auto& proj = static_cast<const LogicalProject&>(node);
  for (const ExprPtr& e : proj.exprs()) {
    if (e->kind() != ExprKind::kColumnRef) return nullptr;
  }
  return &proj;
}

/// A column-only Project keeping a prefix of its input's columns, in order
/// (expression i is column i). Aggregate arguments never see the dropped
/// suffix, so such a Project below a ScalarAgg is a no-op.
bool IsPrefixProject(const LogicalOp& node) {
  const LogicalProject* proj = AsColumnProject(node);
  if (proj == nullptr) return false;
  for (size_t i = 0; i < proj->exprs().size(); ++i) {
    if (static_cast<const ColumnRefExpr&>(*proj->exprs()[i]).index() !=
        static_cast<int>(i)) {
      return false;
    }
  }
  return true;
}

/// A prefix Project that keeps every input column under its input's names:
/// dropping it leaves the schema unchanged.
bool IsIdentityProject(const LogicalOp& node) {
  if (!IsPrefixProject(node)) return false;
  const Schema& in = node.child(0)->output_schema();
  const Schema& out = node.output_schema();
  if (in.num_columns() != out.num_columns()) return false;
  for (size_t i = 0; i < in.num_columns(); ++i) {
    if (in.column(i).name != out.column(i).name) return false;
  }
  return true;
}

/// Folds column-only Projects below a Project into its expressions: each
/// reference to such a Project's output i becomes a reference to the input
/// column it copies. Returns the node to lower as the Project's input.
Result<const LogicalOp*> ComposeColumnProjects(const LogicalOp* input,
                                               std::vector<ExprPtr>* exprs) {
  while (const LogicalProject* below = AsColumnProject(*input)) {
    std::vector<int> old_to_new;
    old_to_new.reserve(below->exprs().size());
    for (const ExprPtr& e : below->exprs()) {
      old_to_new.push_back(static_cast<const ColumnRefExpr&>(*e).index());
    }
    for (ExprPtr& e : *exprs) RETURN_NOT_OK(e->RemapColumns(old_to_new));
    input = below->child(0);
  }
  return input;
}

/// The input of a ScalarAgg with prefix Projects skipped.
const LogicalOp* SkipPrefixProjects(const LogicalOp* input) {
  while (IsPrefixProject(*input)) input = input->child(0);
  return input;
}

/// The input of an Exists with column-only Projects skipped: Exists reads
/// no column, and a column reference cannot fail to evaluate.
const LogicalOp* SkipColumnProjects(const LogicalOp* input) {
  while (AsColumnProject(*input) != nullptr) input = input->child(0);
  return input;
}

/// Project expressions for lowering: constant-folded clones, composed
/// through any column-only Projects below. Sets `*input` to the node the
/// Project reads after composition.
Result<std::vector<ExprPtr>> ProjectExprs(const LogicalProject& proj,
                                          const LogicalOp** input) {
  std::vector<ExprPtr> exprs;
  exprs.reserve(proj.exprs().size());
  for (const ExprPtr& e : proj.exprs()) {
    exprs.push_back(FoldConstants(e->Clone()));
  }
  ASSIGN_OR_RETURN(*input, ComposeColumnProjects(proj.child(0), &exprs));
  return exprs;
}

// --- loop-lifted PGQs (DESIGN.md §17) ----------------------------------------

/// True iff evaluating `e` can fail on some row value: a division or modulo
/// whose divisor is not a nonzero literal.
bool MayFailOnValue(const Expr& e) {
  switch (e.kind()) {
    case ExprKind::kUnary:
      return MayFailOnValue(static_cast<const UnaryExpr&>(e).child());
    case ExprKind::kBinary: {
      const auto& bin = static_cast<const BinaryExpr&>(e);
      if (bin.op() == BinaryOp::kDivide || bin.op() == BinaryOp::kModulo) {
        const auto* lit = dynamic_cast<const LiteralExpr*>(&bin.right());
        const bool nonzero_literal =
            lit != nullptr &&
            ((lit->value().type() == TypeId::kInt64 &&
              lit->value().int_val() != 0) ||
             (lit->value().type() == TypeId::kDouble &&
              lit->value().double_val() != 0.0));
        if (!nonzero_literal) return true;
      }
      return MayFailOnValue(bin.left()) || MayFailOnValue(bin.right());
    }
    default:
      return false;
  }
}

/// True iff an expression `e` of a PGQ may appear in its lifted form: it
/// refers to no enclosing row, and when `skipped` (it sits where per-group
/// execution may not evaluate every row) it cannot fail on a value.
bool LiftableExpr(const Expr& e, bool skipped) {
  return !HasCorrelatedRef(e) && !(skipped && MayFailOnValue(e));
}

/// True iff the PGQ subtree `node` of a GApply over `var` has a lifted
/// form: it reads only its own group, through GroupScan, Select, Project,
/// ScalarAgg, UnionAll, Exists and Apply, and no expression in it refers
/// to an enclosing row. The last condition also makes every Apply's inner
/// independent of the Apply's outer row — the cached-inner Apply, which
/// lifts to a gid merge join. Base-table reads, correlated Applies and
/// nested GApplys stay per group.
///
/// A lifted plan evaluates every row of every group, where per-group
/// execution skips some: Exists stops at its input's first row, and a
/// cached Apply inner runs only for groups with an outer row. `skipped`
/// marks such subtrees; an expression there that can fail on a value
/// (`10 / x`) keeps the PGQ per group, so lifting never turns a query that
/// succeeds into one that fails.
bool CanLift(const LogicalOp& node, const std::string& var, bool skipped) {
  switch (node.type()) {
    case LogicalOpType::kGroupScan:
      return static_cast<const LogicalGroupScan&>(node).var() == var;
    case LogicalOpType::kSelect:
      return LiftableExpr(static_cast<const LogicalSelect&>(node).predicate(),
                          skipped) &&
             CanLift(*node.child(0), var, skipped);
    case LogicalOpType::kProject:
      for (const ExprPtr& e :
           static_cast<const LogicalProject&>(node).exprs()) {
        if (!LiftableExpr(*e, skipped)) return false;
      }
      return CanLift(*node.child(0), var, skipped);
    case LogicalOpType::kScalarAgg:
      for (const AggregateDesc& a :
           static_cast<const LogicalScalarAgg&>(node).aggs()) {
        if (a.arg != nullptr && !LiftableExpr(*a.arg, skipped)) return false;
      }
      return CanLift(*node.child(0), var, skipped);
    case LogicalOpType::kUnionAll:
      for (size_t i = 0; i < node.num_children(); ++i) {
        if (!CanLift(*node.child(i), var, skipped)) return false;
      }
      return true;
    case LogicalOpType::kExists:
      return CanLift(*node.child(0), var, /*skipped=*/true);
    case LogicalOpType::kApply: {
      const auto& apply = static_cast<const LogicalApply&>(node);
      return CanLift(*apply.outer(), var, skipped) &&
             CanLift(*apply.inner(), var, /*skipped=*/true);
    }
    default:
      return false;
  }
}

/// Flags the columns `e` reads in `*read`.
void MarkColumns(const Expr& e, std::vector<bool>* read) {
  std::set<int> cols;
  e.CollectColumns(&cols);
  for (int c : cols) (*read)[static_cast<size_t>(c)] = true;
}

std::vector<int> IdentityColumns(size_t n) {
  std::vector<int> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = static_cast<int>(i);
  return out;
}

/// A lowered lifted subtree. `columns[i]` is the position of the logical
/// node's output column i in `op`'s output, or -1 when it was dropped
/// because no operator above reads it. The gid is always `op`'s last
/// column.
struct LiftedPlan {
  PhysOpPtr op;
  std::vector<int> columns;
};

/// A lifted read of the group rows of GroupScan `scan` straight from the
/// partition buffer: `columns` lists the group column behind each output
/// column (-1: NULL), `schema` names them, and `landed` is where each
/// group column landed (LiftedPlan::columns).
struct GroupRead {
  std::vector<int> columns;
  Schema schema;
  std::vector<int> landed;
};

/// Reads the group columns flagged in `read`. With `narrow`, unread
/// columns are dropped; without, they stay in place as NULLs.
GroupRead ReadGroup(const LogicalOp& scan, const std::vector<bool>& read,
                    bool narrow) {
  const Schema& schema = scan.output_schema();
  GroupRead out;
  out.landed.assign(schema.num_columns(), -1);
  for (size_t i = 0; i < schema.num_columns(); ++i) {
    if (!read[i] && narrow) continue;
    out.landed[i] = static_cast<int>(out.columns.size());
    out.columns.push_back(read[i] ? static_cast<int>(i) : -1);
    out.schema.AddColumn(schema.column(i));
  }
  return out;
}

/// Lowers a CanLift subtree to its gid-segmented form (lifted_ops.h).
/// `read` flags the output columns (gid aside) the plan above reads. It is
/// pushed down, so the partition buffer is read for those columns only;
/// with `narrow`, unread columns are also dropped from the output (see
/// LiftedPlan), otherwise the output keeps the logical node's layout. A
/// GroupScan lowers to a SegmentScan; a ScalarAgg or Apply outer over the
/// group reads the buffer itself, with no row materialized per group row.
Result<LiftedPlan> LowerLifted(const LogicalOp& node, const std::string& var,
                               const LoweringOptions& opts,
                               std::vector<bool> read, bool narrow) {
  const auto none = [](const LogicalOp& n) {
    return std::vector<bool>(n.output_schema().num_columns(), false);
  };
  const auto group_arity = [](const LogicalOp& scan) {
    return scan.output_schema().num_columns();
  };
  switch (node.type()) {
    case LogicalOpType::kGroupScan: {
      GroupRead r = ReadGroup(node, read, narrow);
      return LiftedPlan{std::make_unique<SegmentScanOp>(
                            var, group_arity(node), std::move(r.columns),
                            r.schema),
                        std::move(r.landed)};
    }
    case LogicalOpType::kSelect: {
      const auto& sel = static_cast<const LogicalSelect&>(node);
      MarkColumns(sel.predicate(), &read);
      ASSIGN_OR_RETURN(LiftedPlan child, LowerLifted(*sel.child(0), var, opts,
                                                     std::move(read), narrow));
      ExprPtr pred = FoldConstants(sel.predicate().Clone());
      RETURN_NOT_OK(pred->RemapColumns(child.columns));
      auto filter = std::make_unique<FilterOp>(std::move(child.op),
                                               std::move(pred));
      return LiftedPlan{std::move(filter), std::move(child.columns)};
    }
    case LogicalOpType::kProject: {
      const auto& proj = static_cast<const LogicalProject&>(node);
      const LogicalOp* input = nullptr;
      ASSIGN_OR_RETURN(std::vector<ExprPtr> exprs, ProjectExprs(proj, &input));
      std::vector<ExprPtr> kept;
      std::vector<std::string> names;
      std::vector<int> landed(exprs.size(), -1);
      std::vector<bool> input_read = none(*input);
      for (size_t i = 0; i < exprs.size(); ++i) {
        if (!read[i] && narrow) continue;
        landed[i] = static_cast<int>(kept.size());
        MarkColumns(*exprs[i], &input_read);
        kept.push_back(std::move(exprs[i]));
        names.push_back(proj.names()[i]);
      }
      ASSIGN_OR_RETURN(LiftedPlan child,
                       LowerLifted(*input, var, opts, std::move(input_read),
                                   /*narrow=*/true));
      for (ExprPtr& e : kept) RETURN_NOT_OK(e->RemapColumns(child.columns));
      const Schema& in = child.op->output_schema();
      const int gid = static_cast<int>(in.num_columns()) - 1;
      kept.push_back(Col(in, gid));
      names.push_back(in.column(static_cast<size_t>(gid)).name);
      ASSIGN_OR_RETURN(PhysOpPtr op, ProjectOp::Make(std::move(child.op),
                                                     std::move(kept),
                                                     std::move(names)));
      return LiftedPlan{std::move(op), std::move(landed)};
    }
    case LogicalOpType::kScalarAgg: {
      const auto& agg = static_cast<const LogicalScalarAgg&>(node);
      const LogicalOp* input = SkipPrefixProjects(agg.child(0));
      std::vector<AggregateDesc> aggs = CloneAggregates(agg.aggs());
      PhysOpPtr child;  // stays null over the group itself
      if (input->type() != LogicalOpType::kGroupScan) {
        std::vector<bool> input_read = none(*input);
        for (const AggregateDesc& a : aggs) {
          if (a.arg != nullptr) MarkColumns(*a.arg, &input_read);
        }
        ASSIGN_OR_RETURN(LiftedPlan lowered,
                         LowerLifted(*input, var, opts, std::move(input_read),
                                     /*narrow=*/true));
        for (AggregateDesc& a : aggs) {
          if (a.arg != nullptr) {
            RETURN_NOT_OK(a.arg->RemapColumns(lowered.columns));
          }
        }
        child = std::move(lowered.op);
      }
      return LiftedPlan{
          std::make_unique<SegmentAggOp>(std::move(child), std::move(aggs), var),
          IdentityColumns(agg.aggs().size())};
    }
    case LogicalOpType::kUnionAll: {
      // Branches keep the common layout.
      std::vector<PhysOpPtr> branches;
      for (size_t i = 0; i < node.num_children(); ++i) {
        ASSIGN_OR_RETURN(LiftedPlan branch,
                         LowerLifted(*node.child(i), var, opts, read,
                                     /*narrow=*/false));
        branches.push_back(std::move(branch.op));
      }
      ASSIGN_OR_RETURN(PhysOpPtr op, GidUnionAllOp::Make(std::move(branches)));
      return LiftedPlan{std::move(op),
                        IdentityColumns(node.output_schema().num_columns())};
    }
    case LogicalOpType::kExists: {
      const auto& exists = static_cast<const LogicalExists&>(node);
      const LogicalOp* input = SkipColumnProjects(exists.child(0));
      ASSIGN_OR_RETURN(LiftedPlan child,
                       LowerLifted(*input, var, opts, none(*input),
                                   /*narrow=*/true));
      return LiftedPlan{std::make_unique<SegmentExistsOp>(
                            std::move(child.op), exists.negated(), var),
                        {}};
    }
    case LogicalOpType::kApply: {
      const auto& apply = static_cast<const LogicalApply&>(node);
      const LogicalOp* inner = apply.inner();
      // Lifted schemas are internal, so any full-width prefix Project on
      // the inner is a no-op here, whatever its column names.
      if (IsPrefixProject(*inner) &&
          inner->output_schema().num_columns() ==
              inner->child(0)->output_schema().num_columns()) {
        inner = inner->child(0);
      }
      const size_t outer_arity = apply.outer()->output_schema().num_columns();
      std::vector<bool> outer_read(read.begin(), read.begin() + outer_arity);
      std::vector<bool> inner_read(read.begin() + outer_arity, read.end());
      ASSIGN_OR_RETURN(LiftedPlan lifted_inner,
                       LowerLifted(*inner, var, opts, std::move(inner_read),
                                   narrow));
      const int inner_arity =
          static_cast<int>(lifted_inner.op->output_schema().num_columns());
      PhysOpPtr op;
      std::vector<int> landed;
      if (apply.outer()->type() == LogicalOpType::kGroupScan) {
        GroupRead r = ReadGroup(*apply.outer(), outer_read, narrow);
        landed = std::move(r.landed);
        op = std::make_unique<GidApplyOp>(
            var, group_arity(*apply.outer()), std::move(r.columns), r.schema,
            std::move(lifted_inner.op));
      } else {
        ASSIGN_OR_RETURN(LiftedPlan outer,
                         LowerLifted(*apply.outer(), var, opts,
                                     std::move(outer_read), narrow));
        landed = std::move(outer.columns);
        op = std::make_unique<GidApplyOp>(std::move(outer.op),
                                          std::move(lifted_inner.op));
      }
      // Output: the outer columns, then the inner ones (gid last).
      const int outer_width =
          static_cast<int>(op->output_schema().num_columns()) - inner_arity;
      for (int c : lifted_inner.columns) {
        landed.push_back(c < 0 ? -1 : outer_width + c);
      }
      return LiftedPlan{std::move(op), std::move(landed)};
    }
    default:
      break;
  }
  return Status::Internal("operator has no lifted form: " + node.DebugName());
}

/// `exchange_dop` is the morsel-parallelism budget of the current plan
/// region: the caller's knob at the top, forced to 1 inside subplans that
/// are re-opened per row or per group (Apply inner, Exists input, GApply
/// PGQ), where a per-open parallel fan-out would thrash.
Result<PhysOpPtr> LowerNode(const LogicalOp& node, const LoweringOptions& opts,
                            size_t exchange_dop) {
  switch (node.type()) {
    case LogicalOpType::kScan: {
      const auto& scan = static_cast<const LogicalScan&>(node);
      return PhysOpPtr(
          std::make_unique<TableScanOp>(scan.table(), scan.alias()));
    }
    case LogicalOpType::kGroupScan: {
      const auto& scan = static_cast<const LogicalGroupScan&>(node);
      return PhysOpPtr(
          std::make_unique<GroupScanOp>(scan.var(), scan.output_schema()));
    }
    case LogicalOpType::kSelect: {
      const auto& sel = static_cast<const LogicalSelect&>(node);
      ASSIGN_OR_RETURN(PhysOpPtr child, Lower(*sel.child(0), opts, exchange_dop));
      // Fold constant subtrees first: both expression engines then skip
      // dead work, and a folded conjunct (`v > 1 + 1`) becomes pushable.
      ExprPtr pred = FoldConstants(sel.predicate().Clone());
      // Columnar storage: peel `col <op> const` conjuncts off a Filter
      // sitting directly on a TableScan and evaluate them inside the scan
      // (dense arrays + zone-map pruning). Sound conjunct by conjunct: a row
      // passes WHERE iff every conjunct evaluates to true, and the scan
      // applies the same NULL-rejects semantics the Filter would.
      if (opts.columnar_storage.value_or(true)) {
        if (auto* scan = dynamic_cast<TableScanOp*>(child.get())) {
          std::vector<ExprPtr> conjuncts = SplitConjuncts(pred->Clone());
          std::vector<ScanPredicate> pushed;
          std::vector<ExprPtr> residual;
          for (ExprPtr& c : conjuncts) {
            ScanPredicate p;
            if (ExtractScanPredicate(*c, scan->output_schema(), &p)) {
              pushed.push_back(std::move(p));
            } else {
              residual.push_back(std::move(c));
            }
          }
          if (!pushed.empty()) {
            scan->PushPredicates(std::move(pushed));
            if (residual.empty()) return child;  // Filter fully absorbed
            auto filter = std::make_unique<FilterOp>(
                std::move(child), CombineConjuncts(std::move(residual)));
            return PhysOpPtr(std::move(filter));
          }
        }
      }
      auto filter =
          std::make_unique<FilterOp>(std::move(child), std::move(pred));
      return PhysOpPtr(std::move(filter));
    }
    case LogicalOpType::kProject: {
      const auto& proj = static_cast<const LogicalProject&>(node);
      const LogicalOp* input = nullptr;
      ASSIGN_OR_RETURN(std::vector<ExprPtr> exprs, ProjectExprs(proj, &input));
      ASSIGN_OR_RETURN(PhysOpPtr child, Lower(*input, opts, exchange_dop));
      ASSIGN_OR_RETURN(PhysOpPtr op,
                       ProjectOp::Make(std::move(child), std::move(exprs),
                                       proj.names()));
      return op;
    }
    case LogicalOpType::kJoin: {
      const auto& join = static_cast<const LogicalJoin&>(node);
      ASSIGN_OR_RETURN(PhysOpPtr left, Lower(*join.child(0), opts, exchange_dop));
      ASSIGN_OR_RETURN(PhysOpPtr right, Lower(*join.child(1), opts, exchange_dop));
      ExprPtr residual = join.residual() == nullptr
                             ? nullptr
                             : join.residual()->Clone();
      if (join.left_keys().empty()) {
        return PhysOpPtr(std::make_unique<NestedLoopJoinOp>(
            std::move(left), std::move(right), std::move(residual)));
      }
      // A bare base-table build side sorted on its one int64 key is looked
      // up by binary search instead of hashed (DESIGN.md §20). The row
      // store has no zone maps to prove the order, so `SET storage = row`
      // keeps the hash join and never touches the columnar mirror.
      auto* build_scan = dynamic_cast<TableScanOp*>(right.get());
      if (build_scan != nullptr && join.left_keys().size() == 1 &&
          opts.columnar_storage.value_or(true)) {
        const int lk = join.left_keys()[0];
        const int rk = join.right_keys()[0];
        const auto int64_key = [](const PhysOp& op, int c) {
          return op.output_schema().column(static_cast<size_t>(c)).type ==
                 TypeId::kInt64;
        };
        if (int64_key(*left, lk) && int64_key(*build_scan, rk) &&
            build_scan->table()->columnar().ColumnSorted(
                static_cast<size_t>(rk))) {
          right.release();
          return PhysOpPtr(std::make_unique<LookupJoinOp>(
              std::move(left), std::unique_ptr<TableScanOp>(build_scan), lk,
              rk, std::move(residual), join.null_safe()));
        }
      }
      return PhysOpPtr(std::make_unique<HashJoinOp>(
          std::move(left), std::move(right), join.left_keys(),
          join.right_keys(), std::move(residual), exchange_dop,
          join.null_safe()));
    }
    case LogicalOpType::kGroupBy: {
      const auto& gb = static_cast<const LogicalGroupBy&>(node);
      ASSIGN_OR_RETURN(PhysOpPtr child, Lower(*gb.child(0), opts, exchange_dop));
      child = MaybeWrapExchange(std::move(child), opts, exchange_dop);
      return PhysOpPtr(std::make_unique<HashGroupByOp>(
          std::move(child), gb.keys(), CloneAggregates(gb.aggs()),
          exchange_dop));
    }
    case LogicalOpType::kScalarAgg: {
      const auto& agg = static_cast<const LogicalScalarAgg&>(node);
      ASSIGN_OR_RETURN(
          PhysOpPtr child,
          Lower(*SkipPrefixProjects(agg.child(0)), opts, exchange_dop));
      child = MaybeWrapExchange(std::move(child), opts, exchange_dop);
      return PhysOpPtr(std::make_unique<ScalarAggOp>(std::move(child),
                                                     CloneAggregates(agg.aggs())));
    }
    case LogicalOpType::kDistinct: {
      ASSIGN_OR_RETURN(PhysOpPtr child, Lower(*node.child(0), opts, exchange_dop));
      child = MaybeWrapExchange(std::move(child), opts, exchange_dop);
      return PhysOpPtr(std::make_unique<DistinctOp>(std::move(child)));
    }
    case LogicalOpType::kUnionAll: {
      std::vector<PhysOpPtr> branches;
      branches.reserve(node.num_children());
      for (size_t i = 0; i < node.num_children(); ++i) {
        ASSIGN_OR_RETURN(PhysOpPtr branch, Lower(*node.child(i), opts, exchange_dop));
        branches.push_back(std::move(branch));
      }
      return UnionAllOp::Make(std::move(branches));
    }
    case LogicalOpType::kApply: {
      const auto& apply = static_cast<const LogicalApply&>(node);
      const LogicalOp* inner_plan = apply.inner();
      if (IsIdentityProject(*inner_plan)) inner_plan = inner_plan->child(0);
      ASSIGN_OR_RETURN(PhysOpPtr outer, Lower(*apply.outer(), opts, exchange_dop));
      ASSIGN_OR_RETURN(PhysOpPtr inner, Lower(*inner_plan, opts, 1));
      const bool cache = !ApplyInnerIsCorrelated(*apply.inner());
      return PhysOpPtr(std::make_unique<ApplyOp>(std::move(outer),
                                                 std::move(inner), cache));
    }
    case LogicalOpType::kExists: {
      const auto& exists = static_cast<const LogicalExists&>(node);
      ASSIGN_OR_RETURN(PhysOpPtr child,
                       Lower(*SkipColumnProjects(exists.child(0)), opts, 1));
      return PhysOpPtr(
          std::make_unique<ExistsOp>(std::move(child), exists.negated()));
    }
    case LogicalOpType::kOrderBy: {
      const auto& order = static_cast<const LogicalOrderBy&>(node);
      ASSIGN_OR_RETURN(PhysOpPtr child, Lower(*order.child(0), opts, exchange_dop));
      child = MaybeWrapExchange(std::move(child), opts, exchange_dop);
      return PhysOpPtr(
          std::make_unique<SortOp>(std::move(child), order.keys()));
    }
    case LogicalOpType::kGApply: {
      const auto& ga = static_cast<const LogicalGApply&>(node);
      ASSIGN_OR_RETURN(PhysOpPtr outer, Lower(*ga.outer(), opts, exchange_dop));
      outer = MaybeWrapExchange(std::move(outer), opts, exchange_dop);
      const bool lifted = !opts.per_group_gapply &&
                          CanLift(*ga.pgq(), ga.var(), /*skipped=*/false);
      PhysOpPtr pgq;
      if (lifted) {
        ASSIGN_OR_RETURN(
            LiftedPlan plan,
            LowerLifted(*ga.pgq(), ga.var(), opts,
                        std::vector<bool>(
                            ga.pgq()->output_schema().num_columns(), true),
                        /*narrow=*/false));
        pgq = std::move(plan.op);
      } else {
        ASSIGN_OR_RETURN(pgq, Lower(*ga.pgq(), opts, 1));
      }
      const PartitionMode mode =
          opts.force_partition_mode.value_or(ga.mode());
      const size_t dop = std::max<size_t>(1, opts.gapply_parallelism);
      return PhysOpPtr(std::make_unique<GApplyOp>(
          std::move(outer), ga.grouping_columns(), ga.var(), std::move(pgq),
          mode, dop, lifted));
    }
  }
  return Status::Internal("unknown logical operator in lowering");
}

Result<PhysOpPtr> Lower(const LogicalOp& node, const LoweringOptions& opts,
                        size_t exchange_dop) {
  ASSIGN_OR_RETURN(PhysOpPtr op, LowerNode(node, opts, exchange_dop));
  if (opts.cost_model != nullptr) {
    // Best-effort: estimation failures (unpriceable subtrees) simply leave
    // the operator unstamped; they must not fail the lowering.
    Result<PlanEstimate> est = opts.cost_model->Estimate(node);
    if (est.ok()) op->set_estimated_rows(est->rows);
  }
  return op;
}

}  // namespace

Result<PhysOpPtr> LowerPlan(const LogicalOp& plan,
                            const LoweringOptions& options) {
  const size_t dop = std::max<size_t>(1, options.exchange_parallelism);
  ASSIGN_OR_RETURN(PhysOpPtr root, Lower(plan, options, dop));
  return MaybeWrapExchange(std::move(root), options, dop);
}

}  // namespace gapply
