#include "src/plan/plan_utils.h"

namespace gapply {

namespace {

// Does `e` contain a correlated reference with depth == `nesting` (i.e.
// one that resolves to the Apply whose inner subtree we started from)?
bool ExprRefersToDepth(const Expr& e, int nesting) {
  switch (e.kind()) {
    case ExprKind::kCorrelatedColumnRef:
      return static_cast<const CorrelatedColumnRefExpr&>(e).depth() ==
             nesting;
    case ExprKind::kUnary:
      return ExprRefersToDepth(static_cast<const UnaryExpr&>(e).child(),
                               nesting);
    case ExprKind::kBinary: {
      const auto& bin = static_cast<const BinaryExpr&>(e);
      return ExprRefersToDepth(bin.left(), nesting) ||
             ExprRefersToDepth(bin.right(), nesting);
    }
    default:
      return false;
  }
}

bool NodeRefersToDepth(const LogicalOp& node, int nesting) {
  switch (node.type()) {
    case LogicalOpType::kSelect:
      if (ExprRefersToDepth(
              static_cast<const LogicalSelect&>(node).predicate(), nesting)) {
        return true;
      }
      break;
    case LogicalOpType::kProject:
      for (const ExprPtr& e :
           static_cast<const LogicalProject&>(node).exprs()) {
        if (ExprRefersToDepth(*e, nesting)) return true;
      }
      break;
    case LogicalOpType::kJoin: {
      const auto& join = static_cast<const LogicalJoin&>(node);
      if (join.residual() != nullptr &&
          ExprRefersToDepth(*join.residual(), nesting)) {
        return true;
      }
      break;
    }
    case LogicalOpType::kGroupBy:
      for (const AggregateDesc& a :
           static_cast<const LogicalGroupBy&>(node).aggs()) {
        if (a.arg != nullptr && ExprRefersToDepth(*a.arg, nesting)) {
          return true;
        }
      }
      break;
    case LogicalOpType::kScalarAgg:
      for (const AggregateDesc& a :
           static_cast<const LogicalScalarAgg&>(node).aggs()) {
        if (a.arg != nullptr && ExprRefersToDepth(*a.arg, nesting)) {
          return true;
        }
      }
      break;
    default:
      break;
  }

  if (node.type() == LogicalOpType::kApply) {
    // Inside the inner child of a nested Apply, a reference to *our* Apply
    // has depth nesting + 1.
    const auto& apply = static_cast<const LogicalApply&>(node);
    return NodeRefersToDepth(*apply.outer(), nesting) ||
           NodeRefersToDepth(*apply.inner(), nesting + 1);
  }
  for (size_t i = 0; i < node.num_children(); ++i) {
    if (NodeRefersToDepth(*node.child(i), nesting)) return true;
  }
  if (node.type() == LogicalOpType::kGApply) {
    // GApply binds a relation, not a row: correlation depths pass through.
    const auto& ga = static_cast<const LogicalGApply&>(node);
    if (NodeRefersToDepth(*ga.pgq(), nesting)) return true;
  }
  return false;
}

}  // namespace

bool ApplyInnerIsCorrelated(const LogicalOp& inner) {
  return NodeRefersToDepth(inner, 0);
}

bool HasCorrelatedRef(const Expr& e) {
  switch (e.kind()) {
    case ExprKind::kCorrelatedColumnRef:
      return true;
    case ExprKind::kUnary:
      return HasCorrelatedRef(static_cast<const UnaryExpr&>(e).child());
    case ExprKind::kBinary: {
      const auto& bin = static_cast<const BinaryExpr&>(e);
      return HasCorrelatedRef(bin.left()) || HasCorrelatedRef(bin.right());
    }
    default:
      return false;
  }
}

}  // namespace gapply
