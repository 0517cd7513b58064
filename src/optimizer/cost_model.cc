#include "src/optimizer/cost_model.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "src/plan/plan_utils.h"

namespace gapply {

namespace {

double SortCost(double rows) {
  return rows <= 1 ? rows : rows * std::log2(rows + 1);
}

// Caps every column NDV at the row count.
void CapNdv(PlanEstimate* est) {
  for (double& ndv : est->column_ndv) ndv = std::min(ndv, est->rows);
}

// Scales an estimate to a subset of `fraction` rows (selection output,
// average group): NDVs shrink but never below 1 when rows remain.
PlanEstimate ScaleRows(const PlanEstimate& in, double fraction) {
  PlanEstimate out = in;
  out.rows = in.rows * fraction;
  for (double& ndv : out.column_ndv) {
    ndv = std::max(out.rows > 0 ? 1.0 : 0.0, ndv * fraction);
    ndv = std::min(ndv, out.rows);
  }
  return out;
}

}  // namespace

double CostModel::Selectivity(const Expr& pred,
                              const PlanEstimate& input) const {
  switch (pred.kind()) {
    case ExprKind::kBinary: {
      const auto& bin = static_cast<const BinaryExpr&>(pred);
      switch (bin.op()) {
        case BinaryOp::kAnd:
          return Selectivity(bin.left(), input) *
                 Selectivity(bin.right(), input);
        case BinaryOp::kOr: {
          const double a = Selectivity(bin.left(), input);
          const double b = Selectivity(bin.right(), input);
          return std::min(1.0, a + b - a * b);
        }
        case BinaryOp::kEq:
        case BinaryOp::kNe:
        case BinaryOp::kLt:
        case BinaryOp::kLe:
        case BinaryOp::kGt:
        case BinaryOp::kGe: {
          // column <op> literal: use NDV / histogram when available.
          const Expr* col_side = &bin.left();
          const Expr* lit_side = &bin.right();
          bool flipped = false;
          if (col_side->kind() != ExprKind::kColumnRef &&
              lit_side->kind() == ExprKind::kColumnRef) {
            std::swap(col_side, lit_side);
            flipped = true;
          }
          if (col_side->kind() != ExprKind::kColumnRef) {
            return kDefaultSelectivity;
          }
          const int idx = static_cast<const ColumnRefExpr*>(col_side)->index();
          if (idx < 0 ||
              static_cast<size_t>(idx) >= input.column_ndv.size()) {
            return kDefaultSelectivity;
          }
          // column = column (join-ish predicate).
          if (lit_side->kind() == ExprKind::kColumnRef) {
            const int ridx =
                static_cast<const ColumnRefExpr*>(lit_side)->index();
            if (bin.op() == BinaryOp::kEq && ridx >= 0 &&
                static_cast<size_t>(ridx) < input.column_ndv.size()) {
              const double ndv = std::max(
                  {1.0, input.column_ndv[static_cast<size_t>(idx)],
                   input.column_ndv[static_cast<size_t>(ridx)]});
              return 1.0 / ndv;
            }
            return kDefaultSelectivity;
          }
          if (lit_side->kind() != ExprKind::kLiteral) {
            return kDefaultSelectivity;
          }
          const Value& lit =
              static_cast<const LiteralExpr*>(lit_side)->value();
          const double ndv =
              std::max(1.0, input.column_ndv[static_cast<size_t>(idx)]);
          if (bin.op() == BinaryOp::kEq) return 1.0 / ndv;
          if (bin.op() == BinaryOp::kNe) return 1.0 - 1.0 / ndv;
          // Range comparison: use the base column's histogram when present.
          const ColumnStats* cstats =
              input.column_stats[static_cast<size_t>(idx)];
          if (cstats == nullptr || lit.is_null() || !IsNumeric(lit.type())) {
            return kDefaultSelectivity;
          }
          const double below = cstats->FractionBelow(lit.AsDouble());
          BinaryOp op = bin.op();
          if (flipped) {
            // literal <op> column  ≡  column <flipped-op> literal.
            switch (op) {
              case BinaryOp::kLt:
                op = BinaryOp::kGt;
                break;
              case BinaryOp::kLe:
                op = BinaryOp::kGe;
                break;
              case BinaryOp::kGt:
                op = BinaryOp::kLt;
                break;
              case BinaryOp::kGe:
                op = BinaryOp::kLe;
                break;
              default:
                break;
            }
          }
          switch (op) {
            case BinaryOp::kLt:
            case BinaryOp::kLe:
              return std::clamp(below, 0.0, 1.0);
            case BinaryOp::kGt:
            case BinaryOp::kGe:
              return std::clamp(1.0 - below, 0.0, 1.0);
            default:
              return kDefaultSelectivity;
          }
        }
        default:
          return kDefaultSelectivity;
      }
    }
    case ExprKind::kUnary: {
      const auto& un = static_cast<const UnaryExpr&>(pred);
      if (un.op() == UnaryOp::kNot) {
        return 1.0 - Selectivity(un.child(), input);
      }
      return kDefaultSelectivity;
    }
    case ExprKind::kLiteral: {
      const Value& v = static_cast<const LiteralExpr&>(pred).value();
      if (v.type() == TypeId::kBool) return v.bool_val() ? 1.0 : 0.0;
      return kDefaultSelectivity;
    }
    default:
      return kDefaultSelectivity;
  }
}

double CostModel::SpillCost(double buffered_rows) const {
  if (memory_budget_ == 0) return 0;
  const double bytes = buffered_rows * kApproxRowWidth;
  if (bytes <= static_cast<double>(memory_budget_)) return 0;
  return 2 * buffered_rows;
}

Result<PlanEstimate> CostModel::EstimateNode(const LogicalOp& node,
                                             GroupEnv* env) const {
  const size_t out_cols = node.output_schema().num_columns();
  PlanEstimate est;
  est.column_ndv.assign(out_cols, 0);
  est.column_stats.assign(out_cols, nullptr);

  switch (node.type()) {
    case LogicalOpType::kScan: {
      const auto& scan = static_cast<const LogicalScan&>(node);
      const TableStats* ts =
          stats_ == nullptr ? nullptr : stats_->Get(scan.table_name());
      if (ts == nullptr) {
        // No stats: fall back to actual row count with NDV = rows.
        est.rows = static_cast<double>(scan.table()->num_rows());
        est.column_ndv.assign(out_cols, est.rows);
      } else {
        est.rows = static_cast<double>(ts->row_count);
        for (size_t c = 0; c < out_cols && c < ts->columns.size(); ++c) {
          est.column_ndv[c] = static_cast<double>(ts->columns[c].ndv);
          est.column_stats[c] = &ts->columns[c];
        }
      }
      est.cost = est.rows;
      return est;
    }
    case LogicalOpType::kGroupScan: {
      const auto& scan = static_cast<const LogicalGroupScan&>(node);
      auto it = env->find(scan.var());
      if (it != env->end()) {
        est = it->second;
        est.cost = est.rows;
        return est;
      }
      // Unbound: assume a modest group.
      est.rows = 100;
      est.column_ndv.assign(out_cols, est.rows);
      est.cost = est.rows;
      return est;
    }
    case LogicalOpType::kSelect: {
      // The binder stacks one Select per WHERE conjunct, so a chain can be
      // as long as the conjunct list: walk it in a loop, not by recursion.
      std::vector<const LogicalSelect*> chain;
      const LogicalOp* below = &node;
      while (below->type() == LogicalOpType::kSelect) {
        chain.push_back(static_cast<const LogicalSelect*>(below));
        below = below->child(0);
      }
      ASSIGN_OR_RETURN(est, EstimateNode(*below, env));
      for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
        const double s = Selectivity((*it)->predicate(), est);
        PlanEstimate scaled = ScaleRows(est, s);
        scaled.cost = est.cost + est.rows;
        est = std::move(scaled);
      }
      return est;
    }
    case LogicalOpType::kProject: {
      const auto& proj = static_cast<const LogicalProject&>(node);
      ASSIGN_OR_RETURN(PlanEstimate child, EstimateNode(*proj.child(0), env));
      est.rows = child.rows;
      est.cost = child.cost + child.rows;
      for (size_t i = 0; i < proj.exprs().size(); ++i) {
        const Expr& e = *proj.exprs()[i];
        if (e.kind() == ExprKind::kColumnRef) {
          const int idx = static_cast<const ColumnRefExpr&>(e).index();
          est.column_ndv[i] = child.column_ndv[static_cast<size_t>(idx)];
          est.column_stats[i] = child.column_stats[static_cast<size_t>(idx)];
        } else {
          est.column_ndv[i] = child.rows;
        }
      }
      return est;
    }
    case LogicalOpType::kJoin: {
      const auto& join = static_cast<const LogicalJoin&>(node);
      ASSIGN_OR_RETURN(PlanEstimate left, EstimateNode(*join.child(0), env));
      ASSIGN_OR_RETURN(PlanEstimate right, EstimateNode(*join.child(1), env));
      double rows = left.rows * right.rows;
      for (size_t k = 0; k < join.left_keys().size(); ++k) {
        const double lndv = std::max(
            1.0, left.column_ndv[static_cast<size_t>(join.left_keys()[k])]);
        const double rndv = std::max(
            1.0,
            right.column_ndv[static_cast<size_t>(join.right_keys()[k])]);
        rows /= std::max(lndv, rndv);
      }
      est.rows = rows;
      // The hash build buffers the right child; Grace-spill it if too big.
      est.cost = left.cost + right.cost + left.rows + right.rows + rows +
                 SpillCost(right.rows);
      for (size_t c = 0; c < left.column_ndv.size(); ++c) {
        est.column_ndv[c] = left.column_ndv[c];
        est.column_stats[c] = left.column_stats[c];
      }
      for (size_t c = 0; c < right.column_ndv.size(); ++c) {
        est.column_ndv[left.column_ndv.size() + c] = right.column_ndv[c];
        est.column_stats[left.column_ndv.size() + c] = right.column_stats[c];
      }
      CapNdv(&est);
      return est;
    }
    case LogicalOpType::kGroupBy: {
      const auto& gb = static_cast<const LogicalGroupBy&>(node);
      ASSIGN_OR_RETURN(PlanEstimate child, EstimateNode(*gb.child(0), env));
      double groups = 1;
      for (int k : gb.keys()) {
        groups *= std::max(1.0, child.column_ndv[static_cast<size_t>(k)]);
      }
      groups = std::min(groups, std::max(child.rows, 0.0));
      est.rows = groups;
      est.cost = child.cost + child.rows + SpillCost(child.rows);
      for (size_t i = 0; i < gb.keys().size(); ++i) {
        est.column_ndv[i] =
            child.column_ndv[static_cast<size_t>(gb.keys()[i])];
        est.column_stats[i] =
            child.column_stats[static_cast<size_t>(gb.keys()[i])];
      }
      for (size_t i = gb.keys().size(); i < out_cols; ++i) {
        est.column_ndv[i] = groups;
      }
      CapNdv(&est);
      return est;
    }
    case LogicalOpType::kScalarAgg: {
      ASSIGN_OR_RETURN(PlanEstimate child, EstimateNode(*node.child(0), env));
      est.rows = 1;
      est.cost = child.cost + child.rows;
      est.column_ndv.assign(out_cols, 1);
      return est;
    }
    case LogicalOpType::kDistinct: {
      ASSIGN_OR_RETURN(PlanEstimate child, EstimateNode(*node.child(0), env));
      double distinct = 1;
      for (double ndv : child.column_ndv) distinct *= std::max(1.0, ndv);
      est = child;
      est.rows = std::min(child.rows, distinct);
      est.cost = child.cost + child.rows;
      CapNdv(&est);
      return est;
    }
    case LogicalOpType::kUnionAll: {
      est.rows = 0;
      est.cost = 0;
      for (size_t i = 0; i < node.num_children(); ++i) {
        ASSIGN_OR_RETURN(PlanEstimate child,
                         EstimateNode(*node.child(i), env));
        est.rows += child.rows;
        est.cost += child.cost;
        for (size_t c = 0; c < out_cols && c < child.column_ndv.size(); ++c) {
          est.column_ndv[c] += child.column_ndv[c];
        }
      }
      CapNdv(&est);
      return est;
    }
    case LogicalOpType::kApply: {
      const auto& apply = static_cast<const LogicalApply&>(node);
      ASSIGN_OR_RETURN(PlanEstimate outer,
                       EstimateNode(*apply.outer(), env));
      ASSIGN_OR_RETURN(PlanEstimate inner,
                       EstimateNode(*apply.inner(), env));
      est.rows = outer.rows * std::max(inner.rows, 0.0);
      if (ApplyInnerIsCorrelated(*apply.inner())) {
        // The inner subplan re-executes once per outer row.
        est.cost = outer.cost + std::max(1.0, outer.rows) * inner.cost;
      } else {
        // Uncorrelated inner: evaluated once and replayed (see ApplyOp).
        est.cost = outer.cost + inner.cost + est.rows;
      }
      for (size_t c = 0; c < outer.column_ndv.size(); ++c) {
        est.column_ndv[c] = outer.column_ndv[c];
        est.column_stats[c] = outer.column_stats[c];
      }
      for (size_t c = 0; c < inner.column_ndv.size(); ++c) {
        est.column_ndv[outer.column_ndv.size() + c] = inner.column_ndv[c];
      }
      CapNdv(&est);
      return est;
    }
    case LogicalOpType::kExists: {
      ASSIGN_OR_RETURN(PlanEstimate child, EstimateNode(*node.child(0), env));
      est.rows = std::min(1.0, child.rows);
      // Early exit after the first row: charge half the child's cost.
      est.cost = child.cost * 0.5;
      return est;
    }
    case LogicalOpType::kOrderBy: {
      ASSIGN_OR_RETURN(PlanEstimate child, EstimateNode(*node.child(0), env));
      est = child;
      est.cost = child.cost + SortCost(child.rows) + SpillCost(child.rows);
      return est;
    }
    case LogicalOpType::kGApply: {
      const auto& ga = static_cast<const LogicalGApply&>(node);
      ASSIGN_OR_RETURN(PlanEstimate outer, EstimateNode(*ga.outer(), env));
      double groups = 1;
      for (int c : ga.grouping_columns()) {
        groups *= std::max(1.0, outer.column_ndv[static_cast<size_t>(c)]);
      }
      groups = std::min(groups, std::max(outer.rows, 1.0));
      const double partition = ga.mode() == PartitionMode::kSort
                                   ? SortCost(outer.rows)
                                   : outer.rows;
      // One average group, with NDVs scaled under the uniformity assumption.
      PlanEstimate group =
          ScaleRows(outer, groups > 0 ? 1.0 / groups : 1.0);
      // Save/restore any shadowed binding (nested GApply over the same var).
      std::optional<PlanEstimate> saved;
      if (auto it = env->find(ga.var()); it != env->end()) saved = it->second;
      (*env)[ga.var()] = std::move(group);
      ASSIGN_OR_RETURN(PlanEstimate pgq, EstimateNode(*ga.pgq(), env));
      if (saved.has_value()) {
        (*env)[ga.var()] = std::move(*saved);
      } else {
        env->erase(ga.var());
      }

      est.rows = groups * pgq.rows;
      // Both partition modes buffer the outer input (sorted runs or
      // per-group member vectors).
      est.cost = outer.cost + partition + groups * pgq.cost +
                 SpillCost(outer.rows);
      size_t c = 0;
      for (int g : ga.grouping_columns()) {
        est.column_ndv[c] = outer.column_ndv[static_cast<size_t>(g)];
        est.column_stats[c] = outer.column_stats[static_cast<size_t>(g)];
        ++c;
      }
      for (size_t p = 0; p < pgq.column_ndv.size(); ++p, ++c) {
        est.column_ndv[c] = std::min(est.rows, pgq.column_ndv[p] * groups);
      }
      CapNdv(&est);
      return est;
    }
  }
  return Status::Internal("unknown logical operator in cost model");
}

Result<PlanEstimate> CostModel::Estimate(const LogicalOp& plan) const {
  GroupEnv env;
  return EstimateNode(plan, &env);
}

}  // namespace gapply
