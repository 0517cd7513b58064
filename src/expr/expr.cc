#include "src/expr/expr.h"

#include <cassert>
#include <cstdlib>

namespace gapply {

namespace {

using value_ops::CmpOp;

bool IsComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

// Static result type of a binary operator given operand types.
TypeId InferBinaryType(BinaryOp op, TypeId left, TypeId right) {
  if (IsComparison(op) || op == BinaryOp::kAnd || op == BinaryOp::kOr) {
    return TypeId::kBool;
  }
  if (op == BinaryOp::kModulo) return TypeId::kInt64;
  if (left == TypeId::kDouble || right == TypeId::kDouble) {
    return TypeId::kDouble;
  }
  if (left == TypeId::kInt64 && right == TypeId::kInt64) {
    return TypeId::kInt64;
  }
  // NULL-typed operand: stay permissive; the value evaluator rechecks.
  return left == TypeId::kNull ? right : left;
}

TypeId InferUnaryType(UnaryOp op, TypeId child) {
  switch (op) {
    case UnaryOp::kNot:
    case UnaryOp::kIsNull:
    case UnaryOp::kIsNotNull:
      return TypeId::kBool;
    case UnaryOp::kNegate:
      return child;
  }
  return child;
}

}  // namespace

const char* UnaryOpName(UnaryOp op) {
  switch (op) {
    case UnaryOp::kNot:
      return "not";
    case UnaryOp::kNegate:
      return "-";
    case UnaryOp::kIsNull:
      return "is null";
    case UnaryOp::kIsNotNull:
      return "is not null";
  }
  return "?";
}

const char* BinaryOpName(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSubtract:
      return "-";
    case BinaryOp::kMultiply:
      return "*";
    case BinaryOp::kDivide:
      return "/";
    case BinaryOp::kModulo:
      return "%";
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNe:
      return "<>";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLe:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGe:
      return ">=";
    case BinaryOp::kAnd:
      return "and";
    case BinaryOp::kOr:
      return "or";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// LiteralExpr
// ---------------------------------------------------------------------------

Result<Value> LiteralExpr::Eval(const Row&, const EvalContext&) const {
  return value_;
}

ExprPtr LiteralExpr::Clone() const {
  return std::make_unique<LiteralExpr>(value_);
}

std::string LiteralExpr::ToString() const {
  if (value_.type() != TypeId::kString) return value_.ToString();
  std::string out = "'";
  out += value_.str_val();
  out += '\'';
  return out;
}

bool LiteralExpr::StructurallyEquals(const Expr& other) const {
  if (other.kind() != ExprKind::kLiteral) return false;
  return value_.Equals(static_cast<const LiteralExpr&>(other).value());
}

// ---------------------------------------------------------------------------
// ColumnRefExpr
// ---------------------------------------------------------------------------

Result<Value> ColumnRefExpr::Eval(const Row& row, const EvalContext&) const {
  if (index_ < 0 || static_cast<size_t>(index_) >= row.size()) {
    return Status::Internal("column index " + std::to_string(index_) +
                            " out of range for row of arity " +
                            std::to_string(row.size()));
  }
  return row[static_cast<size_t>(index_)];
}

ExprPtr ColumnRefExpr::Clone() const {
  return std::make_unique<ColumnRefExpr>(index_, type_, name_);
}

std::string ColumnRefExpr::ToString() const {
  if (!name_.empty()) return name_;
  std::string out = "$";
  out += std::to_string(index_);
  return out;
}

bool ColumnRefExpr::StructurallyEquals(const Expr& other) const {
  if (other.kind() != ExprKind::kColumnRef) return false;
  return index_ == static_cast<const ColumnRefExpr&>(other).index();
}

Status ColumnRefExpr::RemapColumns(const std::vector<int>& old_to_new) {
  if (index_ < 0 || static_cast<size_t>(index_) >= old_to_new.size() ||
      old_to_new[static_cast<size_t>(index_)] < 0) {
    return Status::Internal("no remapping for column index " +
                            std::to_string(index_));
  }
  index_ = old_to_new[static_cast<size_t>(index_)];
  return Status::OK();
}

// ---------------------------------------------------------------------------
// CorrelatedColumnRefExpr
// ---------------------------------------------------------------------------

Result<Value> CorrelatedColumnRefExpr::Eval(const Row&,
                                            const EvalContext& ctx) const {
  if (depth_ < 0 || static_cast<size_t>(depth_) >= ctx.outer_rows.size()) {
    return Status::Internal("correlated reference depth " +
                            std::to_string(depth_) +
                            " exceeds outer-row stack of size " +
                            std::to_string(ctx.outer_rows.size()));
  }
  const Row* outer = ctx.outer_rows[ctx.outer_rows.size() - 1 -
                                    static_cast<size_t>(depth_)];
  if (index_ < 0 || static_cast<size_t>(index_) >= outer->size()) {
    return Status::Internal("correlated column index out of range");
  }
  return (*outer)[static_cast<size_t>(index_)];
}

ExprPtr CorrelatedColumnRefExpr::Clone() const {
  return std::make_unique<CorrelatedColumnRefExpr>(depth_, index_, type_,
                                                   name_);
}

std::string CorrelatedColumnRefExpr::ToString() const {
  std::string out = "outer(";
  out += std::to_string(depth_);
  out += ").";
  if (name_.empty()) {
    out += '$';
    out += std::to_string(index_);
  } else {
    out += name_;
  }
  return out;
}

bool CorrelatedColumnRefExpr::StructurallyEquals(const Expr& other) const {
  if (other.kind() != ExprKind::kCorrelatedColumnRef) return false;
  const auto& o = static_cast<const CorrelatedColumnRefExpr&>(other);
  return depth_ == o.depth_ && index_ == o.index_;
}

// ---------------------------------------------------------------------------
// UnaryExpr
// ---------------------------------------------------------------------------

UnaryExpr::UnaryExpr(UnaryOp op, ExprPtr child)
    : Expr(ExprKind::kUnary, InferUnaryType(op, child->type())),
      op_(op),
      child_(std::move(child)) {}

Result<Value> UnaryExpr::Eval(const Row& row, const EvalContext& ctx) const {
  ASSIGN_OR_RETURN(Value v, child_->Eval(row, ctx));
  return ApplyUnaryOp(op_, v);
}

ExprPtr UnaryExpr::Clone() const {
  return std::make_unique<UnaryExpr>(op_, child_->Clone());
}

std::string UnaryExpr::ToString() const {
  std::string out;
  if (op_ == UnaryOp::kIsNull || op_ == UnaryOp::kIsNotNull) {
    out += '(';
    out += child_->ToString();
    out += ' ';
    out += UnaryOpName(op_);
  } else {
    out = UnaryOpName(op_);
    out += '(';
    out += child_->ToString();
  }
  out += ')';
  return out;
}

bool UnaryExpr::StructurallyEquals(const Expr& other) const {
  if (other.kind() != ExprKind::kUnary) return false;
  const auto& o = static_cast<const UnaryExpr&>(other);
  return op_ == o.op_ && child_->StructurallyEquals(*o.child_);
}

// ---------------------------------------------------------------------------
// BinaryExpr
// ---------------------------------------------------------------------------

BinaryExpr::BinaryExpr(BinaryOp op, ExprPtr left, ExprPtr right)
    : Expr(ExprKind::kBinary,
           InferBinaryType(op, left->type(), right->type())),
      op_(op),
      left_(std::move(left)),
      right_(std::move(right)) {}

Result<Value> BinaryExpr::Eval(const Row& row, const EvalContext& ctx) const {
  // Short-circuit-free: SQL three-valued logic needs both sides anyway for
  // NULL handling, and our expressions have no side effects.
  ASSIGN_OR_RETURN(Value l, left_->Eval(row, ctx));
  ASSIGN_OR_RETURN(Value r, right_->Eval(row, ctx));
  return ApplyBinaryOp(op_, l, r);
}

ExprPtr BinaryExpr::Clone() const {
  return std::make_unique<BinaryExpr>(op_, left_->Clone(), right_->Clone());
}

std::string BinaryExpr::ToString() const {
  std::string out = "(";
  out += left_->ToString();
  out += ' ';
  out += BinaryOpName(op_);
  out += ' ';
  out += right_->ToString();
  out += ')';
  return out;
}

bool BinaryExpr::StructurallyEquals(const Expr& other) const {
  if (other.kind() != ExprKind::kBinary) return false;
  const auto& o = static_cast<const BinaryExpr&>(other);
  return op_ == o.op_ && left_->StructurallyEquals(*o.left_) &&
         right_->StructurallyEquals(*o.right_);
}

// ---------------------------------------------------------------------------
// Construction helpers
// ---------------------------------------------------------------------------

ExprPtr Lit(Value v) { return std::make_unique<LiteralExpr>(std::move(v)); }
ExprPtr Lit(int64_t v) { return Lit(Value::Int(v)); }
ExprPtr Lit(double v) { return Lit(Value::Double(v)); }
ExprPtr Lit(const char* v) { return Lit(Value::Str(v)); }

ExprPtr Col(const Schema& schema, int index) {
  const Column& c = schema.column(static_cast<size_t>(index));
  return std::make_unique<ColumnRefExpr>(index, c.type, c.name);
}

ExprPtr Col(const Schema& schema, const std::string& name) {
  Result<ExprPtr> r = ResolveColumn(schema, name);
  if (!r.ok()) {
    // Test/bench convenience path; a miss is a programming error.
    std::fprintf(stderr, "Col(%s): %s\n", name.c_str(),
                 r.status().ToString().c_str());
    std::abort();
  }
  return std::move(r).value();
}

Result<ExprPtr> ResolveColumn(const Schema& schema, const std::string& name,
                              const std::string& qualifier) {
  ASSIGN_OR_RETURN(int idx, schema.Resolve(name, qualifier));
  return Col(schema, idx);
}

ExprPtr Unary(UnaryOp op, ExprPtr child) {
  return std::make_unique<UnaryExpr>(op, std::move(child));
}

ExprPtr Binary(BinaryOp op, ExprPtr left, ExprPtr right) {
  return std::make_unique<BinaryExpr>(op, std::move(left), std::move(right));
}

ExprPtr Eq(ExprPtr l, ExprPtr r) {
  return Binary(BinaryOp::kEq, std::move(l), std::move(r));
}
ExprPtr Lt(ExprPtr l, ExprPtr r) {
  return Binary(BinaryOp::kLt, std::move(l), std::move(r));
}
ExprPtr Le(ExprPtr l, ExprPtr r) {
  return Binary(BinaryOp::kLe, std::move(l), std::move(r));
}
ExprPtr Gt(ExprPtr l, ExprPtr r) {
  return Binary(BinaryOp::kGt, std::move(l), std::move(r));
}
ExprPtr Ge(ExprPtr l, ExprPtr r) {
  return Binary(BinaryOp::kGe, std::move(l), std::move(r));
}
ExprPtr And(ExprPtr l, ExprPtr r) {
  return Binary(BinaryOp::kAnd, std::move(l), std::move(r));
}
ExprPtr Or(ExprPtr l, ExprPtr r) {
  return Binary(BinaryOp::kOr, std::move(l), std::move(r));
}

Result<Value> ApplyUnaryOp(UnaryOp op, const Value& v) {
  switch (op) {
    case UnaryOp::kNot:
      return value_ops::Not(v);
    case UnaryOp::kNegate:
      return value_ops::Negate(v);
    case UnaryOp::kIsNull:
      return Value::Bool(v.is_null());
    case UnaryOp::kIsNotNull:
      return Value::Bool(!v.is_null());
  }
  return Status::Internal("bad UnaryOp");
}

Result<Value> ApplyBinaryOp(BinaryOp op, const Value& l, const Value& r) {
  switch (op) {
    case BinaryOp::kAdd:
      return value_ops::Add(l, r);
    case BinaryOp::kSubtract:
      return value_ops::Subtract(l, r);
    case BinaryOp::kMultiply:
      return value_ops::Multiply(l, r);
    case BinaryOp::kDivide:
      return value_ops::Divide(l, r);
    case BinaryOp::kModulo:
      return value_ops::Modulo(l, r);
    case BinaryOp::kEq:
      return value_ops::CompareOp(CmpOp::kEq, l, r);
    case BinaryOp::kNe:
      return value_ops::CompareOp(CmpOp::kNe, l, r);
    case BinaryOp::kLt:
      return value_ops::CompareOp(CmpOp::kLt, l, r);
    case BinaryOp::kLe:
      return value_ops::CompareOp(CmpOp::kLe, l, r);
    case BinaryOp::kGt:
      return value_ops::CompareOp(CmpOp::kGt, l, r);
    case BinaryOp::kGe:
      return value_ops::CompareOp(CmpOp::kGe, l, r);
    case BinaryOp::kAnd:
      return value_ops::And(l, r);
    case BinaryOp::kOr:
      return value_ops::Or(l, r);
  }
  return Status::Internal("bad BinaryOp");
}

Result<bool> PredicateValue(const Value& v) {
  if (v.is_null()) return false;  // SQL WHERE: UNKNOWN rejects
  if (v.type() != TypeId::kBool) {
    return Status::TypeError("predicate evaluated to " + v.ToString() +
                             " (" + TypeName(v.type()) + "), expected bool");
  }
  return v.bool_val();
}

Result<bool> EvalPredicate(const Expr& pred, const Row& row,
                           const EvalContext& ctx) {
  ASSIGN_OR_RETURN(Value v, pred.Eval(row, ctx));
  return PredicateValue(v);
}

namespace {

/// Folds `node` to the literal it evaluates to when every child is already
/// a literal, evaluation succeeds, and the result keeps the node's static
/// type (see FoldConstants' contract in expr.h). Otherwise returns the node
/// unchanged.
ExprPtr TryFoldNode(ExprPtr node) {
  bool all_literal = false;
  if (node->kind() == ExprKind::kUnary) {
    all_literal = static_cast<const UnaryExpr&>(*node).child().kind() ==
                  ExprKind::kLiteral;
  } else if (node->kind() == ExprKind::kBinary) {
    const auto& bin = static_cast<const BinaryExpr&>(*node);
    all_literal = bin.left().kind() == ExprKind::kLiteral &&
                  bin.right().kind() == ExprKind::kLiteral;
  }
  if (!all_literal) return node;
  static const Row kEmptyRow;
  const EvalContext kEmptyCtx;
  Result<Value> v = node->Eval(kEmptyRow, kEmptyCtx);
  // A failing fold (1 / 0) must keep failing at run time — and only when a
  // row actually reaches it. A type-changing fold (NULL + 1 is statically
  // kInt64 but evaluates to NULL) would alter downstream compilation.
  if (!v.ok() || v->type() != node->type()) return node;
  return Lit(std::move(*v));
}

}  // namespace

ExprPtr FoldConstants(ExprPtr e) {
  if (e == nullptr) return e;
  switch (e->kind()) {
    case ExprKind::kUnary: {
      const auto& u = static_cast<const UnaryExpr&>(*e);
      ExprPtr child = FoldConstants(u.child().Clone());
      return TryFoldNode(
          std::make_unique<UnaryExpr>(u.op(), std::move(child)));
    }
    case ExprKind::kBinary: {
      const auto& bin = static_cast<const BinaryExpr&>(*e);
      ExprPtr left = FoldConstants(bin.left().Clone());
      ExprPtr right = FoldConstants(bin.right().Clone());
      return TryFoldNode(std::make_unique<BinaryExpr>(
          bin.op(), std::move(left), std::move(right)));
    }
    default:
      return e;  // leaves fold to themselves
  }
}

std::vector<ExprPtr> SplitConjuncts(ExprPtr pred) {
  std::vector<ExprPtr> out;
  if (pred == nullptr) return out;
  if (pred->kind() == ExprKind::kBinary) {
    auto* bin = static_cast<BinaryExpr*>(pred.get());
    if (bin->op() == BinaryOp::kAnd) {
      // Clone the children out of the AND node (simple and safe; predicate
      // trees are tiny).
      std::vector<ExprPtr> left = SplitConjuncts(bin->left().Clone());
      std::vector<ExprPtr> right = SplitConjuncts(bin->right().Clone());
      for (ExprPtr& e : left) out.push_back(std::move(e));
      for (ExprPtr& e : right) out.push_back(std::move(e));
      return out;
    }
  }
  out.push_back(std::move(pred));
  return out;
}

ExprPtr CombineConjuncts(std::vector<ExprPtr> conjuncts) {
  ExprPtr out;
  for (ExprPtr& c : conjuncts) {
    if (out == nullptr) {
      out = std::move(c);
    } else {
      out = And(std::move(out), std::move(c));
    }
  }
  return out;
}

}  // namespace gapply
