#ifndef GAPPLY_EXPR_EXPR_H_
#define GAPPLY_EXPR_EXPR_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/common/value.h"
#include "src/storage/schema.h"

namespace gapply {

/// \brief Runtime context available to expression evaluation.
///
/// Correlated column references (created when the binder turns a correlated
/// subquery into an Apply operator) read from `outer_rows`, a stack of the
/// rows currently bound by enclosing Apply operators. `outer_rows.back()` is
/// the innermost enclosing Apply's current row (depth 0).
struct EvalContext {
  std::vector<const Row*> outer_rows;
};

enum class ExprKind {
  kLiteral,
  kColumnRef,
  kCorrelatedColumnRef,
  kUnary,
  kBinary,
};

enum class UnaryOp { kNot, kNegate, kIsNull, kIsNotNull };

enum class BinaryOp {
  kAdd,
  kSubtract,
  kMultiply,
  kDivide,
  kModulo,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
};

/// Returns the SQL spelling of an operator ("+", ">=", "and", ...).
const char* UnaryOpName(UnaryOp op);
const char* BinaryOpName(BinaryOp op);

/// \brief A *bound* scalar expression: column references are positional
/// indexes into the input row (or into an enclosing Apply's row).
///
/// Expressions are immutable after construction; the optimizer copies via
/// Clone and rewrites column indexes with RemapColumns.
class Expr {
 public:
  virtual ~Expr() = default;

  ExprKind kind() const { return kind_; }
  /// Static result type, fixed at construction/binding time.
  TypeId type() const { return type_; }

  /// Evaluates against `row` (the current input tuple). This is the row
  /// interpreter: aggregates, constant folding and join residuals call it;
  /// Filter / Project / scan predicates run compiled ExprPrograms instead.
  virtual Result<Value> Eval(const Row& row, const EvalContext& ctx) const = 0;

  virtual std::unique_ptr<Expr> Clone() const = 0;
  virtual std::string ToString() const = 0;

  /// Structural equality (same tree, same indexes, same literals). Used to
  /// detect selections that duplicate a pushed covering range.
  virtual bool StructurallyEquals(const Expr& other) const = 0;

  /// Adds the input-row column indexes referenced anywhere in this tree
  /// (correlated references are *not* included; they name outer columns).
  virtual void CollectColumns(std::set<int>* indexes) const = 0;

  /// Rewrites every input-row column index i to old_to_new[i]. Every
  /// referenced index must be mapped (>= 0); returns an Internal error
  /// otherwise. Correlated references are left untouched.
  virtual Status RemapColumns(const std::vector<int>& old_to_new) = 0;

 protected:
  Expr(ExprKind kind, TypeId type) : kind_(kind), type_(type) {}

  ExprKind kind_;
  TypeId type_;
};

using ExprPtr = std::unique_ptr<Expr>;

/// A constant.
class LiteralExpr : public Expr {
 public:
  explicit LiteralExpr(Value value)
      : Expr(ExprKind::kLiteral, value.type()), value_(std::move(value)) {}

  const Value& value() const { return value_; }

  Result<Value> Eval(const Row& row, const EvalContext& ctx) const override;
  ExprPtr Clone() const override;
  std::string ToString() const override;
  bool StructurallyEquals(const Expr& other) const override;
  void CollectColumns(std::set<int>*) const override {}
  Status RemapColumns(const std::vector<int>&) override { return Status::OK(); }

 private:
  Value value_;
};

/// A positional reference into the input row.
class ColumnRefExpr : public Expr {
 public:
  ColumnRefExpr(int index, TypeId type, std::string name)
      : Expr(ExprKind::kColumnRef, type),
        index_(index),
        name_(std::move(name)) {}

  int index() const { return index_; }
  const std::string& name() const { return name_; }

  Result<Value> Eval(const Row& row, const EvalContext& ctx) const override;
  ExprPtr Clone() const override;
  std::string ToString() const override;
  bool StructurallyEquals(const Expr& other) const override;
  void CollectColumns(std::set<int>* indexes) const override {
    indexes->insert(index_);
  }
  Status RemapColumns(const std::vector<int>& old_to_new) override;

 private:
  int index_;
  std::string name_;
};

/// A reference to a column of an enclosing Apply's current outer row.
/// depth 0 = innermost enclosing Apply.
class CorrelatedColumnRefExpr : public Expr {
 public:
  CorrelatedColumnRefExpr(int depth, int index, TypeId type, std::string name)
      : Expr(ExprKind::kCorrelatedColumnRef, type),
        depth_(depth),
        index_(index),
        name_(std::move(name)) {}

  int depth() const { return depth_; }
  int index() const { return index_; }
  const std::string& name() const { return name_; }

  Result<Value> Eval(const Row& row, const EvalContext& ctx) const override;
  ExprPtr Clone() const override;
  std::string ToString() const override;
  bool StructurallyEquals(const Expr& other) const override;
  void CollectColumns(std::set<int>*) const override {}
  Status RemapColumns(const std::vector<int>&) override { return Status::OK(); }

 private:
  int depth_;
  int index_;
  std::string name_;
};

class UnaryExpr : public Expr {
 public:
  UnaryExpr(UnaryOp op, ExprPtr child);

  UnaryOp op() const { return op_; }
  const Expr& child() const { return *child_; }

  Result<Value> Eval(const Row& row, const EvalContext& ctx) const override;
  ExprPtr Clone() const override;
  std::string ToString() const override;
  bool StructurallyEquals(const Expr& other) const override;
  void CollectColumns(std::set<int>* indexes) const override {
    child_->CollectColumns(indexes);
  }
  Status RemapColumns(const std::vector<int>& old_to_new) override {
    return child_->RemapColumns(old_to_new);
  }

 private:
  UnaryOp op_;
  ExprPtr child_;
};

class BinaryExpr : public Expr {
 public:
  BinaryExpr(BinaryOp op, ExprPtr left, ExprPtr right);

  BinaryOp op() const { return op_; }
  const Expr& left() const { return *left_; }
  const Expr& right() const { return *right_; }

  Result<Value> Eval(const Row& row, const EvalContext& ctx) const override;
  ExprPtr Clone() const override;
  std::string ToString() const override;
  bool StructurallyEquals(const Expr& other) const override;
  void CollectColumns(std::set<int>* indexes) const override {
    left_->CollectColumns(indexes);
    right_->CollectColumns(indexes);
  }
  Status RemapColumns(const std::vector<int>& old_to_new) override {
    RETURN_NOT_OK(left_->RemapColumns(old_to_new));
    return right_->RemapColumns(old_to_new);
  }

 private:
  BinaryOp op_;
  ExprPtr left_;
  ExprPtr right_;
};

// ---------------------------------------------------------------------------
// Construction helpers (used by the plan-builder API and tests).
// ---------------------------------------------------------------------------

ExprPtr Lit(Value v);
ExprPtr Lit(int64_t v);
ExprPtr Lit(double v);
ExprPtr Lit(const char* v);

/// Bound column reference by position (type/name looked up in `schema`).
ExprPtr Col(const Schema& schema, int index);

/// Bound column reference by (possibly qualified) name; aborts on failure —
/// intended for tests and benches where the schema is known. Prefer
/// `ResolveColumn` in production paths.
ExprPtr Col(const Schema& schema, const std::string& name);

/// Fallible bound column reference.
Result<ExprPtr> ResolveColumn(const Schema& schema, const std::string& name,
                              const std::string& qualifier = "");

ExprPtr Unary(UnaryOp op, ExprPtr child);
ExprPtr Binary(BinaryOp op, ExprPtr left, ExprPtr right);
ExprPtr Eq(ExprPtr l, ExprPtr r);
ExprPtr Lt(ExprPtr l, ExprPtr r);
ExprPtr Le(ExprPtr l, ExprPtr r);
ExprPtr Gt(ExprPtr l, ExprPtr r);
ExprPtr Ge(ExprPtr l, ExprPtr r);
ExprPtr And(ExprPtr l, ExprPtr r);
ExprPtr Or(ExprPtr l, ExprPtr r);

/// Applies an operator to already-evaluated operands: the per-node step of
/// Eval, shared with the bytecode engine's boxed instructions so both raise
/// the same values and errors.
Result<Value> ApplyUnaryOp(UnaryOp op, const Value& v);
Result<Value> ApplyBinaryOp(BinaryOp op, const Value& l, const Value& r);

/// Interprets an evaluated predicate value for operator filtering: NULL and
/// false both reject (SQL WHERE semantics); a non-bool value is a TypeError
/// that names it.
Result<bool> PredicateValue(const Value& v);

/// Eval followed by PredicateValue.
Result<bool> EvalPredicate(const Expr& pred, const Row& row,
                           const EvalContext& ctx);

/// Bottom-up constant folding: replaces every operator node whose children
/// are all literals with the literal it evaluates to, so compiled programs
/// skip dead work (`1 + 2 < x` becomes `3 < x`). Deliberately conservative
/// to preserve semantics exactly:
///  - a node is NOT folded when evaluation fails (`1 / 0` must keep raising
///    "division by zero" at run time — over an empty input it never runs,
///    so folding to an error would change behavior);
///  - a node is NOT folded when the result's type differs from the node's
///    static type (`NULL + 1` evaluates to NULL but is statically kInt64;
///    folding would change downstream compilation and error wording).
ExprPtr FoldConstants(ExprPtr e);

/// Splits a predicate on AND into its conjuncts (ownership transferred).
std::vector<ExprPtr> SplitConjuncts(ExprPtr pred);

/// Combines conjuncts with AND (returns nullptr for an empty list).
ExprPtr CombineConjuncts(std::vector<ExprPtr> conjuncts);

}  // namespace gapply

#endif  // GAPPLY_EXPR_EXPR_H_
