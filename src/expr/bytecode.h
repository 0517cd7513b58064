#ifndef GAPPLY_EXPR_BYTECODE_H_
#define GAPPLY_EXPR_BYTECODE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"
#include "src/common/row_batch.h"
#include "src/common/value.h"
#include "src/expr/expr.h"
#include "src/storage/columnar.h"

namespace gapply {

/// \brief A bound Expr tree flattened into linear register-based bytecode,
/// executed column-at-a-time over a whole batch per instruction. It is the
/// only evaluator of Filter, Project and pushed-down scan predicates
/// (DESIGN.md §14).
///
/// Typed registers are vectors (int64 doubles as bool 0/1, double, borrowed
/// string pointers, dictionary codes) paired with a byte-per-row NULL mask;
/// constants and correlated outer values are stride-0 scalar registers
/// broadcast over the batch. Instructions are emitted in post-order (left
/// subtree, right subtree, combine), so runtime errors ("division by
/// zero", "modulo by zero") surface in a fixed, documented order.
///
/// Compilation is total. A node whose result the static types cannot pin
/// down — NULL-typed column or correlated refs, arithmetic / `not` /
/// negate / `and` / `or` over ill-typed operands, mismatched comparisons,
/// and everything above such a node — compiles to *boxed* instructions:
/// the register holds one Value per row, a `box` step fills it from typed
/// children, and the row interpreter's own ApplyUnaryOp / ApplyBinaryOp /
/// PredicateValue combine it, so values and error texts are Eval's. The
/// only compile error is the register limit.
///
/// A program holds per-execution register storage, so it is single-threaded
/// like the operator that owns it; parallel worker clones compile their own.
class ExprProgram {
 public:
  /// Compiles `expr` for evaluation over RowBatch input. Fails only when
  /// the expression needs more registers than an instruction can address.
  static Result<std::unique_ptr<ExprProgram>> Compile(const Expr& expr);

  /// Compile() for a WHERE-style predicate. A result that is not
  /// statically bool (or the always-NULL type) is boxed, so each row goes
  /// through PredicateValue and a non-bool value raises its TypeError.
  static Result<std::unique_ptr<ExprProgram>> CompilePredicate(
      const Expr& pred);

  /// Compiles pushed-down scan conjuncts against `table`'s dense columnar
  /// representation (dictionary string predicates become per-code match
  /// tables). The program then filters row ranges without touching Value.
  /// `table` must outlive the program.
  static Result<std::unique_ptr<ExprProgram>> CompileScanPredicates(
      const ColumnarTable& table, const std::vector<ScanPredicate>& preds);

  /// Evaluates over every row of `batch`, filling `*out` (cleared first)
  /// with one Value per row: per row, the value Expr::Eval returns.
  Status EvalBatch(const RowBatch& batch, const EvalContext& ctx,
                   std::vector<Value>* out);

  /// Predicate form: one 0/1 keep flag per row, SQL WHERE semantics
  /// (NULL rejects): per row, what EvalPredicate returns.
  Status EvalPredicateBatch(const RowBatch& batch, const EvalContext& ctx,
                            std::vector<char>* keep);

  /// Scan-program form: evaluates the compiled conjuncts over rows
  /// [begin, end) of the bound columnar table and appends passing row
  /// indexes to `*selection` (not cleared). NULL rejects.
  Status FilterRange(size_t begin, size_t end,
                     std::vector<uint32_t>* selection);

  size_t num_instructions() const { return instrs_.size(); }

  /// One instruction per line, e.g. "r2 <- cmp.gt.i64 r0 r1" — for tests
  /// and debugging.
  std::string ToString() const;

 private:
  enum class OpCode : uint8_t {
    kLoadCol,      // row binding: dst <- batch column [imm]
    kLoadOuter,    // dst <- outer_rows[depth=imm][index=imm2], broadcast
    kLoadColView,  // columnar binding: dst views column [imm] over range
    kCastIToD,
    kAddI,
    kSubI,
    kMulI,
    kDivI,
    kModI,
    kAddD,
    kSubD,
    kMulD,
    kDivD,
    kNegI,
    kNegD,
    kCmpI,   // also bool-vs-bool (bools live in i64 registers as 0/1)
    kCmpD,
    kCmpS,
    kCmpCode,  // dictionary codes vs per-code match table aux_[imm2]
    kAnd,
    kOr,
    kNot,
    kIsNull,
    kIsNotNull,
    // Boxed instructions (kLoadCol and kLoadOuter also fill boxed
    // registers, for NULL-typed references):
    kBox,          // boxed dst <- typed a, one Value per row
    kUnaryBoxed,   // boxed dst <- ApplyUnaryOp(UnaryOp imm, a)
    kBinaryBoxed,  // boxed dst <- ApplyBinaryOp(BinaryOp imm, a, b)
  };

  /// How value registers are stored/viewed. Bool shares kI64 (0/1);
  /// kBoxed holds one Value per row and no NULL mask.
  enum class RegType : uint8_t { kI64, kF64, kStr, kCode, kBoxed };

  struct Instr {
    OpCode op;
    value_ops::CmpOp cmp = value_ops::CmpOp::kEq;  // kCmp* only
    uint16_t dst = 0;
    uint16_t a = 0;
    uint16_t b = 0;
    int32_t imm = 0;   // column index / outer depth / boxed operator
    int32_t imm2 = 0;  // outer index / aux table index
  };

  /// A typed register: owned storage for loads and instruction results,
  /// plus the views the execution loops read through. stride 0 broadcasts
  /// element 0 over the batch (constants, outer values, NULL scalars).
  struct Register {
    RegType rtype = RegType::kI64;
    /// Static value type of the expression node this register holds; drives
    /// result materialization, boxing and the load runtime type checks.
    /// Informational only for boxed registers, whose values may differ.
    TypeId vtype = TypeId::kNull;
    /// Scalar register: storage holds one element, views are stride 0.
    /// Filled at compile time for constants, per execution for outer refs.
    bool scalar = false;
    /// Columnar view register: no owned storage; kLoadColView points the
    /// views straight at the table's dense arrays for the bound range.
    bool view = false;

    std::vector<int64_t> i64;
    std::vector<double> f64;
    std::vector<std::string_view> str;
    std::vector<uint8_t> null;
    std::vector<Value> val;  // kBoxed storage
    std::string str_store;  // backing for scalar string values

    const int64_t* pi = nullptr;
    const double* pd = nullptr;
    const std::string_view* ps = nullptr;
    const uint32_t* pc = nullptr;
    const uint8_t* pn = nullptr;
    const Value* pv = nullptr;
    size_t stride = 1;
  };

  ExprProgram() = default;

  class Compiler;  // tree walker; declared in bytecode.cc

  static RegType RegTypeFor(TypeId t);

  uint16_t AllocRegister(RegType rtype, TypeId vtype);
  uint16_t AllocConst(const Value& v);
  uint16_t AllocNullScalar(TypeId vtype);

  /// Points every scratch register's views at its (resized) owned storage
  /// and every scalar register's views at its element 0.
  void BindScratch(size_t n);
  /// Executes all instructions over `n` rows; inputs must be bound.
  Status Run(const RowBatch* batch, const EvalContext* ctx, size_t n);

  bool boxed(uint16_t reg) const {
    return regs_[reg].rtype == RegType::kBoxed;
  }

  std::vector<Instr> instrs_;
  std::vector<Register> regs_;
  /// Per-code dictionary match tables for kCmpCode.
  std::vector<std::vector<uint8_t>> aux_;
  /// Result register of Compile()/CompilePredicate() programs.
  uint16_t result_reg_ = 0;
  TypeId result_type_ = TypeId::kNull;
  /// Result registers of CompileScanPredicates() programs (one per
  /// conjunct; a row passes iff every one is non-NULL true).
  std::vector<uint16_t> pred_regs_;
  /// Columnar binding (scan programs): the table whose dense arrays
  /// kLoadColView borrows, and the range bound by FilterRange.
  const ColumnarTable* table_ = nullptr;
  size_t range_begin_ = 0;
};

}  // namespace gapply

#endif  // GAPPLY_EXPR_BYTECODE_H_
