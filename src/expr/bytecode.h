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

/// Which evaluator a Filter / Project / scan-predicate path uses
/// (DESIGN.md §14). Selected per session with `SET expr_engine =
/// bytecode|interpret|auto` and per plan via LoweringOptions::expr_engine.
enum class ExprEngine {
  /// Resolve at operator Open: the GAPPLY_EXPR_ENGINE environment variable
  /// ("bytecode"/"interpret") when set, otherwise bytecode.
  kAuto,
  /// Tree-walking interpreter (Expr::EvalBatch), the seed behavior.
  kInterpret,
  /// Register-based bytecode compiled once at Open, executed
  /// column-at-a-time; falls back to the interpreter per expression when
  /// compilation declines a node.
  kBytecode,
};

const char* ExprEngineName(ExprEngine engine);

/// Parses "auto" / "interpret" / "bytecode"; false on anything else.
bool ParseExprEngine(const std::string& word, ExprEngine* out);

/// Resolves kAuto against the GAPPLY_EXPR_ENGINE environment variable
/// (the CI matrix knob); unset or unrecognized resolves to kBytecode.
/// Non-auto values pass through unchanged.
ExprEngine ResolveExprEngine(ExprEngine engine);

/// \brief A bound Expr tree flattened into linear register-based bytecode,
/// executed column-at-a-time over a whole batch per instruction.
///
/// Registers are typed vectors (int64 doubles as bool 0/1, double, borrowed
/// string pointers, dictionary codes) paired with a byte-per-row NULL mask;
/// constants and correlated outer values are stride-0 scalar registers
/// broadcast over the batch. Instructions are emitted in post-order
/// (left subtree, right subtree, combine), matching the order the tree
/// interpreter's general batch path evaluates — and therefore surfacing
/// runtime errors ("division by zero", "modulo by zero") identically.
///
/// The compiler is deliberately partial: any node whose static operand
/// types would make the interpreter raise a *value-dependent* type error
/// (non-numeric arithmetic, type-mismatched comparison, non-bool logic,
/// non-bool predicate result, NULL-typed column references) is declined
/// with a reason naming the node, and the owning operator falls back to the
/// interpreter for that expression. What does compile is bit-for-bit
/// identical to the interpreter, errors included (DESIGN.md §14).
///
/// A program holds per-execution register storage, so it is single-threaded
/// like the operator that owns it; parallel worker clones compile their own.
class ExprProgram {
 public:
  /// Compiles `expr` for evaluation over RowBatch input. Fails with a
  /// reason string (Status::NotImplemented) when a node is unsupported.
  static Result<std::unique_ptr<ExprProgram>> Compile(const Expr& expr);

  /// Compile() plus the predicate gate: the program's result must be
  /// statically bool (or the always-NULL literal), since the interpreter's
  /// non-bool-predicate error embeds the offending value.
  static Result<std::unique_ptr<ExprProgram>> CompilePredicate(
      const Expr& pred);

  /// Compiles pushed-down scan conjuncts against `table`'s dense columnar
  /// representation (dictionary string predicates become per-code match
  /// tables). The program then filters row ranges without touching Value.
  /// `table` must outlive the program.
  static Result<std::unique_ptr<ExprProgram>> CompileScanPredicates(
      const ColumnarTable& table, const std::vector<ScanPredicate>& preds);

  /// Evaluates over every row of `batch`, filling `*out` (cleared first)
  /// with one Value per row — the bytecode twin of Expr::EvalBatch.
  Status EvalBatch(const RowBatch& batch, const EvalContext& ctx,
                   std::vector<Value>* out);

  /// Predicate form: one 0/1 keep flag per row, SQL WHERE semantics
  /// (NULL rejects) — the bytecode twin of EvalPredicateBatch.
  Status EvalPredicateBatch(const RowBatch& batch, const EvalContext& ctx,
                            std::vector<char>* keep);

  /// Scan-program form: evaluates the compiled conjuncts over rows
  /// [begin, end) of the bound columnar table and appends passing row
  /// indexes to `*selection` (not cleared) — the bytecode twin of
  /// ColumnarTable::FilterRange.
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
  };

  /// How value registers are stored/viewed. Bool shares kI64 (0/1).
  enum class RegType : uint8_t { kI64, kF64, kStr, kCode };

  struct Instr {
    OpCode op;
    value_ops::CmpOp cmp = value_ops::CmpOp::kEq;  // kCmp* only
    uint16_t dst = 0;
    uint16_t a = 0;
    uint16_t b = 0;
    int32_t imm = 0;   // column index / outer depth
    int32_t imm2 = 0;  // outer index / aux table index
  };

  /// A typed register: owned storage for loads and instruction results,
  /// plus the views the execution loops read through. stride 0 broadcasts
  /// element 0 over the batch (constants, outer values, NULL scalars).
  struct Register {
    RegType rtype = RegType::kI64;
    /// Static value type of the expression node this register holds; drives
    /// result materialization and the outer-load runtime type check.
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
    std::string str_store;  // backing for scalar string values

    const int64_t* pi = nullptr;
    const double* pd = nullptr;
    const std::string_view* ps = nullptr;
    const uint32_t* pc = nullptr;
    const uint8_t* pn = nullptr;
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
