#include "src/expr/bytecode.h"

#include <algorithm>
#include <cstdio>
#include <optional>

namespace gapply {

namespace {

using value_ops::CmpOp;

/// True iff three-way comparison result `c` (-1/0/1) satisfies `op` —
/// exactly how value_ops::CompareOp consumes Value::Compare.
inline bool CmpHolds(CmpOp op, int c) {
  switch (op) {
    case CmpOp::kEq:
      return c == 0;
    case CmpOp::kNe:
      return c != 0;
    case CmpOp::kLt:
      return c < 0;
    case CmpOp::kLe:
      return c <= 0;
    case CmpOp::kGt:
      return c > 0;
    case CmpOp::kGe:
      return c >= 0;
  }
  return false;
}

/// Value::Compare's numeric formula: NaN is neither < nor >, so it lands on
/// 0 (compares equal) — the VM must reproduce that, not use ==.
template <typename T>
inline int Rel3(T x, T y) {
  return x < y ? -1 : (x > y ? 1 : 0);
}

CmpOp CmpFromBinary(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
      return CmpOp::kEq;
    case BinaryOp::kNe:
      return CmpOp::kNe;
    case BinaryOp::kLt:
      return CmpOp::kLt;
    case BinaryOp::kLe:
      return CmpOp::kLe;
    case BinaryOp::kGt:
      return CmpOp::kGt;
    case BinaryOp::kGe:
      return CmpOp::kGe;
    default:
      return CmpOp::kEq;  // unreachable: callers pass comparison ops only
  }
}

const char* CmpName(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "eq";
    case CmpOp::kNe:
      return "ne";
    case CmpOp::kLt:
      return "lt";
    case CmpOp::kLe:
      return "le";
    case CmpOp::kGt:
      return "gt";
    case CmpOp::kGe:
      return "ge";
  }
  return "?";
}

}  // namespace

// ---------------------------------------------------------------------------
// Compiler
// ---------------------------------------------------------------------------

/// Post-order tree walker: child programs are emitted before the combining
/// instruction (left subtree fully, then right, then the per-row combine),
/// which fixes the order in which runtime errors surface. A node is typed
/// when its children are typed and its operand types admit a typed
/// instruction; otherwise it is boxed, and so is every node above it.
class ExprProgram::Compiler {
 public:
  explicit Compiler(ExprProgram* p) : p_(p) {}

  Result<uint16_t> CompileNode(const Expr& e);

  /// Boxes a typed register (no-op for a boxed one).
  uint16_t Box(uint16_t reg);

 private:
  Result<uint16_t> CompileUnary(const UnaryExpr& e);
  Result<uint16_t> CompileBinary(const BinaryExpr& e);
  /// Typed instruction for `e` over typed operands `a` and `b`; nullopt
  /// when the operand types admit none.
  std::optional<uint16_t> TypedBinary(const BinaryExpr& e, uint16_t a,
                                      uint16_t b);
  /// Inserts an int→double cast unless the operand is already double or is
  /// the typed-NULL scalar (whose double view is valid as-is).
  uint16_t EnsureDouble(uint16_t reg, TypeId static_type);

  uint16_t Emit(OpCode op, uint16_t dst, uint16_t a = 0, uint16_t b = 0,
                int32_t imm = 0) {
    Instr in;
    in.op = op;
    in.dst = dst;
    in.a = a;
    in.b = b;
    in.imm = imm;
    p_->instrs_.push_back(in);
    return dst;
  }

  ExprProgram* p_;
};

ExprProgram::RegType ExprProgram::RegTypeFor(TypeId t) {
  switch (t) {
    case TypeId::kDouble:
      return RegType::kF64;
    case TypeId::kString:
      return RegType::kStr;
    default:  // bool / int64 / null all live in i64 storage
      return RegType::kI64;
  }
}

uint16_t ExprProgram::AllocRegister(RegType rtype, TypeId vtype) {
  Register r;
  r.rtype = rtype;
  r.vtype = vtype;
  regs_.push_back(std::move(r));
  return static_cast<uint16_t>(regs_.size() - 1);
}

uint16_t ExprProgram::AllocNullScalar(TypeId vtype) {
  const uint16_t idx = AllocRegister(RegTypeFor(vtype), vtype);
  Register& r = regs_[idx];
  r.scalar = true;
  r.i64.assign(1, 0);
  r.f64.assign(1, 0.0);
  r.null.assign(1, 1);
  return idx;
}

uint16_t ExprProgram::AllocConst(const Value& v) {
  if (v.is_null()) return AllocNullScalar(TypeId::kNull);
  const uint16_t idx = AllocRegister(RegTypeFor(v.type()), v.type());
  Register& r = regs_[idx];
  r.scalar = true;
  r.i64.assign(1, 0);
  r.f64.assign(1, 0.0);
  r.null.assign(1, 0);
  switch (v.type()) {
    case TypeId::kBool:
      r.i64[0] = v.bool_val() ? 1 : 0;
      break;
    case TypeId::kInt64:
      r.i64[0] = v.int_val();
      break;
    case TypeId::kDouble:
      r.f64[0] = v.double_val();
      break;
    case TypeId::kString:
      r.str_store.assign(v.str_val());  // viewed from BindScratch
      break;
    default:
      break;
  }
  return idx;
}

Result<uint16_t> ExprProgram::Compiler::CompileNode(const Expr& e) {
  if (p_->regs_.size() >= 0xFFF0u) {
    return Status::NotImplemented("expression too large for bytecode");
  }
  switch (e.kind()) {
    case ExprKind::kLiteral:
      return p_->AllocConst(static_cast<const LiteralExpr&>(e).value());
    case ExprKind::kColumnRef: {
      // A NULL-typed column may hold values of any type: load it boxed.
      const RegType rt = e.type() == TypeId::kNull ? RegType::kBoxed
                                                   : RegTypeFor(e.type());
      const uint16_t dst = p_->AllocRegister(rt, e.type());
      return Emit(OpCode::kLoadCol, dst, 0, 0,
                  static_cast<const ColumnRefExpr&>(e).index());
    }
    case ExprKind::kCorrelatedColumnRef: {
      const auto& ref = static_cast<const CorrelatedColumnRefExpr&>(e);
      const RegType rt = e.type() == TypeId::kNull ? RegType::kBoxed
                                                   : RegTypeFor(e.type());
      const uint16_t dst = p_->AllocRegister(rt, e.type());
      p_->regs_[dst].scalar = true;  // resolved once, broadcast stride-0
      Emit(OpCode::kLoadOuter, dst, 0, 0, ref.depth());
      p_->instrs_.back().imm2 = ref.index();
      return dst;
    }
    case ExprKind::kUnary:
      return CompileUnary(static_cast<const UnaryExpr&>(e));
    case ExprKind::kBinary:
      return CompileBinary(static_cast<const BinaryExpr&>(e));
  }
  return Status::Internal("bad ExprKind");
}

uint16_t ExprProgram::Compiler::Box(uint16_t reg) {
  if (p_->boxed(reg)) return reg;
  const uint16_t dst =
      p_->AllocRegister(RegType::kBoxed, p_->regs_[reg].vtype);
  return Emit(OpCode::kBox, dst, reg);
}

Result<uint16_t> ExprProgram::Compiler::CompileUnary(const UnaryExpr& e) {
  ASSIGN_OR_RETURN(uint16_t a, CompileNode(e.child()));
  const TypeId ct = e.child().type();
  if (!p_->boxed(a)) {
    switch (e.op()) {
      case UnaryOp::kIsNull:
      case UnaryOp::kIsNotNull:
        return Emit(
            e.op() == UnaryOp::kIsNull ? OpCode::kIsNull : OpCode::kIsNotNull,
            p_->AllocRegister(RegType::kI64, TypeId::kBool), a);
      case UnaryOp::kNot:
        if (ct == TypeId::kBool || ct == TypeId::kNull) {
          return Emit(OpCode::kNot,
                      p_->AllocRegister(RegType::kI64, TypeId::kBool), a);
        }
        break;
      case UnaryOp::kNegate:
        // A typed-NULL child boxes too: it only ever negates to NULL, not
        // worth a typed path.
        if (ct == TypeId::kInt64) {
          return Emit(OpCode::kNegI,
                      p_->AllocRegister(RegType::kI64, TypeId::kInt64), a);
        }
        if (ct == TypeId::kDouble) {
          return Emit(OpCode::kNegD,
                      p_->AllocRegister(RegType::kF64, TypeId::kDouble), a);
        }
        break;
    }
  }
  const uint16_t boxed_a = Box(a);
  return Emit(OpCode::kUnaryBoxed,
              p_->AllocRegister(RegType::kBoxed, e.type()), boxed_a, 0,
              static_cast<int32_t>(e.op()));
}

uint16_t ExprProgram::Compiler::EnsureDouble(uint16_t reg,
                                             TypeId static_type) {
  if (static_type == TypeId::kDouble || static_type == TypeId::kNull) {
    return reg;
  }
  const uint16_t dst = p_->AllocRegister(RegType::kF64, TypeId::kDouble);
  return Emit(OpCode::kCastIToD, dst, reg);
}

Result<uint16_t> ExprProgram::Compiler::CompileBinary(const BinaryExpr& e) {
  ASSIGN_OR_RETURN(uint16_t a, CompileNode(e.left()));
  ASSIGN_OR_RETURN(uint16_t b, CompileNode(e.right()));
  if (!p_->boxed(a) && !p_->boxed(b)) {
    if (std::optional<uint16_t> typed = TypedBinary(e, a, b)) return *typed;
  }
  const uint16_t boxed_a = Box(a);
  const uint16_t boxed_b = Box(b);
  return Emit(OpCode::kBinaryBoxed,
              p_->AllocRegister(RegType::kBoxed, e.type()), boxed_a, boxed_b,
              static_cast<int32_t>(e.op()));
}

std::optional<uint16_t> ExprProgram::Compiler::TypedBinary(
    const BinaryExpr& e, uint16_t a, uint16_t b) {
  const BinaryOp op = e.op();
  const TypeId lt = e.left().type();
  const TypeId rt = e.right().type();
  const auto num_or_null = [](TypeId t) {
    return t == TypeId::kInt64 || t == TypeId::kDouble || t == TypeId::kNull;
  };

  switch (op) {
    case BinaryOp::kAdd:
    case BinaryOp::kSubtract:
    case BinaryOp::kMultiply:
    case BinaryOp::kDivide: {
      // Bool/string operands raise a type error on non-NULL rows only.
      if (!num_or_null(lt) || !num_or_null(rt)) return std::nullopt;
      if (lt == TypeId::kNull && rt == TypeId::kNull) {
        // Children were still compiled: their effects (errors) must fire.
        return p_->AllocNullScalar(e.type());
      }
      const bool dbl = lt == TypeId::kDouble || rt == TypeId::kDouble;
      Instr in;
      if (dbl) {
        in.a = EnsureDouble(a, lt);
        in.b = EnsureDouble(b, rt);
        in.dst = p_->AllocRegister(RegType::kF64, TypeId::kDouble);
        switch (op) {
          case BinaryOp::kAdd:
            in.op = OpCode::kAddD;
            break;
          case BinaryOp::kSubtract:
            in.op = OpCode::kSubD;
            break;
          case BinaryOp::kMultiply:
            in.op = OpCode::kMulD;
            break;
          default:
            in.op = OpCode::kDivD;
            break;
        }
      } else {
        in.a = a;
        in.b = b;
        in.dst = p_->AllocRegister(RegType::kI64, TypeId::kInt64);
        switch (op) {
          case BinaryOp::kAdd:
            in.op = OpCode::kAddI;
            break;
          case BinaryOp::kSubtract:
            in.op = OpCode::kSubI;
            break;
          case BinaryOp::kMultiply:
            in.op = OpCode::kMulI;
            break;
          default:
            in.op = OpCode::kDivI;
            break;
        }
      }
      p_->instrs_.push_back(in);
      return in.dst;
    }

    case BinaryOp::kModulo:
      for (TypeId t : {lt, rt}) {
        if (t != TypeId::kInt64 && t != TypeId::kNull) return std::nullopt;
      }
      return Emit(OpCode::kModI,
                  p_->AllocRegister(RegType::kI64, TypeId::kInt64), a, b);

    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe: {
      if (lt == TypeId::kNull || rt == TypeId::kNull) {
        // CompareOp is NULL-first: the result is NULL before any type
        // check, whatever the other side is — but both children still ran.
        return p_->AllocNullScalar(TypeId::kBool);
      }
      Instr in;
      if (IsNumeric(lt) && IsNumeric(rt)) {
        if (lt == TypeId::kInt64 && rt == TypeId::kInt64) {
          in.op = OpCode::kCmpI;
          in.a = a;
          in.b = b;
        } else {
          in.op = OpCode::kCmpD;
          in.a = EnsureDouble(a, lt);
          in.b = EnsureDouble(b, rt);
        }
      } else if (lt == TypeId::kString && rt == TypeId::kString) {
        in.op = OpCode::kCmpS;
        in.a = a;
        in.b = b;
      } else if (lt == TypeId::kBool && rt == TypeId::kBool) {
        // Value::Compare orders bools as x - y; 0/1 in i64 gives the same.
        in.op = OpCode::kCmpI;
        in.a = a;
        in.b = b;
      } else {
        return std::nullopt;  // mismatched: a type error on non-NULL rows
      }
      in.cmp = CmpFromBinary(op);
      in.dst = p_->AllocRegister(RegType::kI64, TypeId::kBool);
      p_->instrs_.push_back(in);
      return in.dst;
    }

    case BinaryOp::kAnd:
    case BinaryOp::kOr:
      for (TypeId t : {lt, rt}) {
        if (t != TypeId::kBool && t != TypeId::kNull) return std::nullopt;
      }
      return Emit(op == BinaryOp::kAnd ? OpCode::kAnd : OpCode::kOr,
                  p_->AllocRegister(RegType::kI64, TypeId::kBool), a, b);
  }
  return std::nullopt;
}

Result<std::unique_ptr<ExprProgram>> ExprProgram::Compile(const Expr& expr) {
  std::unique_ptr<ExprProgram> p(new ExprProgram());
  Compiler compiler(p.get());
  ASSIGN_OR_RETURN(uint16_t result, compiler.CompileNode(expr));
  p->result_reg_ = result;
  p->result_type_ = expr.type();
  return p;
}

Result<std::unique_ptr<ExprProgram>> ExprProgram::CompilePredicate(
    const Expr& pred) {
  ASSIGN_OR_RETURN(std::unique_ptr<ExprProgram> p, Compile(pred));
  const TypeId t = p->regs_[p->result_reg_].vtype;
  if (!p->boxed(p->result_reg_) && t != TypeId::kBool && t != TypeId::kNull) {
    // The non-bool-predicate error embeds the offending value.
    p->result_reg_ = Compiler(p.get()).Box(p->result_reg_);
  }
  return p;
}

Result<std::unique_ptr<ExprProgram>> ExprProgram::CompileScanPredicates(
    const ColumnarTable& table, const std::vector<ScanPredicate>& preds) {
  std::unique_ptr<ExprProgram> p(new ExprProgram());
  p->table_ = &table;
  std::vector<CompiledPredicate> compiled = table.CompilePredicates(preds);
  for (CompiledPredicate& cp : compiled) {
    const ColumnVector& col = table.column(static_cast<size_t>(cp.column));
    const auto load = [&](RegType rt, TypeId vt) {
      const uint16_t dst = p->AllocRegister(rt, vt);
      p->regs_[dst].view = true;
      Instr in;
      in.op = OpCode::kLoadColView;
      in.dst = dst;
      in.imm = cp.column;
      p->instrs_.push_back(in);
      return dst;
    };
    uint16_t dst = 0;
    switch (cp.kind) {
      case CompiledPredicate::Kind::kInt: {
        const uint16_t c = load(RegType::kI64, col.type());
        const uint16_t lit = p->AllocConst(Value::Int(cp.i64));
        dst = p->AllocRegister(RegType::kI64, TypeId::kBool);
        Instr in;
        in.op = OpCode::kCmpI;
        in.cmp = cp.op;
        in.dst = dst;
        in.a = c;
        in.b = lit;
        p->instrs_.push_back(in);
        break;
      }
      case CompiledPredicate::Kind::kIntAsDouble: {
        const uint16_t c = load(RegType::kI64, col.type());
        const uint16_t cd = p->AllocRegister(RegType::kF64, TypeId::kDouble);
        {
          Instr in;
          in.op = OpCode::kCastIToD;
          in.dst = cd;
          in.a = c;
          p->instrs_.push_back(in);
        }
        const uint16_t lit = p->AllocConst(Value::Double(cp.f64));
        dst = p->AllocRegister(RegType::kI64, TypeId::kBool);
        Instr in;
        in.op = OpCode::kCmpD;
        in.cmp = cp.op;
        in.dst = dst;
        in.a = cd;
        in.b = lit;
        p->instrs_.push_back(in);
        break;
      }
      case CompiledPredicate::Kind::kDouble: {
        const uint16_t c = load(RegType::kF64, col.type());
        const uint16_t lit = p->AllocConst(Value::Double(cp.f64));
        dst = p->AllocRegister(RegType::kI64, TypeId::kBool);
        Instr in;
        in.op = OpCode::kCmpD;
        in.cmp = cp.op;
        in.dst = dst;
        in.a = c;
        in.b = lit;
        p->instrs_.push_back(in);
        break;
      }
      case CompiledPredicate::Kind::kString: {
        const uint16_t c = load(RegType::kCode, col.type());
        p->aux_.push_back(std::move(cp.dict_match));
        dst = p->AllocRegister(RegType::kI64, TypeId::kBool);
        Instr in;
        in.op = OpCode::kCmpCode;
        in.dst = dst;
        in.a = c;
        in.imm2 = static_cast<int32_t>(p->aux_.size() - 1);
        p->instrs_.push_back(in);
        break;
      }
    }
    p->pred_regs_.push_back(dst);
  }
  return p;
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

void ExprProgram::BindScratch(size_t n) {
  for (Register& r : regs_) {
    if (r.view) {
      r.stride = 1;  // the rest is bound by kLoadColView at run time
      continue;
    }
    if (r.scalar) {
      if (r.i64.empty()) r.i64.resize(1);
      if (r.f64.empty()) r.f64.resize(1);
      if (r.null.empty()) r.null.resize(1);
      if (r.val.empty()) r.val.resize(1);
      r.pv = r.val.data();
      // (Re)point at str_store every bind: the Register may have moved
      // since the last execution, and small strings move their bytes.
      r.str.assign(1, r.str_store);
      r.pi = r.i64.data();
      r.pd = r.f64.data();
      r.ps = r.str.data();
      r.pn = r.null.data();
      r.stride = 0;
      continue;
    }
    switch (r.rtype) {
      case RegType::kI64:
        r.i64.resize(n);
        r.pi = r.i64.data();
        break;
      case RegType::kF64:
        r.f64.resize(n);
        r.pd = r.f64.data();
        break;
      case RegType::kStr:
        r.str.resize(n);
        r.ps = r.str.data();
        break;
      case RegType::kCode:
        break;  // codes only ever come from columnar views
      case RegType::kBoxed:
        r.val.resize(n);
        r.pv = r.val.data();
        r.stride = 1;
        continue;  // boxed values carry their own NULLs
    }
    r.null.resize(n);
    r.pn = r.null.data();
    r.stride = 1;
  }
}

Status ExprProgram::Run(const RowBatch* batch, const EvalContext* ctx,
                        size_t n) {
  for (const Instr& in : instrs_) {
    Register& d = regs_[in.dst];
    const Register& A = regs_[in.a];
    const Register& B = regs_[in.b];
    switch (in.op) {
      case OpCode::kLoadCol: {
        const int col = in.imm;
        const bool box = d.rtype == RegType::kBoxed;
        int64_t* di = d.i64.data();
        double* df = d.f64.data();
        uint8_t* dn = d.null.data();
        for (size_t i = 0; i < n; ++i) {
          const Row& row = (*batch)[i];
          if (col < 0 || static_cast<size_t>(col) >= row.size()) {
            return Status::Internal("column index " + std::to_string(col) +
                                    " out of range for row of arity " +
                                    std::to_string(row.size()));
          }
          const Value& v = row[static_cast<size_t>(col)];
          if (box) {
            d.val[i] = v;
            continue;
          }
          if (v.is_null()) {
            dn[i] = 1;
            continue;
          }
          if (v.type() != d.vtype) {
            return Status::Internal(
                std::string("bytecode: column ") + std::to_string(col) +
                " compiled as " + TypeName(d.vtype) + " but holds " +
                TypeName(v.type()));
          }
          dn[i] = 0;
          switch (d.vtype) {
            case TypeId::kBool:
              di[i] = v.bool_val() ? 1 : 0;
              break;
            case TypeId::kInt64:
              di[i] = v.int_val();
              break;
            case TypeId::kDouble:
              df[i] = v.double_val();
              break;
            case TypeId::kString:
              d.str[i] = v.str_val();  // borrowed; batch outlives the run
              break;
            default:
              return Status::Internal("bytecode: bad load type");
          }
        }
        break;
      }

      case OpCode::kLoadOuter: {
        const int depth = in.imm;
        const int index = in.imm2;
        if (depth < 0 ||
            static_cast<size_t>(depth) >= ctx->outer_rows.size()) {
          return Status::Internal(
              "correlated reference depth " + std::to_string(depth) +
              " exceeds outer-row stack of size " +
              std::to_string(ctx->outer_rows.size()));
        }
        const Row* outer = ctx->outer_rows[ctx->outer_rows.size() - 1 -
                                           static_cast<size_t>(depth)];
        if (index < 0 || static_cast<size_t>(index) >= outer->size()) {
          return Status::Internal("correlated column index out of range");
        }
        const Value& v = (*outer)[static_cast<size_t>(index)];
        if (d.rtype == RegType::kBoxed) {
          d.val[0] = v;
          break;
        }
        if (v.is_null()) {
          d.null[0] = 1;
          break;
        }
        if (v.type() != d.vtype) {
          return Status::Internal(
              std::string("bytecode: outer ref compiled as ") +
              TypeName(d.vtype) + " but holds " + TypeName(v.type()));
        }
        d.null[0] = 0;
        switch (d.vtype) {
          case TypeId::kBool:
            d.i64[0] = v.bool_val() ? 1 : 0;
            break;
          case TypeId::kInt64:
            d.i64[0] = v.int_val();
            break;
          case TypeId::kDouble:
            d.f64[0] = v.double_val();
            break;
          case TypeId::kString:
            // Re-point the view: assigning may move or resize the bytes.
            d.str_store.assign(v.str_val());
            d.str[0] = d.str_store;
            break;
          default:
            return Status::Internal("bytecode: bad load type");
        }
        break;
      }

      case OpCode::kLoadColView: {
        const ColumnVector& col =
            table_->column(static_cast<size_t>(in.imm));
        d.pn = col.nulls().empty() ? nullptr
                                   : col.nulls().data() + range_begin_;
        switch (d.rtype) {
          case RegType::kI64:
            d.pi = col.ints().empty() ? nullptr
                                      : col.ints().data() + range_begin_;
            break;
          case RegType::kF64:
            d.pd = col.doubles().empty()
                       ? nullptr
                       : col.doubles().data() + range_begin_;
            break;
          case RegType::kCode:
            d.pc = col.codes().empty() ? nullptr
                                       : col.codes().data() + range_begin_;
            break;
          case RegType::kStr:
          case RegType::kBoxed:
            return Status::Internal("bytecode: bad column view type");
        }
        d.stride = 1;
        break;
      }

      case OpCode::kCastIToD: {
        double* dv = d.f64.data();
        uint8_t* dn = d.null.data();
        for (size_t i = 0; i < n; ++i) {
          const uint8_t nul = A.pn[i * A.stride];
          dn[i] = nul;
          if (!nul) dv[i] = static_cast<double>(A.pi[i * A.stride]);
        }
        break;
      }

      case OpCode::kBox: {
        Value* dv = d.val.data();
        for (size_t i = 0; i < n; ++i) {
          const size_t k = i * A.stride;
          if (A.pn[k]) {
            dv[i] = Value::Null();
            continue;
          }
          switch (A.vtype) {
            case TypeId::kBool:
              dv[i] = Value::Bool(A.pi[k] != 0);
              break;
            case TypeId::kInt64:
              dv[i] = Value::Int(A.pi[k]);
              break;
            case TypeId::kDouble:
              dv[i] = Value::Double(A.pd[k]);
              break;
            case TypeId::kString:
              dv[i] = Value::Str(A.ps[k]);
              break;
            case TypeId::kNull:
              dv[i] = Value::Null();
              break;
          }
        }
        break;
      }

      case OpCode::kUnaryBoxed: {
        const auto op = static_cast<UnaryOp>(in.imm);
        for (size_t i = 0; i < n; ++i) {
          ASSIGN_OR_RETURN(d.val[i], ApplyUnaryOp(op, A.pv[i * A.stride]));
        }
        break;
      }

      case OpCode::kBinaryBoxed: {
        const auto op = static_cast<BinaryOp>(in.imm);
        for (size_t i = 0; i < n; ++i) {
          ASSIGN_OR_RETURN(d.val[i], ApplyBinaryOp(op, A.pv[i * A.stride],
                                                   B.pv[i * B.stride]));
        }
        break;
      }

#define GAPPLY_VM_BIN(VIEW, DV, EXPR)                                  \
  do {                                                                 \
    auto* dv = (DV);                                                   \
    uint8_t* dn = d.null.data();                                       \
    for (size_t i = 0; i < n; ++i) {                                   \
      const uint8_t nul = A.pn[i * A.stride] | B.pn[i * B.stride];     \
      dn[i] = nul;                                                     \
      if (nul) continue;                                               \
      const auto x = A.VIEW[i * A.stride];                             \
      const auto y = B.VIEW[i * B.stride];                             \
      dv[i] = (EXPR);                                                  \
    }                                                                  \
  } while (0)

      case OpCode::kAddI:
        GAPPLY_VM_BIN(pi, d.i64.data(), x + y);
        break;
      case OpCode::kSubI:
        GAPPLY_VM_BIN(pi, d.i64.data(), x - y);
        break;
      case OpCode::kMulI:
        GAPPLY_VM_BIN(pi, d.i64.data(), x * y);
        break;
      case OpCode::kAddD:
        GAPPLY_VM_BIN(pd, d.f64.data(), x + y);
        break;
      case OpCode::kSubD:
        GAPPLY_VM_BIN(pd, d.f64.data(), x - y);
        break;
      case OpCode::kMulD:
        GAPPLY_VM_BIN(pd, d.f64.data(), x * y);
        break;
      case OpCode::kCmpI:
        GAPPLY_VM_BIN(pi, d.i64.data(),
                      CmpHolds(in.cmp, Rel3(x, y)) ? 1 : 0);
        break;
      case OpCode::kCmpD:
        GAPPLY_VM_BIN(pd, d.i64.data(),
                      CmpHolds(in.cmp, Rel3(x, y)) ? 1 : 0);
        break;
      case OpCode::kCmpS:
        GAPPLY_VM_BIN(ps, d.i64.data(),
                      CmpHolds(in.cmp, Rel3(x.compare(y), 0)) ? 1 : 0);
        break;

#undef GAPPLY_VM_BIN

      case OpCode::kDivI: {
        int64_t* dv = d.i64.data();
        uint8_t* dn = d.null.data();
        for (size_t i = 0; i < n; ++i) {
          const uint8_t nul = A.pn[i * A.stride] | B.pn[i * B.stride];
          dn[i] = nul;
          if (nul) continue;
          const int64_t y = B.pi[i * B.stride];
          if (y == 0) return Status::InvalidArgument("division by zero");
          dv[i] = A.pi[i * A.stride] / y;
        }
        break;
      }

      case OpCode::kDivD: {
        double* dv = d.f64.data();
        uint8_t* dn = d.null.data();
        for (size_t i = 0; i < n; ++i) {
          const uint8_t nul = A.pn[i * A.stride] | B.pn[i * B.stride];
          dn[i] = nul;
          if (nul) continue;
          const double y = B.pd[i * B.stride];
          if (y == 0.0) return Status::InvalidArgument("division by zero");
          dv[i] = A.pd[i * A.stride] / y;
        }
        break;
      }

      case OpCode::kModI: {
        int64_t* dv = d.i64.data();
        uint8_t* dn = d.null.data();
        for (size_t i = 0; i < n; ++i) {
          const uint8_t nul = A.pn[i * A.stride] | B.pn[i * B.stride];
          dn[i] = nul;
          if (nul) continue;
          const int64_t y = B.pi[i * B.stride];
          if (y == 0) return Status::InvalidArgument("modulo by zero");
          dv[i] = A.pi[i * A.stride] % y;
        }
        break;
      }

      case OpCode::kNegI: {
        int64_t* dv = d.i64.data();
        uint8_t* dn = d.null.data();
        for (size_t i = 0; i < n; ++i) {
          const uint8_t nul = A.pn[i * A.stride];
          dn[i] = nul;
          if (!nul) dv[i] = -A.pi[i * A.stride];
        }
        break;
      }

      case OpCode::kNegD: {
        double* dv = d.f64.data();
        uint8_t* dn = d.null.data();
        for (size_t i = 0; i < n; ++i) {
          const uint8_t nul = A.pn[i * A.stride];
          dn[i] = nul;
          if (!nul) dv[i] = -A.pd[i * A.stride];
        }
        break;
      }

      case OpCode::kCmpCode: {
        const uint8_t* match = aux_[static_cast<size_t>(in.imm2)].data();
        int64_t* dv = d.i64.data();
        uint8_t* dn = d.null.data();
        for (size_t i = 0; i < n; ++i) {
          const uint8_t nul = A.pn[i * A.stride];
          dn[i] = nul;
          if (!nul) dv[i] = match[A.pc[i * A.stride]] ? 1 : 0;
        }
        break;
      }

      case OpCode::kAnd: {
        int64_t* dv = d.i64.data();
        uint8_t* dn = d.null.data();
        for (size_t i = 0; i < n; ++i) {
          const uint8_t nx = A.pn[i * A.stride];
          const uint8_t ny = B.pn[i * B.stride];
          // Kleene AND: a definite false dominates NULL.
          const bool lf = !nx && A.pi[i * A.stride] == 0;
          const bool rf = !ny && B.pi[i * B.stride] == 0;
          if (lf || rf) {
            dn[i] = 0;
            dv[i] = 0;
          } else if (nx || ny) {
            dn[i] = 1;
          } else {
            dn[i] = 0;
            dv[i] = 1;
          }
        }
        break;
      }

      case OpCode::kOr: {
        int64_t* dv = d.i64.data();
        uint8_t* dn = d.null.data();
        for (size_t i = 0; i < n; ++i) {
          const uint8_t nx = A.pn[i * A.stride];
          const uint8_t ny = B.pn[i * B.stride];
          // Kleene OR: a definite true dominates NULL.
          const bool ltrue = !nx && A.pi[i * A.stride] != 0;
          const bool rtrue = !ny && B.pi[i * B.stride] != 0;
          if (ltrue || rtrue) {
            dn[i] = 0;
            dv[i] = 1;
          } else if (nx || ny) {
            dn[i] = 1;
          } else {
            dn[i] = 0;
            dv[i] = 0;
          }
        }
        break;
      }

      case OpCode::kNot: {
        int64_t* dv = d.i64.data();
        uint8_t* dn = d.null.data();
        for (size_t i = 0; i < n; ++i) {
          const uint8_t nul = A.pn[i * A.stride];
          dn[i] = nul;
          if (!nul) dv[i] = A.pi[i * A.stride] ? 0 : 1;
        }
        break;
      }

      case OpCode::kIsNull: {
        int64_t* dv = d.i64.data();
        uint8_t* dn = d.null.data();
        for (size_t i = 0; i < n; ++i) {
          dn[i] = 0;
          dv[i] = A.pn[i * A.stride] ? 1 : 0;
        }
        break;
      }

      case OpCode::kIsNotNull: {
        int64_t* dv = d.i64.data();
        uint8_t* dn = d.null.data();
        for (size_t i = 0; i < n; ++i) {
          dn[i] = 0;
          dv[i] = A.pn[i * A.stride] ? 0 : 1;
        }
        break;
      }
    }
  }
  return Status::OK();
}

Status ExprProgram::EvalBatch(const RowBatch& batch, const EvalContext& ctx,
                              std::vector<Value>* out) {
  const size_t n = batch.size();
  out->clear();
  BindScratch(n);
  RETURN_NOT_OK(Run(&batch, &ctx, n));
  out->reserve(n);
  const Register& r = regs_[result_reg_];
  if (boxed(result_reg_)) {
    for (size_t i = 0; i < n; ++i) out->push_back(r.pv[i * r.stride]);
    return Status::OK();
  }
  for (size_t i = 0; i < n; ++i) {
    if (result_type_ == TypeId::kNull || r.pn[i * r.stride]) {
      out->push_back(Value::Null());
      continue;
    }
    switch (result_type_) {
      case TypeId::kBool:
        out->push_back(Value::Bool(r.pi[i * r.stride] != 0));
        break;
      case TypeId::kInt64:
        out->push_back(Value::Int(r.pi[i * r.stride]));
        break;
      case TypeId::kDouble:
        out->push_back(Value::Double(r.pd[i * r.stride]));
        break;
      case TypeId::kString:
        out->push_back(Value::Str(r.ps[i * r.stride]));
        break;
      default:
        return Status::Internal("bytecode: bad result type");
    }
  }
  return Status::OK();
}

Status ExprProgram::EvalPredicateBatch(const RowBatch& batch,
                                       const EvalContext& ctx,
                                       std::vector<char>* keep) {
  const size_t n = batch.size();
  keep->clear();
  BindScratch(n);
  RETURN_NOT_OK(Run(&batch, &ctx, n));
  keep->resize(n);
  const Register& r = regs_[result_reg_];
  if (boxed(result_reg_)) {
    for (size_t i = 0; i < n; ++i) {
      ASSIGN_OR_RETURN(bool pass, PredicateValue(r.pv[i * r.stride]));
      (*keep)[i] = pass ? 1 : 0;
    }
    return Status::OK();
  }
  for (size_t i = 0; i < n; ++i) {
    // SQL WHERE: NULL rejects, so only a non-NULL true keeps the row.
    (*keep)[i] =
        (!r.pn[i * r.stride] && r.pi[i * r.stride] != 0) ? 1 : 0;
  }
  return Status::OK();
}

Status ExprProgram::FilterRange(size_t begin, size_t end,
                                std::vector<uint32_t>* selection) {
  if (table_ == nullptr) {
    return Status::Internal("bytecode: FilterRange on a non-scan program");
  }
  end = std::min(end, table_->num_rows());
  if (begin >= end) return Status::OK();
  const size_t n = end - begin;
  range_begin_ = begin;
  BindScratch(n);
  RETURN_NOT_OK(Run(nullptr, nullptr, n));
  if (pred_regs_.empty()) {
    for (size_t i = 0; i < n; ++i) {
      selection->push_back(static_cast<uint32_t>(begin + i));
    }
    return Status::OK();
  }
  for (size_t i = 0; i < n; ++i) {
    bool pass = true;
    for (const uint16_t pr : pred_regs_) {
      const Register& r = regs_[pr];
      if (r.pn[i * r.stride] || r.pi[i * r.stride] == 0) {
        pass = false;
        break;
      }
    }
    if (pass) selection->push_back(static_cast<uint32_t>(begin + i));
  }
  return Status::OK();
}

std::string ExprProgram::ToString() const {
  std::string out;
  char buf[128];
  for (const Instr& in : instrs_) {
    switch (in.op) {
      case OpCode::kLoadCol:
        std::snprintf(buf, sizeof(buf), "r%u <- loadcol%s col[%d]", in.dst,
                      boxed(in.dst) ? ".box" : "", in.imm);
        break;
      case OpCode::kLoadOuter:
        std::snprintf(buf, sizeof(buf), "r%u <- loadouter%s depth=%d idx=%d",
                      in.dst, boxed(in.dst) ? ".box" : "", in.imm, in.imm2);
        break;
      case OpCode::kBox:
        std::snprintf(buf, sizeof(buf), "r%u <- box r%u", in.dst, in.a);
        break;
      case OpCode::kUnaryBoxed:
        std::snprintf(buf, sizeof(buf), "r%u <- '%s'.box r%u", in.dst,
                      UnaryOpName(static_cast<UnaryOp>(in.imm)), in.a);
        break;
      case OpCode::kBinaryBoxed:
        std::snprintf(buf, sizeof(buf), "r%u <- '%s'.box r%u r%u", in.dst,
                      BinaryOpName(static_cast<BinaryOp>(in.imm)), in.a,
                      in.b);
        break;
      case OpCode::kLoadColView:
        std::snprintf(buf, sizeof(buf), "r%u <- loadview col[%d]", in.dst,
                      in.imm);
        break;
      case OpCode::kCastIToD:
        std::snprintf(buf, sizeof(buf), "r%u <- cast.i2d r%u", in.dst, in.a);
        break;
      case OpCode::kAddI:
        std::snprintf(buf, sizeof(buf), "r%u <- add.i64 r%u r%u", in.dst,
                      in.a, in.b);
        break;
      case OpCode::kSubI:
        std::snprintf(buf, sizeof(buf), "r%u <- sub.i64 r%u r%u", in.dst,
                      in.a, in.b);
        break;
      case OpCode::kMulI:
        std::snprintf(buf, sizeof(buf), "r%u <- mul.i64 r%u r%u", in.dst,
                      in.a, in.b);
        break;
      case OpCode::kDivI:
        std::snprintf(buf, sizeof(buf), "r%u <- div.i64 r%u r%u", in.dst,
                      in.a, in.b);
        break;
      case OpCode::kModI:
        std::snprintf(buf, sizeof(buf), "r%u <- mod.i64 r%u r%u", in.dst,
                      in.a, in.b);
        break;
      case OpCode::kAddD:
        std::snprintf(buf, sizeof(buf), "r%u <- add.f64 r%u r%u", in.dst,
                      in.a, in.b);
        break;
      case OpCode::kSubD:
        std::snprintf(buf, sizeof(buf), "r%u <- sub.f64 r%u r%u", in.dst,
                      in.a, in.b);
        break;
      case OpCode::kMulD:
        std::snprintf(buf, sizeof(buf), "r%u <- mul.f64 r%u r%u", in.dst,
                      in.a, in.b);
        break;
      case OpCode::kDivD:
        std::snprintf(buf, sizeof(buf), "r%u <- div.f64 r%u r%u", in.dst,
                      in.a, in.b);
        break;
      case OpCode::kNegI:
        std::snprintf(buf, sizeof(buf), "r%u <- neg.i64 r%u", in.dst, in.a);
        break;
      case OpCode::kNegD:
        std::snprintf(buf, sizeof(buf), "r%u <- neg.f64 r%u", in.dst, in.a);
        break;
      case OpCode::kCmpI:
        std::snprintf(buf, sizeof(buf), "r%u <- cmp.%s.i64 r%u r%u", in.dst,
                      CmpName(in.cmp), in.a, in.b);
        break;
      case OpCode::kCmpD:
        std::snprintf(buf, sizeof(buf), "r%u <- cmp.%s.f64 r%u r%u", in.dst,
                      CmpName(in.cmp), in.a, in.b);
        break;
      case OpCode::kCmpS:
        std::snprintf(buf, sizeof(buf), "r%u <- cmp.%s.str r%u r%u", in.dst,
                      CmpName(in.cmp), in.a, in.b);
        break;
      case OpCode::kCmpCode:
        std::snprintf(buf, sizeof(buf), "r%u <- dictmatch r%u aux[%d]",
                      in.dst, in.a, in.imm2);
        break;
      case OpCode::kAnd:
        std::snprintf(buf, sizeof(buf), "r%u <- and r%u r%u", in.dst, in.a,
                      in.b);
        break;
      case OpCode::kOr:
        std::snprintf(buf, sizeof(buf), "r%u <- or r%u r%u", in.dst, in.a,
                      in.b);
        break;
      case OpCode::kNot:
        std::snprintf(buf, sizeof(buf), "r%u <- not r%u", in.dst, in.a);
        break;
      case OpCode::kIsNull:
        std::snprintf(buf, sizeof(buf), "r%u <- isnull r%u", in.dst, in.a);
        break;
      case OpCode::kIsNotNull:
        std::snprintf(buf, sizeof(buf), "r%u <- isnotnull r%u", in.dst,
                      in.a);
        break;
    }
    out += buf;
    out += '\n';
  }
  return out;
}

}  // namespace gapply
