// Tests for the register-bytecode expression engine (DESIGN.md §14), the
// only evaluator of Filter, Project and pushed scan predicates. Every
// expression compiles; each program must reproduce the row interpreter
// (per-row Expr::Eval / EvalPredicate) — values, NULLs and error messages —
// on typed and boxed instructions alike. Scan programs must select what
// EvalPredicate selects over the materialized rows, and constant folding
// must preserve semantics.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/row_batch.h"
#include "src/engine/database.h"
#include "src/exec/filter_project_ops.h"
#include "src/exec/profile.h"
#include "src/exec/scan_ops.h"
#include "src/expr/bytecode.h"
#include "src/expr/expr.h"
#include "src/storage/columnar.h"
#include "tests/test_util.h"

namespace gapply {
namespace {

using tutil::GroupedSchema;
using tutil::MakeTable;
using tutil::RandomGroupedRows;

RowBatch MakeBatch(const std::vector<Row>& rows) {
  RowBatch batch(rows.empty() ? 1 : rows.size());
  for (const Row& row : rows) batch.Add(row);
  return batch;
}

// Bit-for-bit value identity: same NULLness, same type, equal value.
bool SameValue(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  return a.type() == b.type() && a.Equals(b);
}

// Checks one program run over `batch` against the per-row reference
// `eval(row)` (Expr::Eval or EvalPredicate). Both must succeed or fail
// together. On success the results agree row by row. On failure the
// program's error is the one Eval raises on some row: the program runs
// node by node in post-order over the whole batch, so it reports the first
// failing node at that node's first failing row, where Eval — also
// post-order — fails on the same node. At batch size 1 this makes the
// error exactly Eval's.
template <typename T, typename RunFn, typename EvalFn, typename SameFn>
::testing::AssertionResult RunMatchesEval(const RowBatch& batch,
                                          const RunFn& run,
                                          const EvalFn& eval,
                                          const SameFn& same) {
  std::vector<T> got;
  const Status sb = run(batch, &got);
  std::vector<T> want;
  std::set<std::string> row_errors;
  for (size_t i = 0; i < batch.size(); ++i) {
    Result<T> r = eval(batch[i]);
    if (r.ok()) {
      want.push_back(*r);
    } else {
      row_errors.insert(r.status().ToString());
    }
  }
  if (sb.ok() != row_errors.empty()) {
    return ::testing::AssertionFailure()
           << "program: " << sb.ToString() << ", row errors: "
           << row_errors.size();
  }
  if (!sb.ok()) {
    if (row_errors.count(sb.ToString()) == 0) {
      return ::testing::AssertionFailure()
             << "program error " << sb.ToString()
             << " is no row's Eval error (first: " << *row_errors.begin()
             << ")";
    }
    return ::testing::AssertionSuccess();
  }
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << got.size() << " results for " << want.size() << " rows";
  }
  for (size_t i = 0; i < want.size(); ++i) {
    if (!same(want[i], got[i])) {
      return ::testing::AssertionFailure() << "row " << i << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

// Runs `program` (from Compile) over `batch` and over each of its rows as a
// batch of one, against per-row Expr::Eval.
::testing::AssertionResult ProgramMatchesEval(ExprProgram* program,
                                              const Expr& expr,
                                              const RowBatch& batch,
                                              const EvalContext& ctx) {
  const auto run = [&](const RowBatch& b, std::vector<Value>* out) {
    return program->EvalBatch(b, ctx, out);
  };
  const auto eval = [&](const Row& row) { return expr.Eval(row, ctx); };
  const auto same = [](const Value& a, const Value& b) {
    return SameValue(a, b);
  };
  ::testing::AssertionResult whole =
      RunMatchesEval<Value>(batch, run, eval, same);
  if (!whole) return whole << " (whole batch)";
  for (size_t i = 0; i < batch.size(); ++i) {
    RowBatch one(1);
    one.Add(batch[i]);
    ::testing::AssertionResult r = RunMatchesEval<Value>(one, run, eval, same);
    if (!r) return r << " (row " << i << " alone)";
  }
  return ::testing::AssertionSuccess();
}

// Same bar for a CompilePredicate program: keep flags against per-row
// EvalPredicate.
::testing::AssertionResult PredicateMatchesEval(ExprProgram* program,
                                                const Expr& pred,
                                                const RowBatch& batch,
                                                const EvalContext& ctx) {
  const auto run = [&](const RowBatch& b, std::vector<bool>* out) {
    std::vector<char> keep;
    Status st = program->EvalPredicateBatch(b, ctx, &keep);
    for (char k : keep) out->push_back(k != 0);
    return st;
  };
  const auto eval = [&](const Row& row) {
    return EvalPredicate(pred, row, ctx);
  };
  const auto same = [](bool a, bool b) { return a == b; };
  ::testing::AssertionResult whole =
      RunMatchesEval<bool>(batch, run, eval, same);
  if (!whole) return whole << " (whole batch)";
  for (size_t i = 0; i < batch.size(); ++i) {
    RowBatch one(1);
    one.Add(batch[i]);
    ::testing::AssertionResult r = RunMatchesEval<bool>(one, run, eval, same);
    if (!r) return r << " (row " << i << " alone)";
  }
  return ::testing::AssertionSuccess();
}

// Compiles `expr` (must succeed) and checks the program against Eval.
void ExpectProgramMatchesEval(const Expr& expr, const RowBatch& batch,
                              const EvalContext& ctx = {}) {
  SCOPED_TRACE("expr: " + expr.ToString());
  ASSIGN_OR_FAIL(std::unique_ptr<ExprProgram> prog,
                 ExprProgram::Compile(expr));
  EXPECT_TRUE(ProgramMatchesEval(prog.get(), expr, batch, ctx));
}

// Compiles `pred` as a predicate (must succeed) and checks it against
// EvalPredicate.
void ExpectPredicateMatchesEval(const Expr& pred, const RowBatch& batch,
                                const EvalContext& ctx = {}) {
  SCOPED_TRACE("pred: " + pred.ToString());
  ASSIGN_OR_FAIL(std::unique_ptr<ExprProgram> prog,
                 ExprProgram::CompilePredicate(pred));
  EXPECT_TRUE(PredicateMatchesEval(prog.get(), pred, batch, ctx));
}

// Boxed instructions disassemble as `box`, `loadcol.box`, `'+'.box`, ...
bool HasBoxedInstruction(const ExprProgram& program) {
  return program.ToString().find("box") != std::string::npos;
}

class BytecodeDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(7);
    rows_ = RandomGroupedRows(&rng, 300, 17, /*null_fraction=*/0.15);
    schema_ = GroupedSchema();
    batch_ = MakeBatch(rows_);
  }

  Schema schema_;
  std::vector<Row> rows_;
  RowBatch batch_{1};
};

TEST_F(BytecodeDifferentialTest, Arithmetic) {
  const Schema& s = schema_;
  // (v + 7) * k - v, with NULLs in v.
  ExpectProgramMatchesEval(
      *Binary(BinaryOp::kSubtract,
              Binary(BinaryOp::kMultiply,
                     Binary(BinaryOp::kAdd, Col(s, "v"), Lit(int64_t{7})),
                     Col(s, "k")),
              Col(s, "v")),
      batch_);
  // Mixed int/double promotion: v / 3 + d * 2.0.
  ExpectProgramMatchesEval(
      *Binary(BinaryOp::kAdd,
              Binary(BinaryOp::kDivide, Col(s, "v"), Lit(int64_t{3})),
              Binary(BinaryOp::kMultiply, Col(s, "d"), Lit(2.0))),
      batch_);
  // Modulo over non-zero divisor (k >= 1) and unary negation.
  ExpectProgramMatchesEval(
      *Binary(BinaryOp::kModulo, Col(s, "v"), Col(s, "k")), batch_);
  ExpectProgramMatchesEval(*Unary(UnaryOp::kNegate, Col(s, "v")), batch_);
  ExpectProgramMatchesEval(*Unary(UnaryOp::kNegate, Col(s, "d")), batch_);
}

TEST_F(BytecodeDifferentialTest, ComparisonsAndLogic) {
  const Schema& s = schema_;
  ExpectProgramMatchesEval(*Gt(Col(s, "v"), Lit(int64_t{50})), batch_);
  ExpectProgramMatchesEval(*Le(Col(s, "d"), Lit(500.0)), batch_);
  // Mixed-type comparison takes the double path via int→double cast.
  ExpectProgramMatchesEval(*Lt(Col(s, "v"), Col(s, "d")), batch_);
  // Kleene logic with NULL operands, and NOT.
  ExpectProgramMatchesEval(
      *And(Gt(Col(s, "v"), Lit(int64_t{20})), Lt(Col(s, "d"), Lit(800.0))),
      batch_);
  ExpectProgramMatchesEval(
      *Or(Unary(UnaryOp::kNot, Gt(Col(s, "v"), Lit(int64_t{90}))),
          Eq(Col(s, "k"), Lit(int64_t{3}))),
      batch_);
  ExpectProgramMatchesEval(*Unary(UnaryOp::kIsNull, Col(s, "v")), batch_);
  ExpectProgramMatchesEval(*Unary(UnaryOp::kIsNotNull, Col(s, "v")), batch_);
  // Predicate form: NULL comparisons reject the row.
  ExpectPredicateMatchesEval(*Gt(Col(s, "v"), Lit(int64_t{50})), batch_);
  ExpectPredicateMatchesEval(
      *And(Gt(Col(s, "v"), Lit(int64_t{20})),
           Unary(UnaryOp::kNot, Eq(Col(s, "k"), Lit(int64_t{5})))),
      batch_);
}

TEST_F(BytecodeDifferentialTest, Strings) {
  Schema s({{"id", TypeId::kInt64, "t"}, {"name", TypeId::kString, "t"}});
  std::vector<Row> rows;
  const char* names[] = {"alpha", "beta", "", "zeta", "beta"};
  for (int i = 0; i < 40; ++i) {
    Row row;
    row.push_back(Value::Int(i));
    if (i % 7 == 0) {
      row.push_back(Value::Null());
    } else {
      row.push_back(Value::Str(names[i % 5]));
    }
    rows.push_back(std::move(row));
  }
  RowBatch batch = MakeBatch(rows);
  ExpectProgramMatchesEval(*Eq(Col(s, "name"), Lit("beta")), batch);
  ExpectProgramMatchesEval(*Lt(Col(s, "name"), Lit("m")), batch);
  ExpectProgramMatchesEval(*Unary(UnaryOp::kIsNull, Col(s, "name")), batch);
}

TEST_F(BytecodeDifferentialTest, CorrelatedReferences) {
  const Schema& s = schema_;
  Row outer{Value::Int(42), Value::Str("x")};
  EvalContext ctx;
  ctx.outer_rows.push_back(&outer);
  auto outer_ref = [] {
    return std::make_unique<CorrelatedColumnRefExpr>(0, 0, TypeId::kInt64,
                                                     "outer_v");
  };
  ExpectProgramMatchesEval(*Gt(Col(s, "v"), outer_ref()), batch_, ctx);
  ExpectProgramMatchesEval(
      *Binary(BinaryOp::kAdd, Col(s, "v"), outer_ref()), batch_, ctx);
  // Missing outer frame: the program raises Eval's error.
  ExpectProgramMatchesEval(*Gt(Col(s, "v"), outer_ref()), batch_,
                           EvalContext{});
}

TEST_F(BytecodeDifferentialTest, ErrorMessageParity) {
  const Schema& s = schema_;
  // Integer and double division by zero, modulo by zero: same error text.
  ExpectProgramMatchesEval(
      *Binary(BinaryOp::kDivide, Col(s, "v"), Lit(int64_t{0})), batch_);
  ExpectProgramMatchesEval(
      *Binary(BinaryOp::kDivide, Col(s, "d"), Lit(0.0)), batch_);
  ExpectProgramMatchesEval(
      *Binary(BinaryOp::kModulo, Col(s, "v"), Lit(int64_t{0})), batch_);
  // A NULL-typed operand must not suppress the other side's runtime error:
  // NULL = (1/0) raises "division by zero", as Eval does.
  ExpectProgramMatchesEval(
      *Eq(Lit(Value::Null()),
          Binary(BinaryOp::kDivide, Lit(int64_t{1}), Lit(int64_t{0}))),
      batch_);
  // ...but NULL compared to a well-defined side is just NULL everywhere.
  ExpectProgramMatchesEval(*Eq(Lit(Value::Null()), Col(s, "v")), batch_);
}

// ---------------------------------------------------------------------------
// Randomized differential: random trees over all five ExprKinds, mostly
// well-typed but with ill-typed and NULL-typed nodes mixed in, so programs
// cover typed instructions, boxed ones and the box steps between them.
// ---------------------------------------------------------------------------

class RandomExprGen {
 public:
  explicit RandomExprGen(Rng* rng) : rng_(rng) {}

  /// Columns: two int64 (the second mostly zero, for division and modulo
  /// by zero), double, string, bool, and a NULL-typed column holding
  /// values of every type.
  static Schema RowSchema() {
    return Schema({{"i", TypeId::kInt64, "t"},
                   {"z", TypeId::kInt64, "t"},
                   {"d", TypeId::kDouble, "t"},
                   {"s", TypeId::kString, "t"},
                   {"b", TypeId::kBool, "t"},
                   {"n", TypeId::kNull, "t"}});
  }

  Row RandomRow() {
    auto maybe_null = [&](Value v) {
      return rng_->Bernoulli(0.2) ? Value::Null() : std::move(v);
    };
    Row row;
    row.push_back(maybe_null(SmallInt()));
    row.push_back(maybe_null(Value::Int(rng_->Bernoulli(0.7) ? 0 : 1)));
    row.push_back(maybe_null(SmallDouble()));
    row.push_back(maybe_null(SomeString()));
    row.push_back(maybe_null(Value::Bool(rng_->Bernoulli(0.5))));
    row.push_back(AnyValue());
    return row;
  }

  /// Outer frames for correlated references: depth 1 is
  /// (double, bool, any), depth 0 is (int64, string, any).
  void RandomOuterRows(Row* depth1, Row* depth0) {
    auto maybe_null = [&](Value v) {
      return rng_->Bernoulli(0.2) ? Value::Null() : std::move(v);
    };
    *depth1 = {maybe_null(SmallDouble()), maybe_null(Value::Bool(true)),
               AnyValue()};
    *depth0 = {maybe_null(SmallInt()), maybe_null(SomeString()), AnyValue()};
  }

  /// A tree of height <= `depth` whose static type is usually `want`
  /// (kNull: any type); one node in eight ignores `want`.
  ExprPtr Gen(int depth, TypeId want) {
    if (rng_->Bernoulli(0.125)) want = kTypes[rng_->UniformInt(0, 4)];
    if (depth == 0 || rng_->Bernoulli(0.25)) return Leaf(want);
    const auto child = [&](TypeId t) { return Gen(depth - 1, t); };
    switch (want) {
      case TypeId::kInt64:
        switch (rng_->UniformInt(0, 2)) {
          case 0:
            return Unary(UnaryOp::kNegate, child(TypeId::kInt64));
          case 1:
            return Binary(BinaryOp::kModulo, child(TypeId::kInt64),
                          child(TypeId::kInt64));
          default:
            return Binary(Arith(), child(TypeId::kInt64),
                          child(TypeId::kInt64));
        }
      case TypeId::kDouble:
        if (rng_->Bernoulli(0.2)) {
          return Unary(UnaryOp::kNegate, child(TypeId::kDouble));
        }
        return Binary(Arith(), child(TypeId::kDouble), child(Numeric()));
      case TypeId::kBool:
        switch (rng_->UniformInt(0, 3)) {
          case 0: {
            const TypeId t = kTypes[rng_->UniformInt(1, 4)];
            return Binary(Cmp(), child(t),
                          child(IsNumeric(t) ? Numeric() : t));
          }
          case 1:
            return Binary(rng_->Bernoulli(0.5) ? BinaryOp::kAnd
                                               : BinaryOp::kOr,
                          child(TypeId::kBool), child(TypeId::kBool));
          case 2:
            return Unary(UnaryOp::kNot, child(TypeId::kBool));
          default:
            return Unary(rng_->Bernoulli(0.5) ? UnaryOp::kIsNull
                                              : UnaryOp::kIsNotNull,
                         child(TypeId::kNull));
        }
      case TypeId::kString:
        return Leaf(want);
      case TypeId::kNull:
        if (rng_->Bernoulli(0.5)) {
          return Unary(static_cast<UnaryOp>(rng_->UniformInt(0, 3)),
                       child(TypeId::kNull));
        }
        return Binary(static_cast<BinaryOp>(rng_->UniformInt(0, 12)),
                      child(TypeId::kNull), child(TypeId::kNull));
    }
    return Leaf(want);
  }

 private:
  static constexpr TypeId kTypes[] = {TypeId::kNull, TypeId::kInt64,
                                      TypeId::kDouble, TypeId::kString,
                                      TypeId::kBool};

  // Small magnitudes keep a height-4 product of int64s from overflowing.
  Value SmallInt() { return Value::Int(rng_->UniformInt(-9, 9)); }
  Value SmallDouble() {
    static const double kDoubles[] = {-2.5, 0.0, 0.5, 1.0, 3.0, 7.25};
    return Value::Double(kDoubles[rng_->UniformInt(0, 5)]);
  }
  Value SomeString() {
    // Empty, inline, and past the 15-byte inline limit.
    static const char* kStrings[] = {"", "a", "beta", "zeta",
                                     "a string past the inline limit"};
    return Value::Str(kStrings[rng_->UniformInt(0, 4)]);
  }
  Value AnyValue() {
    switch (rng_->UniformInt(0, 4)) {
      case 0:
        return SmallInt();
      case 1:
        return SmallDouble();
      case 2:
        return SomeString();
      case 3:
        return Value::Bool(rng_->Bernoulli(0.5));
      default:
        return Value::Null();
    }
  }
  TypeId Numeric() {
    return rng_->Bernoulli(0.5) ? TypeId::kInt64 : TypeId::kDouble;
  }
  BinaryOp Arith() {
    return static_cast<BinaryOp>(rng_->UniformInt(
        static_cast<int>(BinaryOp::kAdd), static_cast<int>(BinaryOp::kDivide)));
  }
  BinaryOp Cmp() {
    return static_cast<BinaryOp>(rng_->UniformInt(
        static_cast<int>(BinaryOp::kEq), static_cast<int>(BinaryOp::kGe)));
  }

  ExprPtr Column(const char* name) { return Col(RowSchema(), name); }
  ExprPtr Outer(int depth, int index, TypeId type) {
    static const char* kNames[] = {"o0", "o1", "o2"};
    return std::make_unique<CorrelatedColumnRefExpr>(depth, index, type,
                                                     kNames[index]);
  }

  ExprPtr Leaf(TypeId want) {
    const int pick = static_cast<int>(rng_->UniformInt(0, 3));
    if (pick == 0 && want != TypeId::kNull && rng_->Bernoulli(0.2)) {
      return Lit(Value::Null());  // the NULL literal stands in for any type
    }
    switch (want) {
      case TypeId::kInt64:
        if (pick == 0) return Lit(SmallInt());
        if (pick == 1) return Column("i");
        if (pick == 2) return Column("z");
        return Outer(0, 0, TypeId::kInt64);
      case TypeId::kDouble:
        if (pick <= 1) return Lit(SmallDouble());
        if (pick == 2) return Column("d");
        return Outer(1, 0, TypeId::kDouble);
      case TypeId::kString:
        if (pick <= 1) return Lit(SomeString());
        if (pick == 2) return Column("s");
        return Outer(0, 1, TypeId::kString);
      case TypeId::kBool:
        if (pick <= 1) return Lit(Value::Bool(rng_->Bernoulli(0.5)));
        if (pick == 2) return Column("b");
        return Outer(1, 1, TypeId::kBool);
      case TypeId::kNull:
        if (pick == 0) return Lit(Value::Null());
        if (pick == 1) return Column("n");
        return Outer(pick - 2, 2, TypeId::kNull);
    }
    return Lit(Value::Null());
  }

  Rng* rng_;
};

TEST(BytecodeRandomDifferentialTest, MatchesRowEvalOnRandomTrees) {
  constexpr int kTrees = 6000;
  constexpr int kRowsPerBatch = 24;
  Rng rng(20260318);
  RandomExprGen gen(&rng);
  int boxed = 0;
  int typed = 0;
  int succeeded = 0;
  for (int t = 0; t < kTrees; ++t) {
    std::vector<Row> rows;
    for (int i = 0; i < kRowsPerBatch; ++i) rows.push_back(gen.RandomRow());
    const RowBatch batch = MakeBatch(rows);
    Row depth1;
    Row depth0;
    gen.RandomOuterRows(&depth1, &depth0);
    EvalContext ctx;
    ctx.outer_rows = {&depth1, &depth0};

    // Every other tree asks for a predicate-shaped (bool) root.
    const TypeId want = t % 2 == 0 ? TypeId::kBool : TypeId::kNull;
    ExprPtr expr = gen.Gen(static_cast<int>(rng.UniformInt(1, 4)), want);
    SCOPED_TRACE("tree " + std::to_string(t) + ": " + expr->ToString());

    ASSIGN_OR_FAIL(std::unique_ptr<ExprProgram> prog,
                   ExprProgram::Compile(*expr));
    (HasBoxedInstruction(*prog) ? boxed : typed)++;
    ASSERT_TRUE(ProgramMatchesEval(prog.get(), *expr, batch, ctx))
        << prog->ToString();
    std::vector<Value> ignored;
    if (prog->EvalBatch(batch, ctx, &ignored).ok()) succeeded++;

    ASSIGN_OR_FAIL(std::unique_ptr<ExprProgram> pred,
                   ExprProgram::CompilePredicate(*expr));
    ASSERT_TRUE(PredicateMatchesEval(pred.get(), *expr, batch, ctx))
        << pred->ToString();
  }
  // Both instruction families, and both outcomes, are well represented.
  EXPECT_GT(boxed, kTrees / 5);
  EXPECT_GT(typed, kTrees / 5);
  EXPECT_GT(succeeded, kTrees / 5);
  EXPECT_LT(succeeded, kTrees - kTrees / 10);
}

TEST(BytecodeCompileTest, CompilesValueDependentTypeErrors) {
  // Shapes whose type errors depend on the values compile to boxed
  // instructions and match Eval in values and errors. Rows mix NULLs (which
  // suppress the type errors) with values (which raise them).
  Schema s({{"v", TypeId::kInt64, "t"},
            {"name", TypeId::kString, "t"},
            {"d", TypeId::kDouble, "t"},
            {"n", TypeId::kNull, "t"}});
  const std::vector<Row> rows = {
      {Value::Null(), Value::Null(), Value::Null(), Value::Null()},
      {Value::Int(3), Value::Str("x"), Value::Double(1.5), Value::Int(7)},
      {Value::Null(), Value::Str("y"), Value::Double(2.0), Value::Str("s")},
  };
  const RowBatch all = MakeBatch(rows);
  const RowBatch nulls = MakeBatch({rows[0]});
  std::vector<ExprPtr> shapes;
  // Comparison between statically incomparable types.
  shapes.push_back(Eq(Col(s, "v"), Col(s, "name")));
  // Arithmetic over a string operand.
  shapes.push_back(Binary(BinaryOp::kAdd, Col(s, "name"), Lit("x")));
  // Modulo over doubles (int64-only in value_ops).
  shapes.push_back(Binary(BinaryOp::kModulo, Col(s, "d"), Lit(2.0)));
  // Logic over non-bool operands.
  shapes.push_back(And(Col(s, "v"), Gt(Col(s, "v"), Lit(int64_t{0}))));
  // Negation of a string, and of the NULL literal.
  shapes.push_back(Unary(UnaryOp::kNegate, Col(s, "name")));
  shapes.push_back(Unary(UnaryOp::kNegate, Lit(Value::Null())));
  // NULL-typed column references, and a typed parent above one.
  shapes.push_back(Unary(UnaryOp::kIsNull, Col(s, "n")));
  shapes.push_back(Binary(BinaryOp::kAdd, Col(s, "n"), Lit(int64_t{1})));
  for (const ExprPtr& e : shapes) {
    SCOPED_TRACE(e->ToString());
    ASSIGN_OR_FAIL(std::unique_ptr<ExprProgram> prog,
                   ExprProgram::Compile(*e));
    EXPECT_TRUE(HasBoxedInstruction(*prog)) << prog->ToString();
    EXPECT_TRUE(ProgramMatchesEval(prog.get(), *e, all, {}));
    // Over NULLs alone the type errors stay silent.
    EXPECT_TRUE(ProgramMatchesEval(prog.get(), *e, nulls, {}));
  }
  // Predicates whose result is not statically bool compile too; a non-bool
  // value raises EvalPredicate's TypeError, a NULL just rejects.
  std::vector<ExprPtr> preds;
  preds.push_back(Col(s, "v"));
  preds.push_back(Col(s, "n"));
  preds.push_back(Binary(BinaryOp::kAdd, Col(s, "d"), Lit(1.0)));
  for (const ExprPtr& pred : preds) {
    SCOPED_TRACE(pred->ToString());
    ASSIGN_OR_FAIL(std::unique_ptr<ExprProgram> prog,
                   ExprProgram::CompilePredicate(*pred));
    EXPECT_TRUE(PredicateMatchesEval(prog.get(), *pred, all, {}));
    EXPECT_TRUE(PredicateMatchesEval(prog.get(), *pred, nulls, {}));
  }
  // Well-typed shapes stay entirely typed.
  ASSIGN_OR_FAIL(std::unique_ptr<ExprProgram> typed,
                 ExprProgram::CompilePredicate(
                     *Gt(Col(s, "v"), Lit(int64_t{0}))));
  EXPECT_FALSE(HasBoxedInstruction(*typed)) << typed->ToString();
  ASSIGN_OR_FAIL(std::unique_ptr<ExprProgram> null_pred,
                 ExprProgram::CompilePredicate(*Lit(Value::Null())));
  EXPECT_FALSE(HasBoxedInstruction(*null_pred)) << null_pred->ToString();
}

// A left-deep `a + a + ... + a` select item of 1,023 terms is the deepest
// expression the SQL parser accepts; compiled, it stays far below the
// register limit and runs.
TEST(BytecodeCompileTest, DeepestParsableChainCompiles) {
  constexpr int kTerms = 1023;
  Database db;
  ASSERT_TRUE(db.catalog()
                  ->AddTable(MakeTable(
                      "t", Schema({{"a", TypeId::kInt64, "t"}}),
                      {{Value::Int(2)}, {Value::Int(-5)}}))
                  .ok());
  auto chain_sql = [](int terms) {
    std::string sql = "select a";
    for (int i = 1; i < terms; ++i) sql += " + a";
    return sql + " from t";
  };
  ASSIGN_OR_FAIL(QueryResult result, db.Query(chain_sql(kTerms)));
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_TRUE(SameValue(result.rows[0][0], Value::Int(2 * kTerms)));
  EXPECT_TRUE(SameValue(result.rows[1][0], Value::Int(-5 * kTerms)));
  EXPECT_FALSE(db.Query(chain_sql(kTerms + 1)).ok());

  Schema s({{"a", TypeId::kInt64, "t"}});
  ExprPtr chain = Col(s, "a");
  for (int i = 1; i < kTerms; ++i) {
    chain = Binary(BinaryOp::kAdd, std::move(chain), Col(s, "a"));
  }
  ASSIGN_OR_FAIL(std::unique_ptr<ExprProgram> prog,
                 ExprProgram::Compile(*chain));
  EXPECT_EQ(prog->num_instructions(), 2u * kTerms - 1);
}

// Balanced sum of 2^levels leaves.
ExprPtr BalancedSum(const Schema& s, int levels) {
  if (levels == 0) return Col(s, "a");
  return Binary(BinaryOp::kAdd, BalancedSum(s, levels - 1),
                BalancedSum(s, levels - 1));
}

// The register limit is Compile's only error, and a Filter returns it from
// Open.
TEST(BytecodeCompileTest, RegisterLimitFailsOpen) {
  Schema s({{"a", TypeId::kInt64, "t"}});
  // 2^15 leaves plus 2^15 - 1 sums need 65,535 registers, over 0xFFF0.
  ExprPtr pred = Gt(BalancedSum(s, 15), Lit(int64_t{0}));
  Result<std::unique_ptr<ExprProgram>> prog =
      ExprProgram::CompilePredicate(*pred);
  ASSERT_FALSE(prog.ok());
  EXPECT_NE(prog.status().message().find("too large"), std::string::npos)
      << prog.status().ToString();

  auto table = MakeTable("t", s, {{Value::Int(1)}});
  FilterOp filter(std::make_unique<TableScanOp>(table.get()),
                  std::move(pred));
  ExecContext ctx;
  Result<QueryResult> r = ExecuteToVector(&filter, &ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().ToString(), prog.status().ToString());
}

TEST(BytecodeCompileTest, ToStringDisassembles) {
  Schema s = GroupedSchema();
  ASSIGN_OR_FAIL(
      std::unique_ptr<ExprProgram> prog,
      ExprProgram::Compile(*And(Gt(Col(s, "v"), Lit(int64_t{50})),
                                Lt(Binary(BinaryOp::kAdd, Col(s, "d"),
                                          Lit(1.5)),
                                   Lit(500.0)))));
  const std::string text = prog->ToString();
  EXPECT_NE(text.find("loadcol"), std::string::npos) << text;
  EXPECT_NE(text.find("cmp.gt.i64"), std::string::npos) << text;
  EXPECT_NE(text.find("add.f64"), std::string::npos) << text;
  EXPECT_NE(text.find("and"), std::string::npos) << text;
  EXPECT_EQ(prog->num_instructions(), 6u) << text;
}

TEST(BytecodeScanProgramTest, MatchesColumnarFilterRange) {
  Schema schema({{"v", TypeId::kInt64, "t"},
                 {"d", TypeId::kDouble, "t"},
                 {"name", TypeId::kString, "t"}});
  Rng rng(11);
  std::vector<Row> rows;
  const char* names[] = {"ann", "bob", "cat", "dee"};
  for (int i = 0; i < 500; ++i) {
    Row row;
    row.push_back(rng.Bernoulli(0.1) ? Value::Null()
                                     : Value::Int(rng.UniformInt(0, 100)));
    row.push_back(Value::Double(rng.UniformDouble(0.0, 1000.0)));
    row.push_back(rng.Bernoulli(0.1) ? Value::Null()
                                     : Value::Str(names[rng.UniformInt(0, 3)]));
    rows.push_back(std::move(row));
  }
  auto table = MakeTable("t", schema, std::move(rows));
  const ColumnarTable& ct = table->columnar();

  std::vector<std::vector<ScanPredicate>> pred_sets = {
      {{0, value_ops::CmpOp::kGt, Value::Int(50)}},
      {{1, value_ops::CmpOp::kLe, Value::Double(400.0)}},
      {{2, value_ops::CmpOp::kEq, Value::Str("bob")}},
      {{2, value_ops::CmpOp::kGe, Value::Str("cat")},
       {0, value_ops::CmpOp::kNe, Value::Int(7)}},
      {{0, value_ops::CmpOp::kGt, Value::Int(20)},
       {1, value_ops::CmpOp::kLt, Value::Double(900.0)},
       {2, value_ops::CmpOp::kNe, Value::Str("dee")}},
  };
  const std::vector<std::pair<size_t, size_t>> ranges = {
      {0, ct.num_rows()}, {13, 250}, {499, 500}, {100, 100}, {490, 10000}};
  for (const auto& preds : pred_sets) {
    ASSIGN_OR_FAIL(std::unique_ptr<ExprProgram> prog,
                   ExprProgram::CompileScanPredicates(ct, preds));
    for (const auto& range : ranges) {
      std::vector<uint32_t> got;
      Status st = prog->FilterRange(range.first, range.second, &got);
      ASSERT_TRUE(st.ok()) << st.ToString();
      EXPECT_EQ(tutil::ScanReferenceSelection(ct, schema, preds, range.first,
                                              range.second),
                got)
          << "preds[0].col=" << preds[0].column << " range [" << range.first
          << ", " << range.second << ")";
    }
  }
}

TEST(BytecodeEngineWiringTest, FilterAnnotatesProfileAndFallsBack) {
  // A NULL-typed column reference falls back to boxed instructions inside
  // the one program (IS NULL is total, so every row succeeds); the
  // profile counts that program's instructions like any other.
  Schema s({{"v", TypeId::kInt64, "t"}, {"n", TypeId::kNull, "t"}});
  auto table = MakeTable(
      "t", s,
      {{Value::Int(1), Value::Null()}, {Value::Int(2), Value::Null()}});

  auto run_filter = [&](ExprPtr pred) {
    auto scan = std::make_unique<TableScanOp>(table.get());
    auto filter =
        std::make_unique<FilterOp>(std::move(scan), std::move(pred));
    ExecContext ctx;
    ctx.set_profiling(true);
    Result<QueryResult> r = ExecuteToVector(filter.get(), &ctx);
    EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.status().ToString());
    EXPECT_EQ(r.ok() ? r->rows.size() : 0u, 2u);
    return CollectProfile(*filter).profile;
  };

  EXPECT_EQ(run_filter(Gt(Col(s, "v"), Lit(int64_t{0}))).expr_instructions,
            2u);
  // loadcol.box, 'is null'.box.
  EXPECT_EQ(
      run_filter(Unary(UnaryOp::kIsNull, Col(s, "n"))).expr_instructions, 2u);
}

TEST(BytecodeEngineWiringTest, ProjectReportsMixedEngines) {
  // One typed and one boxed expression: each compiles its own program and
  // the profile sums their instructions.
  Schema s({{"v", TypeId::kInt64, "t"}, {"n", TypeId::kNull, "t"}});
  auto table = MakeTable(
      "t", s,
      {{Value::Int(1), Value::Null()}, {Value::Int(2), Value::Null()}});
  auto scan = std::make_unique<TableScanOp>(table.get());
  std::vector<ExprPtr> exprs;
  exprs.push_back(Binary(BinaryOp::kAdd, Col(s, "v"), Lit(int64_t{1})));
  exprs.push_back(Unary(UnaryOp::kIsNull, Col(s, "n")));  // boxed
  ASSIGN_OR_FAIL(PhysOpPtr project,
                 ProjectOp::Make(std::move(scan), std::move(exprs),
                                 {"v1", "isnull_n"}));
  ExecContext ctx;
  ctx.set_profiling(true);
  ASSIGN_OR_FAIL(QueryResult result,
                 ExecuteToVector(project.get(), &ctx));
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_TRUE(SameValue(result.rows[1][0], Value::Int(3)));
  EXPECT_TRUE(SameValue(result.rows[1][1], Value::Bool(true)));
  // loadcol + add, then loadcol.box + 'is null'.box.
  EXPECT_EQ(CollectProfile(*project).profile.expr_instructions, 4u);
}

class BytecodeDatabaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tpch::TpchConfig config;
    config.scale_factor = 0.001;
    ASSERT_TRUE(db_.LoadTpch(config).ok());
    ASSERT_TRUE(db_.Query("set parallelism = 1").ok());
  }

  const Table& table(const std::string& name) {
    Result<Table*> t = db_.catalog()->GetTable(name);
    EXPECT_TRUE(t.ok()) << t.status().ToString();
    return **t;
  }

  Database db_;
};

// Whole queries through Filter / Project / scan pushdown / GApply match a
// reference computed with per-row Expr::Eval over the base tables.
TEST_F(BytecodeDatabaseTest, QueriesMatchRowEval) {
  const EvalContext ctx;
  {
    const Table& ps = table("partsupp");
    const Schema& s = ps.schema();
    ExprPtr pred = Gt(Col(s, "ps_availqty"), Lit(int64_t{100}));
    ExprPtr proj = Binary(
        BinaryOp::kAdd,
        Binary(BinaryOp::kMultiply, Col(s, "ps_availqty"), Lit(int64_t{2})),
        Lit(int64_t{1}));
    const size_t ps_partkey = *s.Resolve("ps_partkey");
    std::vector<Row> want;
    for (const Row& row : ps.rows()) {
      ASSIGN_OR_FAIL(bool keep, EvalPredicate(*pred, row, ctx));
      if (!keep) continue;
      ASSIGN_OR_FAIL(Value v, proj->Eval(row, ctx));
      want.push_back({row[ps_partkey], v});
    }
    ASSIGN_OR_FAIL(QueryResult got,
                   db_.Query("select ps_partkey, ps_availqty * 2 + 1 from "
                             "partsupp where ps_availqty > 100"));
    EXPECT_FALSE(want.empty());
    EXPECT_TRUE(SameRowSequence(want, got.rows));
  }
  {
    const Table& part = table("part");
    const Schema& s = part.schema();
    ExprPtr pred =
        Lt(Binary(BinaryOp::kDivide, Col(s, "p_retailprice"), Lit(2.0)),
           Lit(500.0));
    const size_t p_name = *s.Resolve("p_name");
    std::vector<Row> want;
    for (const Row& row : part.rows()) {
      ASSIGN_OR_FAIL(bool keep, EvalPredicate(*pred, row, ctx));
      if (keep) want.push_back({row[p_name]});
    }
    ASSIGN_OR_FAIL(QueryResult got,
                   db_.Query("select p_name from part "
                             "where p_retailprice / 2.0 < 500.0"));
    EXPECT_FALSE(want.empty());
    EXPECT_TRUE(SameRowSequence(want, got.rows));
  }
  {
    // Per supplier: how many of its parts cost more than 1000.
    const Table& ps = table("partsupp");
    const Table& part = table("part");
    const size_t ps_partkey = *ps.schema().Resolve("ps_partkey");
    const size_t ps_suppkey = *ps.schema().Resolve("ps_suppkey");
    const size_t p_partkey = *part.schema().Resolve("p_partkey");
    ExprPtr pred =
        Gt(Col(part.schema(), "p_retailprice"), Lit(int64_t{1000}));
    std::map<int64_t, int64_t> count_by_supplier;
    for (const Row& ps_row : ps.rows()) {
      int64_t& count = count_by_supplier[ps_row[ps_suppkey].int_val()];
      for (const Row& part_row : part.rows()) {
        if (!part_row[p_partkey].Equals(ps_row[ps_partkey])) continue;
        ASSIGN_OR_FAIL(bool keep, EvalPredicate(*pred, part_row, ctx));
        count += keep ? 1 : 0;
      }
    }
    std::vector<Row> want;
    for (const auto& [supplier, count] : count_by_supplier) {
      want.push_back({Value::Int(supplier), Value::Int(count)});
    }
    ASSIGN_OR_FAIL(
        QueryResult got,
        db_.Query("select gapply(select count(*) from g where "
                  "p_retailprice > 1000) from partsupp, part "
                  "where ps_partkey = p_partkey group by ps_suppkey : g"));
    EXPECT_TRUE(SameRowMultiset(want, got.rows));
  }
}

TEST_F(BytecodeDatabaseTest, ExplainAnalyzeShowsProgram) {
  const std::string sql = "select p_name from part where p_size > 20";
  ASSIGN_OR_FAIL(std::string text, db_.ExplainAnalyze(sql));
  EXPECT_NE(text.find("expr=bytecode["), std::string::npos) << text;
  ASSIGN_OR_FAIL(JsonValue json, db_.ExplainAnalyzeJson(sql));
  EXPECT_NE(json.Dump().find("expr_instructions"), std::string::npos);
}

// A correlated string reference loads the outer value into the register's
// own string and views it. The view must follow each outer row: the
// outer strings alternate among lengths 0, 15, 16 and 40 (inline, at the
// inline limit, just past it, and well past it), so a view left over from
// an earlier row has the wrong bytes or the wrong length. The reference
// evaluates each correlated predicate with per-row EvalPredicate.
TEST(BytecodeCorrelatedStringTest, ExistsInnerMatchesInterpreter) {
  auto text = [](size_t len, char c) {
    std::string s(len, c);
    for (size_t i = 0; i < len; i += 3) s[i] = static_cast<char>(c + 1);
    return s;
  };
  const size_t kLengths[] = {0, 15, 16, 40};
  std::vector<Row> outer_rows;
  std::vector<Row> inner_rows;
  for (int k = 0; k < 24; ++k) {
    const std::string s =
        text(kLengths[k % 4], static_cast<char>('a' + (k / 4) % 3));
    outer_rows.push_back({Value::Int(k), Value::Str(s)});
    // Every third row has an equal inner string; every row has a longer
    // one sharing its prefix.
    if (k % 3 == 0) inner_rows.push_back({Value::Str(s)});
    inner_rows.push_back({Value::Str(s + "~")});
  }
  const Schema inner_schema({{"iv", TypeId::kString, "i"}});
  Database db;
  ASSERT_TRUE(db.catalog()
                  ->AddTable(MakeTable("o",
                                       Schema({{"ok", TypeId::kInt64, "o"},
                                               {"os", TypeId::kString, "o"}}),
                                       outer_rows))
                  .ok());
  ASSERT_TRUE(
      db.catalog()->AddTable(MakeTable("i", inner_schema, inner_rows)).ok());

  // Per outer row: how many inner rows satisfy `iv <op> os`.
  auto count_matches = [&](BinaryOp op, const Row& outer) -> int64_t {
    ExprPtr pred = Binary(op, Col(inner_schema, "iv"),
                          std::make_unique<CorrelatedColumnRefExpr>(
                              0, 1, TypeId::kString, "os"));
    EvalContext ctx;
    ctx.outer_rows.push_back(&outer);
    int64_t n = 0;
    for (const Row& inner : inner_rows) {
      Result<bool> keep = EvalPredicate(*pred, inner, ctx);
      EXPECT_TRUE(keep.ok()) << keep.status().ToString();
      n += keep.ok() && *keep ? 1 : 0;
    }
    return n;
  };
  std::vector<Row> exists;
  std::vector<Row> not_exists;
  std::vector<Row> counts;
  for (const Row& outer : outer_rows) {
    (count_matches(BinaryOp::kEq, outer) > 0 ? exists : not_exists)
        .push_back({outer[0]});
    counts.push_back(
        {outer[0], Value::Int(count_matches(BinaryOp::kLt, outer))});
  }
  const std::vector<std::pair<std::string, std::vector<Row>>> cases = {
      {"select ok from o where exists (select iv from i where iv = os)",
       exists},
      {"select ok from o where not exists (select iv from i where iv = os)",
       not_exists},
      {"select ok, (select count(*) from i where iv < os) from o", counts},
  };
  for (const auto& [sql, want] : cases) {
    ASSIGN_OR_FAIL(QueryResult got, db.Query(sql));
    EXPECT_FALSE(want.empty()) << sql;
    EXPECT_TRUE(SameRowMultiset(want, got.rows)) << sql;
  }
}

TEST(FoldConstantsTest, FoldsPureConstantSubtrees) {
  Schema s = GroupedSchema();
  // 1 + 2 < v  becomes  3 < v.
  ExprPtr folded = FoldConstants(
      Lt(Binary(BinaryOp::kAdd, Lit(int64_t{1}), Lit(int64_t{2})),
         Col(s, "v")));
  EXPECT_TRUE(folded->StructurallyEquals(*Lt(Lit(int64_t{3}), Col(s, "v"))))
      << folded->ToString();
  // Nested: (1 + 2) * (3 + 4) collapses to 21.
  ExprPtr nested = FoldConstants(
      Binary(BinaryOp::kMultiply,
             Binary(BinaryOp::kAdd, Lit(int64_t{1}), Lit(int64_t{2})),
             Binary(BinaryOp::kAdd, Lit(int64_t{3}), Lit(int64_t{4}))));
  EXPECT_TRUE(nested->StructurallyEquals(*Lit(int64_t{21})))
      << nested->ToString();
  // Comparisons and logic fold too: NULL AND false is definitely false.
  ExprPtr kleene =
      FoldConstants(And(Lit(Value::Null()), Lit(Value::Bool(false))));
  EXPECT_TRUE(kleene->StructurallyEquals(*Lit(Value::Bool(false))))
      << kleene->ToString();
}

TEST(FoldConstantsTest, PreservesRuntimeErrors) {
  // 1 / 0 must keep raising "division by zero" at run time; folding it
  // away (or into an error) would change behavior over empty inputs.
  ExprPtr div = Binary(BinaryOp::kDivide, Lit(int64_t{1}), Lit(int64_t{0}));
  ExprPtr kept = FoldConstants(div->Clone());
  EXPECT_TRUE(kept->StructurallyEquals(*div)) << kept->ToString();
  ExprPtr mod = Binary(BinaryOp::kModulo, Lit(int64_t{5}), Lit(int64_t{0}));
  EXPECT_TRUE(FoldConstants(mod->Clone())->StructurallyEquals(*mod));
}

TEST(FoldConstantsTest, PreservesNullTyping) {
  // NULL + 1 evaluates to NULL but is statically kInt64; folding to a
  // NULL literal would retype the node, so it stays.
  ExprPtr e = Binary(BinaryOp::kAdd, Lit(Value::Null()), Lit(int64_t{1}));
  ExprPtr kept = FoldConstants(e->Clone());
  EXPECT_TRUE(kept->StructurallyEquals(*e)) << kept->ToString();
  // NULL = NULL is statically bool and evaluates to NULL — also kept.
  ExprPtr cmp = Eq(Lit(Value::Null()), Lit(Value::Null()));
  EXPECT_TRUE(FoldConstants(cmp->Clone())->StructurallyEquals(*cmp));
}

}  // namespace
}  // namespace gapply
