// Tests for the register-bytecode expression engine (DESIGN.md §14): the
// program must be bit-for-bit identical to the tree interpreter — values,
// NULL masks, and error messages — the compiler must decline exactly the
// value-dependent-type-error shapes, scan programs must reproduce
// ColumnarTable::FilterRange, constant folding must preserve semantics,
// and the `SET expr_engine` knob must reach the lowered operators.

#include <gtest/gtest.h>

#include <memory>
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

// Compiles `expr` (must succeed) and checks the program against the
// interpreter over `batch`: same success/failure, same error text on
// failure, element-wise Value::Equals on success.
void ExpectProgramMatchesInterpreter(const Expr& expr, const RowBatch& batch,
                                     const EvalContext& ctx = {}) {
  SCOPED_TRACE("expr: " + expr.ToString());
  Result<std::unique_ptr<ExprProgram>> prog = ExprProgram::Compile(expr);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  std::vector<Value> want;
  std::vector<Value> got;
  const Status si = expr.EvalBatch(batch, ctx, &want);
  const Status sb = (*prog)->EvalBatch(batch, ctx, &got);
  ASSERT_EQ(si.ok(), sb.ok())
      << "interpreter: " << si.ToString() << "\nbytecode: " << sb.ToString();
  if (!si.ok()) {
    EXPECT_EQ(si.ToString(), sb.ToString());
    return;
  }
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(want[i].Equals(got[i]))
        << "row " << i << ": interpreter=" << want[i].ToString()
        << " bytecode=" << got[i].ToString();
  }
}

// Same bar for the predicate form (SQL WHERE keep flags).
void ExpectPredicateMatchesInterpreter(const Expr& pred,
                                       const RowBatch& batch) {
  SCOPED_TRACE("pred: " + pred.ToString());
  Result<std::unique_ptr<ExprProgram>> prog =
      ExprProgram::CompilePredicate(pred);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  EvalContext ctx;
  std::vector<char> want;
  std::vector<char> got;
  const Status si = EvalPredicateBatch(pred, batch, ctx, &want);
  const Status sb = (*prog)->EvalPredicateBatch(batch, ctx, &got);
  ASSERT_EQ(si.ok(), sb.ok())
      << "interpreter: " << si.ToString() << "\nbytecode: " << sb.ToString();
  if (!si.ok()) {
    EXPECT_EQ(si.ToString(), sb.ToString());
    return;
  }
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i] != 0, got[i] != 0) << "row " << i;
  }
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
  ExpectProgramMatchesInterpreter(
      *Binary(BinaryOp::kSubtract,
              Binary(BinaryOp::kMultiply,
                     Binary(BinaryOp::kAdd, Col(s, "v"), Lit(int64_t{7})),
                     Col(s, "k")),
              Col(s, "v")),
      batch_);
  // Mixed int/double promotion: v / 3 + d * 2.0.
  ExpectProgramMatchesInterpreter(
      *Binary(BinaryOp::kAdd,
              Binary(BinaryOp::kDivide, Col(s, "v"), Lit(int64_t{3})),
              Binary(BinaryOp::kMultiply, Col(s, "d"), Lit(2.0))),
      batch_);
  // Modulo over non-zero divisor (k >= 1) and unary negation.
  ExpectProgramMatchesInterpreter(
      *Binary(BinaryOp::kModulo, Col(s, "v"), Col(s, "k")), batch_);
  ExpectProgramMatchesInterpreter(*Unary(UnaryOp::kNegate, Col(s, "v")),
                                  batch_);
  ExpectProgramMatchesInterpreter(*Unary(UnaryOp::kNegate, Col(s, "d")),
                                  batch_);
}

TEST_F(BytecodeDifferentialTest, ComparisonsAndLogic) {
  const Schema& s = schema_;
  ExpectProgramMatchesInterpreter(*Gt(Col(s, "v"), Lit(int64_t{50})), batch_);
  ExpectProgramMatchesInterpreter(*Le(Col(s, "d"), Lit(500.0)), batch_);
  // Mixed-type comparison takes the double path via int→double cast.
  ExpectProgramMatchesInterpreter(*Lt(Col(s, "v"), Col(s, "d")), batch_);
  // Kleene logic with NULL operands, and NOT.
  ExpectProgramMatchesInterpreter(
      *And(Gt(Col(s, "v"), Lit(int64_t{20})), Lt(Col(s, "d"), Lit(800.0))),
      batch_);
  ExpectProgramMatchesInterpreter(
      *Or(Unary(UnaryOp::kNot, Gt(Col(s, "v"), Lit(int64_t{90}))),
          Eq(Col(s, "k"), Lit(int64_t{3}))),
      batch_);
  ExpectProgramMatchesInterpreter(*Unary(UnaryOp::kIsNull, Col(s, "v")),
                                  batch_);
  ExpectProgramMatchesInterpreter(*Unary(UnaryOp::kIsNotNull, Col(s, "v")),
                                  batch_);
  // Predicate form: NULL comparisons reject the row.
  ExpectPredicateMatchesInterpreter(*Gt(Col(s, "v"), Lit(int64_t{50})),
                                    batch_);
  ExpectPredicateMatchesInterpreter(
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
  ExpectProgramMatchesInterpreter(*Eq(Col(s, "name"), Lit("beta")), batch);
  ExpectProgramMatchesInterpreter(*Lt(Col(s, "name"), Lit("m")), batch);
  ExpectProgramMatchesInterpreter(*Unary(UnaryOp::kIsNull, Col(s, "name")),
                                  batch);
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
  ExpectProgramMatchesInterpreter(*Gt(Col(s, "v"), outer_ref()), batch_, ctx);
  ExpectProgramMatchesInterpreter(
      *Binary(BinaryOp::kAdd, Col(s, "v"), outer_ref()), batch_, ctx);
  // Missing outer frame: both engines must raise the identical error.
  ExpectProgramMatchesInterpreter(*Gt(Col(s, "v"), outer_ref()), batch_,
                                  EvalContext{});
}

TEST_F(BytecodeDifferentialTest, ErrorMessageParity) {
  const Schema& s = schema_;
  // Integer and double division by zero, modulo by zero: same error text.
  ExpectProgramMatchesInterpreter(
      *Binary(BinaryOp::kDivide, Col(s, "v"), Lit(int64_t{0})), batch_);
  ExpectProgramMatchesInterpreter(
      *Binary(BinaryOp::kDivide, Col(s, "d"), Lit(0.0)), batch_);
  ExpectProgramMatchesInterpreter(
      *Binary(BinaryOp::kModulo, Col(s, "v"), Lit(int64_t{0})), batch_);
  // A NULL-typed operand must not suppress the other side's runtime error:
  // NULL = (1/0) raises "division by zero" in both engines.
  ExpectProgramMatchesInterpreter(
      *Eq(Lit(Value::Null()),
          Binary(BinaryOp::kDivide, Lit(int64_t{1}), Lit(int64_t{0}))),
      batch_);
  // ...but NULL compared to a well-defined side is just NULL everywhere.
  ExpectProgramMatchesInterpreter(*Eq(Lit(Value::Null()), Col(s, "v")),
                                  batch_);
}

TEST(BytecodeCompileTest, DeclinesValueDependentTypeErrors) {
  Schema s({{"v", TypeId::kInt64, "t"},
            {"name", TypeId::kString, "t"},
            {"d", TypeId::kDouble, "t"}});
  // Comparison between statically incomparable types.
  EXPECT_FALSE(ExprProgram::Compile(*Eq(Col(s, "v"), Col(s, "name"))).ok());
  // Arithmetic over a string operand.
  EXPECT_FALSE(
      ExprProgram::Compile(*Binary(BinaryOp::kAdd, Col(s, "name"), Lit("x")))
          .ok());
  // Modulo over doubles (int64-only in value_ops).
  EXPECT_FALSE(
      ExprProgram::Compile(*Binary(BinaryOp::kModulo, Col(s, "d"), Lit(2.0)))
          .ok());
  // Logic over non-bool operands.
  EXPECT_FALSE(
      ExprProgram::Compile(*And(Col(s, "v"), Gt(Col(s, "v"), Lit(int64_t{0}))))
          .ok());
  // Negation of a string.
  EXPECT_FALSE(
      ExprProgram::Compile(*Unary(UnaryOp::kNegate, Col(s, "name"))).ok());
  // Predicate gate: the result must be statically bool (or NULL).
  EXPECT_FALSE(ExprProgram::CompilePredicate(*Col(s, "v")).ok());
  EXPECT_TRUE(
      ExprProgram::CompilePredicate(*Gt(Col(s, "v"), Lit(int64_t{0}))).ok());
  EXPECT_TRUE(ExprProgram::CompilePredicate(*Lit(Value::Null())).ok());
  // The decline reason names the offending node shape.
  Result<std::unique_ptr<ExprProgram>> r =
      ExprProgram::Compile(*Eq(Col(s, "v"), Col(s, "name")));
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("comparison between"),
            std::string::npos)
      << r.status().ToString();
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
    const std::vector<CompiledPredicate> compiled =
        ct.CompilePredicates(preds);
    ASSIGN_OR_FAIL(std::unique_ptr<ExprProgram> prog,
                   ExprProgram::CompileScanPredicates(ct, preds));
    for (const auto& range : ranges) {
      std::vector<uint32_t> want;
      std::vector<uint32_t> got;
      ct.FilterRange(range.first, range.second, compiled, &want);
      Status st = prog->FilterRange(range.first, range.second, &got);
      ASSERT_TRUE(st.ok()) << st.ToString();
      EXPECT_EQ(want, got) << "preds[0].col=" << preds[0].column << " range ["
                           << range.first << ", " << range.second << ")";
    }
  }
}

TEST(BytecodeEngineWiringTest, FilterAnnotatesProfileAndFallsBack) {
  // A NULL-typed column reference is one of the shapes the compiler
  // declines; the interpreter handles it fine (IS NULL is total), so the
  // operator must fall back and say why.
  Schema s({{"v", TypeId::kInt64, "t"}, {"n", TypeId::kNull, "t"}});
  auto table = MakeTable(
      "t", s,
      {{Value::Int(1), Value::Null()}, {Value::Int(2), Value::Null()}});

  auto run_filter = [&](ExprPtr pred, ExprEngine engine) {
    auto scan = std::make_unique<TableScanOp>(table.get());
    auto filter =
        std::make_unique<FilterOp>(std::move(scan), std::move(pred));
    filter->set_expr_engine(engine);
    ExecContext ctx;
    ctx.set_profiling(true);
    Result<QueryResult> r = ExecuteToVector(filter.get(), &ctx);
    EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.status().ToString());
    return CollectProfile(*filter).profile;
  };

  OpRuntimeProfile compiled = run_filter(Gt(Col(s, "v"), Lit(int64_t{0})),
                                         ExprEngine::kBytecode);
  EXPECT_EQ(compiled.expr_engine, "bytecode");
  EXPECT_EQ(compiled.expr_instructions, 2u);
  EXPECT_TRUE(compiled.expr_fallback.empty()) << compiled.expr_fallback;

  OpRuntimeProfile fallback = run_filter(
      Unary(UnaryOp::kIsNull, Col(s, "n")), ExprEngine::kBytecode);
  EXPECT_EQ(fallback.expr_engine, "interpret");
  EXPECT_EQ(fallback.expr_instructions, 0u);
  EXPECT_FALSE(fallback.expr_fallback.empty());

  OpRuntimeProfile forced = run_filter(Gt(Col(s, "v"), Lit(int64_t{0})),
                                       ExprEngine::kInterpret);
  EXPECT_EQ(forced.expr_engine, "interpret");
}

TEST(BytecodeEngineWiringTest, ProjectReportsMixedEngines) {
  Schema s({{"v", TypeId::kInt64, "t"}, {"n", TypeId::kNull, "t"}});
  auto table = MakeTable(
      "t", s,
      {{Value::Int(1), Value::Null()}, {Value::Int(2), Value::Null()}});
  auto scan = std::make_unique<TableScanOp>(table.get());
  std::vector<ExprPtr> exprs;
  exprs.push_back(Binary(BinaryOp::kAdd, Col(s, "v"), Lit(int64_t{1})));
  exprs.push_back(Unary(UnaryOp::kIsNull, Col(s, "n")));  // declines
  ASSIGN_OR_FAIL(PhysOpPtr project,
                 ProjectOp::Make(std::move(scan), std::move(exprs),
                                 {"v1", "isnull_n"}));
  static_cast<ProjectOp*>(project.get())
      ->set_expr_engine(ExprEngine::kBytecode);
  ExecContext ctx;
  ctx.set_profiling(true);
  ASSIGN_OR_FAIL(QueryResult result,
                 ExecuteToVector(project.get(), &ctx));
  EXPECT_EQ(result.rows.size(), 2u);
  const OpRuntimeProfile profile = CollectProfile(*project).profile;
  EXPECT_EQ(profile.expr_engine, "mixed");
  EXPECT_FALSE(profile.expr_fallback.empty());
  EXPECT_GT(profile.expr_instructions, 0u);
}

TEST(ExprEngineParseTest, ParsesAndRejects) {
  ExprEngine e = ExprEngine::kAuto;
  EXPECT_TRUE(ParseExprEngine("bytecode", &e));
  EXPECT_EQ(e, ExprEngine::kBytecode);
  EXPECT_TRUE(ParseExprEngine("interpret", &e));
  EXPECT_EQ(e, ExprEngine::kInterpret);
  EXPECT_TRUE(ParseExprEngine("auto", &e));
  EXPECT_EQ(e, ExprEngine::kAuto);
  EXPECT_FALSE(ParseExprEngine("jit", &e));
  EXPECT_FALSE(ParseExprEngine("", &e));
  EXPECT_STREQ(ExprEngineName(ExprEngine::kBytecode), "bytecode");
  EXPECT_STREQ(ExprEngineName(ExprEngine::kInterpret), "interpret");
}

class ExprEngineDatabaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tpch::TpchConfig config;
    config.scale_factor = 0.001;
    ASSERT_TRUE(db_.LoadTpch(config).ok());
  }

  Database db_;
};

TEST_F(ExprEngineDatabaseTest, SetExprEngineIsBitForBit) {
  const std::vector<std::string> queries = {
      "select ps_partkey, ps_availqty * 2 + 1 from partsupp "
      "where ps_availqty > 100",
      "select p_name from part where p_retailprice / 2.0 < 450.0",
      "select gapply(select count(*) from g where p_retailprice > 900) "
      "from partsupp, part where ps_partkey = p_partkey "
      "group by ps_suppkey : g",
  };
  for (const std::string& sql : queries) {
    ASSERT_TRUE(db_.Query("set expr_engine = interpret").ok());
    ASSIGN_OR_FAIL(QueryResult interp, db_.Query(sql));
    ASSERT_TRUE(db_.Query("set expr_engine = bytecode").ok());
    ASSIGN_OR_FAIL(QueryResult bytecode, db_.Query(sql));
    EXPECT_TRUE(SameRowSequence(interp.rows, bytecode.rows)) << sql;
  }
}

TEST_F(ExprEngineDatabaseTest, ExplainAnalyzeShowsEngine) {
  ASSERT_TRUE(db_.Query("set expr_engine = bytecode").ok());
  ASSIGN_OR_FAIL(
      std::string text,
      db_.ExplainAnalyze("select p_name from part where p_size > 20"));
  EXPECT_NE(text.find("expr=bytecode"), std::string::npos) << text;

  ASSERT_TRUE(db_.Query("set expr_engine = interpret").ok());
  ASSIGN_OR_FAIL(
      std::string interp_text,
      db_.ExplainAnalyze("select p_name from part where p_size > 20"));
  EXPECT_NE(interp_text.find("expr=interpret"), std::string::npos)
      << interp_text;

  ASSIGN_OR_FAIL(
      JsonValue json,
      db_.ExplainAnalyzeJson("select p_name from part where p_size > 20"));
  EXPECT_NE(json.Dump().find("expr_engine"), std::string::npos);
}

TEST_F(ExprEngineDatabaseTest, RejectsUnknownEngine) {
  Result<QueryResult> r = db_.Query("set expr_engine = jit");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("expr_engine"), std::string::npos);
}

// A correlated string reference loads the outer value into the register's
// own string and views it. The view must follow each outer row: the
// outer strings alternate among lengths 0, 15, 16 and 40 (inline, at the
// inline limit, just past it, and well past it), so a view left over from
// an earlier row has the wrong bytes or the wrong length.
TEST(ExprEngineCorrelatedStringTest, ExistsInnerMatchesInterpreter) {
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
  Database db;
  ASSERT_TRUE(db.catalog()
                  ->AddTable(MakeTable("o",
                                       Schema({{"ok", TypeId::kInt64, "o"},
                                               {"os", TypeId::kString, "o"}}),
                                       outer_rows))
                  .ok());
  ASSERT_TRUE(db.catalog()
                  ->AddTable(MakeTable(
                      "i", Schema({{"iv", TypeId::kString, "i"}}), inner_rows))
                  .ok());
  const std::vector<std::string> queries = {
      "select ok from o where exists (select iv from i where iv = os)",
      "select ok from o where not exists (select iv from i where iv = os)",
      "select ok, (select count(*) from i where iv < os) from o",
  };
  for (const std::string& sql : queries) {
    ASSERT_TRUE(db.Query("set expr_engine = interpret").ok());
    ASSIGN_OR_FAIL(QueryResult interp, db.Query(sql));
    ASSERT_TRUE(db.Query("set expr_engine = bytecode").ok());
    ASSIGN_OR_FAIL(QueryResult bytecode, db.Query(sql));
    EXPECT_FALSE(interp.rows.empty()) << sql;
    EXPECT_TRUE(SameRowSequence(interp.rows, bytecode.rows)) << sql;
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
