#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "src/engine/database.h"
#include "src/sql/lexer.h"
#include "src/sql/parser.h"
#include "tests/test_util.h"

namespace gapply::sql {
namespace {

TEST(LexerTest, TokenKinds) {
  auto tokens = Lex("SELECT p_name, 42, 3.14, 'it''s' FROM part;");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 12u);  // incl. end token
  EXPECT_EQ((*tokens)[0].type, TokenType::kIdentifier);
  EXPECT_EQ((*tokens)[0].text, "select");  // lowercased
  EXPECT_EQ((*tokens)[0].raw, "SELECT");
  EXPECT_EQ((*tokens)[3].type, TokenType::kInteger);
  EXPECT_EQ((*tokens)[5].type, TokenType::kFloat);
  EXPECT_EQ((*tokens)[7].type, TokenType::kString);
  EXPECT_EQ((*tokens)[7].text, "it's");
  EXPECT_EQ((*tokens)[10].text, ";");
}

TEST(LexerTest, OperatorsAndComments) {
  auto tokens = Lex("a <> b -- comment\n <= >= != < > : .");
  ASSERT_TRUE(tokens.ok());
  std::vector<std::string> symbols;
  for (const Token& t : *tokens) {
    if (t.type == TokenType::kSymbol) symbols.push_back(t.text);
  }
  EXPECT_EQ(symbols,
            (std::vector<std::string>{"<>", "<=", ">=", "<>", "<", ">", ":",
                                      "."}));
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(Lex("select 'unterminated").ok());
  EXPECT_FALSE(Lex("select @").ok());
}

TEST(ParserTest, SimpleSelect) {
  auto q = Parse("select p_name, p_retailprice from part where p_size > 10");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ((*q)->branches.size(), 1u);
  const SelectStmt& s = *(*q)->branches[0];
  EXPECT_EQ(s.items.size(), 2u);
  EXPECT_EQ(s.from.size(), 1u);
  EXPECT_EQ(s.from[0].table, "part");
  ASSERT_NE(s.where, nullptr);
  EXPECT_EQ(s.where->kind, SqlExprKind::kBinary);
  EXPECT_EQ(s.where->binary_op, BinaryOp::kGt);
}

TEST(ParserTest, AliasesAndQualifiedRefs) {
  auto q = Parse("select ps.ps_suppkey as sk from partsupp ps, part p "
                 "where ps.ps_partkey = p.p_partkey");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const SelectStmt& s = *(*q)->branches[0];
  EXPECT_EQ(s.items[0].alias, "sk");
  EXPECT_EQ(s.items[0].expr->qualifier, "ps");
  EXPECT_EQ(s.from[1].alias, "p");
}

TEST(ParserTest, UnionAllAndOrderBy) {
  auto q = Parse("select a from t union all select b from u order by a desc");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ((*q)->branches.size(), 2u);
  ASSERT_EQ((*q)->order_by.size(), 1u);
  EXPECT_FALSE((*q)->order_by[0].ascending);
}

TEST(ParserTest, PlainUnionRejected) {
  EXPECT_FALSE(Parse("select a from t union select b from u").ok());
}

TEST(ParserTest, AggregatesAndGroupBy) {
  auto q = Parse("select ps_suppkey, count(*), sum(ps_availqty), "
                 "count(distinct ps_partkey) from partsupp "
                 "group by ps_suppkey having count(*) > 2");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const SelectStmt& s = *(*q)->branches[0];
  EXPECT_TRUE(s.items[1].expr->star_arg);
  EXPECT_TRUE(s.items[3].expr->distinct_arg);
  EXPECT_EQ(s.group_by.size(), 1u);
  EXPECT_TRUE(s.group_var.empty());
  ASSERT_NE(s.having, nullptr);
}

TEST(ParserTest, GApplySyntaxExtension) {
  // The paper's §3.1 Q1 syntax, verbatim modulo whitespace.
  auto q = Parse(
      "select gapply(select p_name, p_retailprice, null from tmpsupp "
      "              union all "
      "              select null, null, avg(p_retailprice) from tmpsupp) "
      "from partsupp, part "
      "where ps_partkey = p_partkey "
      "group by ps_suppkey : tmpsupp");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const SelectStmt& s = *(*q)->branches[0];
  ASSERT_NE(s.gapply_pgq, nullptr);
  EXPECT_EQ(s.gapply_pgq->branches.size(), 2u);
  EXPECT_EQ(s.group_var, "tmpsupp");
  EXPECT_EQ(s.group_by.size(), 1u);
}

TEST(ParserTest, GApplyWithColumnNames) {
  auto q = Parse(
      "select gapply(select count(*) from g) as (cnt) "
      "from partsupp group by ps_suppkey : g");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ((*q)->branches[0]->gapply_names,
            (std::vector<std::string>{"cnt"}));
}

TEST(ParserTest, SubqueriesAndExists) {
  auto q = Parse(
      "select s_suppkey from supplier where "
      "exists (select ps_suppkey from partsupp where ps_suppkey = s_suppkey)"
      " and s_acctbal > (select avg(s_acctbal) from supplier)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const SqlExpr& where = *(*q)->branches[0]->where;
  ASSERT_EQ(where.kind, SqlExprKind::kBinary);
  EXPECT_EQ(where.binary_op, BinaryOp::kAnd);
  EXPECT_EQ(where.left->kind, SqlExprKind::kExists);
  EXPECT_EQ(where.right->right->kind, SqlExprKind::kScalarSubquery);
}

TEST(ParserTest, NotExists) {
  auto q = Parse("select a from t where not exists (select b from u)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const SqlExpr& where = *(*q)->branches[0]->where;
  EXPECT_EQ(where.kind, SqlExprKind::kExists);
  EXPECT_TRUE(where.negated);
}

TEST(ParserTest, ExpressionPrecedence) {
  auto q = Parse("select a from t where a + 2 * b >= 10 and not c = 1 or d "
                 "is not null");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const SqlExpr& where = *(*q)->branches[0]->where;
  // Top is OR.
  EXPECT_EQ(where.binary_op, BinaryOp::kOr);
  // OR's left is AND; AND's left is >=; >='s left is a + (2*b).
  const SqlExpr& ge = *where.left->left;
  EXPECT_EQ(ge.binary_op, BinaryOp::kGe);
  EXPECT_EQ(ge.left->binary_op, BinaryOp::kAdd);
  EXPECT_EQ(ge.left->right->binary_op, BinaryOp::kMultiply);
  // OR's right: IS NOT NULL.
  EXPECT_EQ(where.right->kind, SqlExprKind::kUnary);
  EXPECT_EQ(where.right->unary_op, UnaryOp::kIsNotNull);
}

TEST(ParserTest, ErrorMessagesCarryOffsets) {
  auto q = Parse("select from t");
  ASSERT_FALSE(q.ok());
  EXPECT_NE(q.status().message().find("offset"), std::string::npos);
  EXPECT_FALSE(Parse("select a t").ok());          // missing FROM
  EXPECT_FALSE(Parse("select a from t where").ok());
  EXPECT_FALSE(Parse("select a from t group by").ok());
  EXPECT_FALSE(Parse("select gapply(select 1 from g from t").ok());
  EXPECT_FALSE(Parse("select a from t; extra").ok());
}

TEST(ParserTest, LiteralForms) {
  auto q = Parse("select 1, -2.5, 'x', null, true, false from t");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const auto& items = (*q)->branches[0]->items;
  EXPECT_EQ(items[0].expr->literal.int_val(), 1);
  EXPECT_EQ(items[1].expr->kind, SqlExprKind::kUnary);  // unary minus
  EXPECT_EQ(items[3].expr->literal.type(), TypeId::kNull);
  EXPECT_EQ(items[4].expr->literal.bool_val(), true);
}

// Parses `sql`, which must be a SET statement, and returns its assignment.
SetStatement ParseSet(const std::string& sql) {
  Result<Statement> stmt = ParseStatement(sql);
  EXPECT_TRUE(stmt.ok()) << sql << ": " << stmt.status().ToString();
  if (!stmt.ok()) return {};
  EXPECT_EQ(stmt->kind, Statement::Kind::kSet) << sql;
  return stmt->set;
}

TEST(ParserTest, SetStatementValueForms) {
  // Integer value.
  SetStatement num = ParseSet("set parallelism = 4");
  EXPECT_EQ(num.name, "parallelism");
  EXPECT_EQ(num.value, 4);
  EXPECT_TRUE(num.word.empty());
  EXPECT_EQ(ParseSet("set batch_size = -3").value, -3);

  // on/off/true/false still parse as 1/0, not as words.
  for (const auto& [text, expected] :
       {std::pair<const char*, int64_t>{"on", 1},
        {"off", 0},
        {"true", 1},
        {"false", 0}}) {
    SetStatement r = ParseSet(std::string("set profile = ") + text);
    EXPECT_EQ(r.value, expected) << text;
    EXPECT_TRUE(r.word.empty()) << text;
    EXPECT_TRUE(r.from_bool_word) << text;
  }

  // Any other identifier becomes a word value for the engine to validate.
  SetStatement word = ParseSet("SET storage = COLUMNAR");
  EXPECT_EQ(word.name, "storage");
  EXPECT_EQ(word.word, "columnar");  // lowercased by the lexer

  // Not a SET statement at all: a query.
  auto other = ParseStatement("select 1 from t");
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(other->kind, Statement::Kind::kQuery);
}

TEST(StatementTest, DispatchesEveryKind) {
  using Kind = Statement::Kind;
  struct Case {
    const char* sql;
    Kind kind;
    const char* name;     // prepared-statement / SET option name
    bool has_query;       // `query` set (a query, or PREPARE's body)
  };
  const Case cases[] = {
      {"select a from t", Kind::kQuery, "", true},
      {"  \n\tSeLeCt a FROM t;", Kind::kQuery, "", true},
      {"select * from settings", Kind::kQuery, "", true},
      {"set parallelism = 4", Kind::kSet, "parallelism", false},
      {"  SeT Profile = ON;", Kind::kSet, "profile", false},
      {"prepare q as select a from t", Kind::kPrepare, "q", true},
      {" PREPARE Q As Select a From t ;", Kind::kPrepare, "q", true},
      {"execute q", Kind::kExecute, "q", false},
      {"\nEXECUTE Q;", Kind::kExecute, "q", false},
      {"deallocate q", Kind::kDeallocate, "q", false},
      {"  DeAllocate Q ;", Kind::kDeallocate, "q", false},
      {"deallocate all", Kind::kDeallocate, "", false},
      {"explain select a from t", Kind::kExplain, "", false},
      {"EXPLAIN ANALYZE execute q;", Kind::kExplain, "", false},
      {" explain (analyze, format json) select a from t;", Kind::kExplain, "",
       false},
  };
  for (const Case& c : cases) {
    Result<Statement> stmt = ParseStatement(c.sql);
    ASSERT_TRUE(stmt.ok()) << c.sql << ": " << stmt.status().ToString();
    EXPECT_EQ(stmt->kind, c.kind) << c.sql;
    EXPECT_EQ(c.kind == Kind::kSet ? stmt->set.name : stmt->name, c.name)
        << c.sql;
    EXPECT_EQ(stmt->query != nullptr, c.has_query) << c.sql;
    EXPECT_EQ(stmt->target != nullptr, c.kind == Kind::kExplain) << c.sql;
  }

  auto dealloc_all = ParseStatement("DEALLOCATE ALL;");
  ASSERT_TRUE(dealloc_all.ok());
  EXPECT_TRUE(dealloc_all->all);

  auto settings = ParseStatement("select * from settings");
  ASSERT_TRUE(settings.ok());
  EXPECT_EQ(settings->query->branches[0]->from[0].table, "settings");

  auto plain = ParseStatement("explain select a from t");
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain->analyze);
  EXPECT_FALSE(plain->json);
  EXPECT_EQ(plain->target->kind, Kind::kQuery);
  ASSERT_NE(plain->target->query, nullptr);

  auto analyze_execute = ParseStatement("EXPLAIN ANALYZE execute Q;");
  ASSERT_TRUE(analyze_execute.ok());
  EXPECT_TRUE(analyze_execute->analyze);
  EXPECT_EQ(analyze_execute->target->kind, Kind::kExecute);
  EXPECT_EQ(analyze_execute->target->name, "q");

  auto json = ParseStatement("explain (analyze, format json) select a from t");
  ASSERT_TRUE(json.ok());
  EXPECT_TRUE(json->analyze);
  EXPECT_TRUE(json->json);
  auto text = ParseStatement("explain (format json, format text) select a "
                             "from t");
  ASSERT_TRUE(text.ok());
  EXPECT_FALSE(text->json);
}

TEST(StatementTest, KeywordPrefixesAreNotStatements) {
  // Identifiers that only start with a statement keyword are not that
  // statement: they go to the query grammar, which rejects them there.
  for (const char* sql : {"setx = 1", "settings", "prepared q as x",
                          "executes q", "explained select a from t"}) {
    Result<Statement> stmt = ParseStatement(sql);
    ASSERT_FALSE(stmt.ok()) << sql;
    EXPECT_NE(stmt.status().message().find("expected 'select'"),
              std::string::npos)
        << sql << ": " << stmt.status().ToString();
  }
}

TEST(StatementTest, MalformedStatementMessages) {
  // The exact messages of malformed statements, including the offsets a
  // PREPARE body or EXPLAIN target reports from its own first token.
  const std::pair<const char*, const char*> cases[] = {
      {"set", "parse error in SET statement at position 3: expected option "
              "name"},
      {"set parallelism 4",
       "parse error in SET statement at position 16: expected '='"},
      {"set parallelism =",
       "parse error in SET statement at position 17: expected integer value"},
      {"set parallelism = - on",
       "parse error in SET statement at position 20: expected integer value"},
      {"SET parallelism = 4;;",
       "parse error in SET statement at position 20: unexpected trailing "
       "input"},
      {"set 5 = 4",
       "parse error in SET statement at position 4: expected option name"},
      {"prepare", "parse error in PREPARE statement at position 7: expected "
                  "statement name"},
      {"prepare q select 1 from t",
       "parse error in PREPARE statement at position 10: expected AS"},
      {"prepare q as", "parse error in PREPARE statement at position 12: "
                       "expected a statement after AS"},
      {"prepare q as select from",
       "parse error at offset 7 ('from'): unexpected keyword in expression"},
      {"prepare q2 as  select r_name from region where",
       "parse error at offset 31 (end of input): expected an expression"},
      {"prepare q3 as set x = 1",
       "parse error at offset 0 ('set'): expected 'select'"},
      {"execute", "parse error in EXECUTE statement at position 7: expected "
                  "prepared-statement name"},
      {"execute 5", "parse error in EXECUTE statement at position 8: "
                    "expected prepared-statement name"},
      {"execute p;;", "parse error in EXECUTE statement at position 10: "
                      "unexpected trailing input"},
      {"deallocate", "parse error in DEALLOCATE statement at position 10: "
                     "expected prepared-statement name or ALL"},
      {"deallocate all x", "parse error in DEALLOCATE statement at position "
                           "15: unexpected trailing input"},
      {"explain", "parse error in EXPLAIN statement at position 7: expected "
                  "a statement after EXPLAIN"},
      {"explain (analyze", "parse error in EXPLAIN statement at position 16: "
                           "expected ')' closing the EXPLAIN option list"},
      {"explain (analyze,", "parse error in EXPLAIN statement at position "
                            "17: expected EXPLAIN option (ANALYZE, FORMAT)"},
      {"explain (format xml) select 1",
       "parse error in EXPLAIN statement at position 16: expected JSON or "
       "TEXT after FORMAT"},
      {"explain (analyze) ", "parse error in EXPLAIN statement at position "
                             "18: expected a statement after EXPLAIN"},
      {"explain analyze select x from",
       "parse error at offset 13 (end of input): expected table name"},
      {"explain set x = 1",
       "parse error at offset 0 ('set'): expected 'select'"},
      {"explain execute", "parse error in EXECUTE statement at position 7: "
                          "expected prepared-statement name"},
      {"explain analyze execute p q",
       "parse error in EXECUTE statement at position 10: unexpected trailing "
       "input"},
      {"", "parse error at offset 0 (end of input): expected 'select'"},
      {";", "parse error at offset 0 (';'): expected 'select'"},
      {"select 'abc", "unterminated string literal at offset 7"},
      {"select r_name from region; extra",
       "parse error at offset 27 ('extra'): unexpected trailing input"},
  };
  for (const auto& [sql, message] : cases) {
    Result<Statement> stmt = ParseStatement(sql);
    ASSERT_FALSE(stmt.ok()) << sql;
    EXPECT_EQ(stmt.status().code(), StatusCode::kInvalidArgument) << sql;
    EXPECT_EQ(stmt.status().message(), message) << sql;
  }
}

// `depth` open parentheses around `inner`, closed again.
std::string Parenthesized(const std::string& inner, int depth) {
  return std::string(static_cast<size_t>(depth), '(') + inner +
         std::string(static_cast<size_t>(depth), ')');
}

// `prefix` repeated `count` times, then `inner`.
std::string Prefixed(const std::string& prefix, int count,
                     const std::string& inner) {
  std::string out;
  for (int i = 0; i < count; ++i) out += prefix;
  return out + inner;
}

// `terms` copies of `term` joined by `op`: a left-deep operator chain. The
// parser loops over it, but the binder, optimizer and evaluators walk the
// tree it builds recursively, so each link counts toward the depth bound.
std::string Chain(const std::string& term, const std::string& op, int terms) {
  std::string out = term;
  for (int i = 1; i < terms; ++i) out += op + term;
  return out;
}

TEST(ParserTest, DeepNestingIsRejectedNotFatal) {
  for (const std::string& where :
       {Parenthesized("v > 1", 5000), Prefixed("not ", 5000, "v > 1"),
        Prefixed("- ", 5000, "v > 1"), "v < " + Chain("1", "+", 50000),
        "v < " + Chain("1", "*", 50000), Chain("v > 1", " or ", 50000),
        Chain("v > 1", " and ", 50000)}) {
    auto q = Parse("select v from t where " + where);
    ASSERT_FALSE(q.ok());
    EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument)
        << q.status().ToString();
  }
  // So do FROM lists, which bind to a left-deep join tree.
  auto from = Parse("select v from " + Chain("t", ", ", 50000));
  ASSERT_FALSE(from.ok());
  EXPECT_EQ(from.status().code(), StatusCode::kInvalidArgument);
  // Nested subqueries count too.
  std::string nested = "select v from t";
  for (int i = 0; i < 5000; ++i) {
    nested = "select v from t where exists (" + nested + ")";
  }
  auto q = Parse(nested);
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument);
}

TEST(ParserTest, ModeratelyDeepPredicatesParseAndRun) {
  Database db;
  ASSERT_TRUE(db.catalog()
                  ->AddTable(tutil::MakeTable(
                      "t", Schema({{"v", TypeId::kInt64, "t"}}),
                      {{Value::Int(1)}, {Value::Int(2)}, {Value::Int(3)}}))
                  .ok());
  for (const std::string& where :
       {Parenthesized("v > 1", 200), Prefixed("not ", 200, "v > 1"),
        Prefixed("- - ", 100, "v > 1"), Chain("v > 1", " or ", 1000),
        // One Select per conjunct until the optimizer merges them; the cost
        // model walks that chain without recursing (sanitizer builds too).
        Chain("v > 1", " and ", 1020)}) {
    Result<QueryResult> r = db.Query("select v from t where " + where);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->rows.size(), 2u);
  }
  // EXECUTE runs the kept query; the normalized text of a long chain nests
  // its parentheses past the parser's bound, so it is never parsed again.
  const std::string long_chain =
      "select v from t where " + Chain("v > 1", " and ", 1020);
  ASSERT_TRUE(db.Query("prepare deep as " + long_chain).ok());
  Result<QueryResult> executed = db.Query("execute deep");
  ASSERT_TRUE(executed.ok()) << executed.status().ToString();
  EXPECT_EQ(executed->rows.size(), 2u);
  // The session path refuses the too-deep forms with a Status as well.
  for (const std::string& where :
       {Parenthesized("v > 1", 5000), "v < " + Chain("1", "+", 50000)}) {
    Result<QueryResult> deep = db.Query("select v from t where " + where);
    ASSERT_FALSE(deep.ok());
    EXPECT_EQ(deep.status().code(), StatusCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace gapply::sql
