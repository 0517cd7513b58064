#include "src/sql/parser.h"

#include <string>
#include <string_view>
#include <unordered_set>

#include "src/sql/lexer.h"

namespace gapply::sql {

namespace {

bool IsKeyword(std::string_view word) {
  static const std::unordered_set<std::string_view> kKeywords = {
      "select", "from",  "where",    "group", "by",   "having", "order",
      "union",  "all",   "as",       "and",   "or",   "not",    "is",
      "null",   "true",  "false",    "exists", "asc", "desc",   "distinct",
      "gapply", "count", "sum",      "avg",   "min",  "max",    "on",
  };
  return kKeywords.count(word) > 0;
}

bool IsAggregateName(const std::string& name) {
  return name == "count" || name == "sum" || name == "avg" ||
         name == "min" || name == "max";
}

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  /// A query filling the rest of the input.
  Result<QueryPtr> ParseQueryStatement() {
    ASSIGN_OR_RETURN(QueryPtr q, ParseQuery());
    if (!AtEnd()) return Error("unexpected trailing input");
    return q;
  }

  Result<Statement> ParseStatement() {
    if (PeekKeyword("set")) return ParseSet();
    if (PeekKeyword("prepare")) return ParsePrepare();
    if (PeekKeyword("execute")) return ParseNamed(Statement::Kind::kExecute);
    if (PeekKeyword("deallocate")) {
      return ParseNamed(Statement::Kind::kDeallocate);
    }
    if (PeekKeyword("explain")) return ParseExplain();
    Statement stmt;
    ASSIGN_OR_RETURN(stmt.query, ParseQueryStatement());
    return stmt;
  }

 private:
  // --- token plumbing -----------------------------------------------------

  const Token& Peek(size_t ahead = 0) const {
    const size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() { return tokens_[pos_++]; }

  bool PeekKeyword(std::string_view kw, size_t ahead = 0) const {
    const Token& t = Peek(ahead);
    return t.type == TokenType::kIdentifier && t.text == kw;
  }
  bool AcceptKeyword(std::string_view kw) {
    if (!PeekKeyword(kw)) return false;
    Advance();
    return true;
  }
  Status ExpectKeyword(std::string_view kw) {
    if (!AcceptKeyword(kw)) {
      return Error("expected '" + std::string(kw) + "'");
    }
    return Status::OK();
  }
  bool PeekSymbol(std::string_view sym, size_t ahead = 0) const {
    const Token& t = Peek(ahead);
    return t.type == TokenType::kSymbol && t.text == sym;
  }
  bool AcceptSymbol(std::string_view sym) {
    if (!PeekSymbol(sym)) return false;
    Advance();
    return true;
  }
  Status ExpectSymbol(std::string_view sym) {
    if (!AcceptSymbol(sym)) return Error("expected '" + std::string(sym) + "'");
    return Status::OK();
  }

  // --- nesting -------------------------------------------------------------

  // Each nested query, parenthesized expression and NOT / unary-minus chain
  // link descends one level of recursive descent. Past this depth the
  // parser refuses the input instead of exhausting the stack.
  static constexpr int kMaxNestingDepth = 256;

  // One nesting level, held for the duration of a recursive parse call.
  class NestingLevel {
   public:
    explicit NestingLevel(int* depth) : depth_(depth) { ++*depth_; }
    ~NestingLevel() { --*depth_; }
    NestingLevel(const NestingLevel&) = delete;
    NestingLevel& operator=(const NestingLevel&) = delete;

   private:
    int* depth_;
  };

  // Operator chains (`a or b or ...`, `a + b + ...`) and FROM lists loop
  // instead of recursing, but each link adds a level to the left-deep tree
  // that every later pass (binder, optimizer, evaluators, destructors)
  // walks recursively. No tree is deeper than the nesting depth plus the
  // statement's chain links so far, so bounding that sum bounds those walks;
  // in effect a statement holds at most kMaxTreeDepth links in all. The
  // bound leaves stack headroom for those walks in sanitizer builds too,
  // whose frames are several times larger.
  static constexpr int kMaxTreeDepth = 1024;

  Status CheckNesting() const {
    if (depth_ > kMaxNestingDepth) {
      return Error("nesting exceeds " + std::to_string(kMaxNestingDepth) +
                   " levels");
    }
    if (depth_ + chain_links_ > kMaxTreeDepth) {
      return Error("expression tree exceeds " +
                   std::to_string(kMaxTreeDepth) + " levels");
    }
    return Status::OK();
  }

  // Counts one link of an operator chain or FROM list.
  Status AddChainLink() {
    ++chain_links_;
    return CheckNesting();
  }

  // Offset of the current token from the start of the statement being
  // parsed (a PREPARE body or EXPLAIN target counts from its own start).
  size_t Offset() const { return Peek().position - base_; }

  Status Error(const std::string& message) const {
    const Token& t = Peek();
    std::string got = t.type == TokenType::kEnd ? "end of input"
                                                : "'" + t.raw + "'";
    return Status::InvalidArgument("parse error at offset " +
                                   std::to_string(Offset()) + " (" + got +
                                   "): " + message);
  }

  // Errors of the non-query statements, which name the statement.
  Status StatementError(const char* statement,
                        const std::string& message) const {
    return Status::InvalidArgument(std::string("parse error in ") +
                                   statement + " statement at position " +
                                   std::to_string(Offset()) + ": " + message);
  }

  // Consumes an optional ';' and says whether the input ends there.
  bool AtEnd() {
    AcceptSymbol(";");
    return Peek().type == TokenType::kEnd;
  }

  // --- statements -----------------------------------------------------------

  Result<Statement> ParseSet() {
    Advance();  // set
    auto error = [&](const char* msg) { return StatementError("SET", msg); };
    Statement stmt;
    stmt.kind = Statement::Kind::kSet;
    SetStatement& set = stmt.set;
    if (Peek().type != TokenType::kIdentifier) {
      return error("expected option name");
    }
    set.name = Advance().text;
    if (!AcceptSymbol("=")) return error("expected '='");
    const bool negative = AcceptSymbol("-");
    if (!negative && Peek().type == TokenType::kIdentifier) {
      // Boolean spellings for on/off knobs (`SET profile = on`); any other
      // identifier is a word value for the engine to validate
      // (`SET storage = columnar`).
      const std::string& word = Advance().text;
      if (word == "on" || word == "true") {
        set.value = 1;
        set.from_bool_word = true;
      } else if (word == "off" || word == "false") {
        set.value = 0;
        set.from_bool_word = true;
      } else {
        set.word = word;
      }
    } else {
      if (Peek().type != TokenType::kInteger) {
        return error("expected integer value");
      }
      set.value = std::stoll(Advance().text);
      if (negative) set.value = -set.value;
    }
    if (!AtEnd()) return error("unexpected trailing input");
    return stmt;
  }

  Result<Statement> ParsePrepare() {
    Advance();  // prepare
    auto error = [&](const char* msg) {
      return StatementError("PREPARE", msg);
    };
    Statement stmt;
    stmt.kind = Statement::Kind::kPrepare;
    if (Peek().type != TokenType::kIdentifier) {
      return error("expected statement name");
    }
    stmt.name = Advance().text;
    if (!AcceptKeyword("as")) return error("expected AS");
    if (Peek().type == TokenType::kEnd) {
      return error("expected a statement after AS");
    }
    base_ = Peek().position;
    ASSIGN_OR_RETURN(stmt.query, ParseQueryStatement());
    return stmt;
  }

  // EXECUTE <name> | DEALLOCATE <name> | DEALLOCATE ALL.
  Result<Statement> ParseNamed(Statement::Kind kind) {
    const bool deallocate = kind == Statement::Kind::kDeallocate;
    const char* statement = deallocate ? "DEALLOCATE" : "EXECUTE";
    Advance();
    Statement stmt;
    stmt.kind = kind;
    if (Peek().type != TokenType::kIdentifier) {
      return StatementError(statement,
                            deallocate
                                ? "expected prepared-statement name or ALL"
                                : "expected prepared-statement name");
    }
    if (deallocate && AcceptKeyword("all")) {
      stmt.all = true;
    } else {
      stmt.name = Advance().text;
    }
    if (!AtEnd()) return StatementError(statement, "unexpected trailing input");
    return stmt;
  }

  Result<Statement> ParseExplain() {
    Advance();  // explain
    auto error = [&](const char* msg) {
      return StatementError("EXPLAIN", msg);
    };
    Statement stmt;
    stmt.kind = Statement::Kind::kExplain;
    if (AcceptSymbol("(")) {
      do {
        if (AcceptKeyword("analyze")) {
          stmt.analyze = true;
        } else if (AcceptKeyword("format")) {
          if (AcceptKeyword("json")) {
            stmt.json = true;
          } else if (AcceptKeyword("text")) {
            stmt.json = false;
          } else {
            return error("expected JSON or TEXT after FORMAT");
          }
        } else {
          return error("expected EXPLAIN option (ANALYZE, FORMAT)");
        }
      } while (AcceptSymbol(","));
      if (!AcceptSymbol(")")) {
        return error("expected ')' closing the EXPLAIN option list");
      }
    } else if (AcceptKeyword("analyze")) {
      stmt.analyze = true;
    }
    if (Peek().type == TokenType::kEnd) {
      return error("expected a statement after EXPLAIN");
    }
    base_ = Peek().position;
    stmt.target = std::make_unique<Statement>();
    if (PeekKeyword("execute")) {
      ASSIGN_OR_RETURN(*stmt.target, ParseNamed(Statement::Kind::kExecute));
    } else {
      ASSIGN_OR_RETURN(stmt.target->query, ParseQueryStatement());
    }
    return stmt;
  }

  /// Identifier that is not a reserved keyword.
  Result<std::string> ExpectIdentifier(const char* what) {
    const Token& t = Peek();
    if (t.type != TokenType::kIdentifier || IsKeyword(t.text)) {
      return Error(std::string("expected ") + what);
    }
    Advance();
    return t.text;
  }

  // --- grammar ------------------------------------------------------------

  Result<QueryPtr> ParseQuery() {
    NestingLevel level(&depth_);
    RETURN_NOT_OK(CheckNesting());
    auto query = std::make_unique<Query>();
    ASSIGN_OR_RETURN(auto first, ParseSelect());
    query->branches.push_back(std::move(first));
    while (PeekKeyword("union")) {
      Advance();
      RETURN_NOT_OK(ExpectKeyword("all"));  // multiset semantics only
      ASSIGN_OR_RETURN(auto branch, ParseSelect());
      query->branches.push_back(std::move(branch));
    }
    if (AcceptKeyword("order")) {
      RETURN_NOT_OK(ExpectKeyword("by"));
      while (true) {
        OrderItem item;
        ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (AcceptKeyword("desc")) {
          item.ascending = false;
        } else {
          AcceptKeyword("asc");
        }
        query->order_by.push_back(std::move(item));
        if (!AcceptSymbol(",")) break;
      }
    }
    return query;
  }

  Result<std::unique_ptr<SelectStmt>> ParseSelect() {
    RETURN_NOT_OK(ExpectKeyword("select"));
    auto stmt = std::make_unique<SelectStmt>();

    if (AcceptKeyword("gapply")) {
      RETURN_NOT_OK(ExpectSymbol("("));
      ASSIGN_OR_RETURN(stmt->gapply_pgq, ParseQuery());
      RETURN_NOT_OK(ExpectSymbol(")"));
      if (AcceptKeyword("as")) {
        RETURN_NOT_OK(ExpectSymbol("("));
        while (true) {
          ASSIGN_OR_RETURN(std::string name,
                           ExpectIdentifier("output column name"));
          stmt->gapply_names.push_back(name);
          if (!AcceptSymbol(",")) break;
        }
        RETURN_NOT_OK(ExpectSymbol(")"));
      }
    } else if (PeekSymbol("*")) {
      Advance();
      stmt->select_star = true;
    } else {
      while (true) {
        SelectItem item;
        ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (AcceptKeyword("as")) {
          ASSIGN_OR_RETURN(item.alias, ExpectIdentifier("column alias"));
        } else if (Peek().type == TokenType::kIdentifier &&
                   !IsKeyword(Peek().text)) {
          item.alias = Advance().text;
        }
        stmt->items.push_back(std::move(item));
        if (!AcceptSymbol(",")) break;
      }
    }

    RETURN_NOT_OK(ExpectKeyword("from"));
    while (true) {
      TableRef ref;
      ASSIGN_OR_RETURN(ref.table, ExpectIdentifier("table name"));
      ref.alias = ref.table;
      if (AcceptKeyword("as")) {
        ASSIGN_OR_RETURN(ref.alias, ExpectIdentifier("table alias"));
      } else if (Peek().type == TokenType::kIdentifier &&
                 !IsKeyword(Peek().text)) {
        ref.alias = Advance().text;
      }
      stmt->from.push_back(std::move(ref));
      if (!AcceptSymbol(",")) break;
      RETURN_NOT_OK(AddChainLink());
    }

    if (AcceptKeyword("where")) {
      ASSIGN_OR_RETURN(stmt->where, ParseExpr());
    }
    if (AcceptKeyword("group")) {
      RETURN_NOT_OK(ExpectKeyword("by"));
      while (true) {
        ASSIGN_OR_RETURN(SqlExprPtr col, ParseExpr());
        stmt->group_by.push_back(std::move(col));
        if (!AcceptSymbol(",")) break;
      }
      // The paper's §3.1 extension: "group by cols : var".
      if (AcceptSymbol(":")) {
        ASSIGN_OR_RETURN(stmt->group_var,
                         ExpectIdentifier("group variable name"));
      }
    }
    if (AcceptKeyword("having")) {
      ASSIGN_OR_RETURN(stmt->having, ParseExpr());
    }
    return stmt;
  }

  // Precedence climbing: or > and > not > comparison/is > add > mul > unary.
  Result<SqlExprPtr> ParseExpr() { return ParseOr(); }

  Result<SqlExprPtr> ParseOr() {
    ASSIGN_OR_RETURN(SqlExprPtr left, ParseAnd());
    while (AcceptKeyword("or")) {
      RETURN_NOT_OK(AddChainLink());
      ASSIGN_OR_RETURN(SqlExprPtr right, ParseAnd());
      left = MakeBinary(BinaryOp::kOr, std::move(left), std::move(right));
    }
    return left;
  }

  Result<SqlExprPtr> ParseAnd() {
    ASSIGN_OR_RETURN(SqlExprPtr left, ParseNot());
    while (AcceptKeyword("and")) {
      RETURN_NOT_OK(AddChainLink());
      ASSIGN_OR_RETURN(SqlExprPtr right, ParseNot());
      left = MakeBinary(BinaryOp::kAnd, std::move(left), std::move(right));
    }
    return left;
  }

  Result<SqlExprPtr> ParseNot() {
    if (AcceptKeyword("not")) {
      NestingLevel level(&depth_);
      RETURN_NOT_OK(CheckNesting());
      // `not exists (...)` folds into the exists node.
      if (PeekKeyword("exists")) {
        ASSIGN_OR_RETURN(SqlExprPtr e, ParseComparison());
        if (e->kind == SqlExprKind::kExists) {
          e->negated = !e->negated;
          return e;
        }
        return MakeUnary(UnaryOp::kNot, std::move(e));
      }
      ASSIGN_OR_RETURN(SqlExprPtr child, ParseNot());
      return MakeUnary(UnaryOp::kNot, std::move(child));
    }
    return ParseComparison();
  }

  Result<SqlExprPtr> ParseComparison() {
    ASSIGN_OR_RETURN(SqlExprPtr left, ParseAdditive());
    // IS [NOT] NULL.
    if (AcceptKeyword("is")) {
      const bool negated = AcceptKeyword("not");
      RETURN_NOT_OK(ExpectKeyword("null"));
      return MakeUnary(negated ? UnaryOp::kIsNotNull : UnaryOp::kIsNull,
                       std::move(left));
    }
    struct CmpMap {
      const char* sym;
      BinaryOp op;
    };
    static constexpr CmpMap kCmps[] = {
        {"=", BinaryOp::kEq},  {"<>", BinaryOp::kNe}, {"<=", BinaryOp::kLe},
        {">=", BinaryOp::kGe}, {"<", BinaryOp::kLt},  {">", BinaryOp::kGt},
    };
    for (const CmpMap& cmp : kCmps) {
      if (AcceptSymbol(cmp.sym)) {
        ASSIGN_OR_RETURN(SqlExprPtr right, ParseAdditive());
        return MakeBinary(cmp.op, std::move(left), std::move(right));
      }
    }
    return left;
  }

  Result<SqlExprPtr> ParseAdditive() {
    ASSIGN_OR_RETURN(SqlExprPtr left, ParseMultiplicative());
    while (true) {
      if (AcceptSymbol("+")) {
        RETURN_NOT_OK(AddChainLink());
        ASSIGN_OR_RETURN(SqlExprPtr right, ParseMultiplicative());
        left = MakeBinary(BinaryOp::kAdd, std::move(left), std::move(right));
      } else if (AcceptSymbol("-")) {
        RETURN_NOT_OK(AddChainLink());
        ASSIGN_OR_RETURN(SqlExprPtr right, ParseMultiplicative());
        left = MakeBinary(BinaryOp::kSubtract, std::move(left),
                          std::move(right));
      } else {
        return left;
      }
    }
  }

  Result<SqlExprPtr> ParseMultiplicative() {
    ASSIGN_OR_RETURN(SqlExprPtr left, ParseUnary());
    while (true) {
      if (AcceptSymbol("*")) {
        RETURN_NOT_OK(AddChainLink());
        ASSIGN_OR_RETURN(SqlExprPtr right, ParseUnary());
        left = MakeBinary(BinaryOp::kMultiply, std::move(left),
                          std::move(right));
      } else if (AcceptSymbol("/")) {
        RETURN_NOT_OK(AddChainLink());
        ASSIGN_OR_RETURN(SqlExprPtr right, ParseUnary());
        left = MakeBinary(BinaryOp::kDivide, std::move(left),
                          std::move(right));
      } else if (AcceptSymbol("%")) {
        RETURN_NOT_OK(AddChainLink());
        ASSIGN_OR_RETURN(SqlExprPtr right, ParseUnary());
        left = MakeBinary(BinaryOp::kModulo, std::move(left),
                          std::move(right));
      } else {
        return left;
      }
    }
  }

  Result<SqlExprPtr> ParseUnary() {
    NestingLevel level(&depth_);
    RETURN_NOT_OK(CheckNesting());
    if (AcceptSymbol("-")) {
      ASSIGN_OR_RETURN(SqlExprPtr child, ParseUnary());
      return MakeUnary(UnaryOp::kNegate, std::move(child));
    }
    return ParsePrimary();
  }

  Result<SqlExprPtr> ParsePrimary() {
    const Token& t = Peek();

    if (t.type == TokenType::kInteger) {
      Advance();
      return MakeLiteral(Value::Int(std::stoll(t.text)));
    }
    if (t.type == TokenType::kFloat) {
      Advance();
      return MakeLiteral(Value::Double(std::stod(t.text)));
    }
    if (t.type == TokenType::kString) {
      Advance();
      return MakeLiteral(Value::Str(t.text));
    }
    if (AcceptKeyword("null")) return MakeLiteral(Value::Null());
    if (AcceptKeyword("true")) return MakeLiteral(Value::Bool(true));
    if (AcceptKeyword("false")) return MakeLiteral(Value::Bool(false));

    if (PeekKeyword("exists")) {
      Advance();
      RETURN_NOT_OK(ExpectSymbol("("));
      auto e = std::make_unique<SqlExpr>();
      e->kind = SqlExprKind::kExists;
      ASSIGN_OR_RETURN(e->subquery, ParseQuery());
      RETURN_NOT_OK(ExpectSymbol(")"));
      return e;
    }

    if (PeekSymbol("(")) {
      Advance();
      if (PeekKeyword("select")) {
        auto e = std::make_unique<SqlExpr>();
        e->kind = SqlExprKind::kScalarSubquery;
        ASSIGN_OR_RETURN(e->subquery, ParseQuery());
        RETURN_NOT_OK(ExpectSymbol(")"));
        return e;
      }
      ASSIGN_OR_RETURN(SqlExprPtr inner, ParseExpr());
      RETURN_NOT_OK(ExpectSymbol(")"));
      return inner;
    }

    if (t.type == TokenType::kIdentifier) {
      // Aggregate / function call.
      if (IsAggregateName(t.text) && PeekSymbol("(", 1)) {
        Advance();  // name
        Advance();  // (
        auto e = std::make_unique<SqlExpr>();
        e->kind = SqlExprKind::kFuncCall;
        e->func = t.text;
        if (PeekSymbol("*")) {
          Advance();
          e->star_arg = true;
        } else {
          if (AcceptKeyword("distinct")) e->distinct_arg = true;
          ASSIGN_OR_RETURN(SqlExprPtr arg, ParseExpr());
          e->args.push_back(std::move(arg));
        }
        RETURN_NOT_OK(ExpectSymbol(")"));
        return e;
      }
      if (IsKeyword(t.text)) {
        return Error("unexpected keyword in expression");
      }
      Advance();
      auto e = std::make_unique<SqlExpr>();
      e->kind = SqlExprKind::kColumnRef;
      if (AcceptSymbol(".")) {
        e->qualifier = t.text;
        ASSIGN_OR_RETURN(e->name, ExpectIdentifier("column name"));
      } else {
        e->name = t.text;
      }
      return e;
    }
    return Error("expected an expression");
  }

  // --- node helpers -------------------------------------------------------

  static SqlExprPtr MakeLiteral(Value v) {
    auto e = std::make_unique<SqlExpr>();
    e->kind = SqlExprKind::kLiteral;
    e->literal = std::move(v);
    return e;
  }
  static SqlExprPtr MakeUnary(UnaryOp op, SqlExprPtr child) {
    auto e = std::make_unique<SqlExpr>();
    e->kind = SqlExprKind::kUnary;
    e->unary_op = op;
    e->left = std::move(child);
    return e;
  }
  static SqlExprPtr MakeBinary(BinaryOp op, SqlExprPtr l, SqlExprPtr r) {
    auto e = std::make_unique<SqlExpr>();
    e->kind = SqlExprKind::kBinary;
    e->binary_op = op;
    e->left = std::move(l);
    e->right = std::move(r);
    return e;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  size_t base_ = 0;
  int depth_ = 0;
  int chain_links_ = 0;
};

}  // namespace

Result<QueryPtr> Parse(const std::string& sql) {
  ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(sql));
  Parser parser(std::move(tokens));
  return parser.ParseQueryStatement();
}

Result<Statement> ParseStatement(const std::string& sql) {
  ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(sql));
  Parser parser(std::move(tokens));
  return parser.ParseStatement();
}

}  // namespace gapply::sql
