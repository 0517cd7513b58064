#include "src/sql/parser.h"

#include <set>
#include <string>

#include "src/sql/lexer.h"

namespace gapply::sql {

namespace {

const std::set<std::string>& Keywords() {
  static const std::set<std::string>* kw = new std::set<std::string>{
      "select", "from",  "where",    "group", "by",   "having", "order",
      "union",  "all",   "as",       "and",   "or",   "not",    "is",
      "null",   "true",  "false",    "exists", "asc", "desc",   "distinct",
      "gapply", "count", "sum",      "avg",   "min",  "max",    "on",
  };
  return *kw;
}

bool IsAggregateName(const std::string& name) {
  return name == "count" || name == "sum" || name == "avg" ||
         name == "min" || name == "max";
}

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<QueryPtr> ParseStatement() {
    ASSIGN_OR_RETURN(QueryPtr q, ParseQuery());
    if (PeekSymbol(";")) Advance();
    if (Peek().type != TokenType::kEnd) {
      return Error("unexpected trailing input");
    }
    return q;
  }

 private:
  // --- token plumbing -----------------------------------------------------

  const Token& Peek(size_t ahead = 0) const {
    const size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() { return tokens_[pos_++]; }

  bool PeekKeyword(const std::string& kw, size_t ahead = 0) const {
    const Token& t = Peek(ahead);
    return t.type == TokenType::kIdentifier && t.text == kw;
  }
  bool AcceptKeyword(const std::string& kw) {
    if (!PeekKeyword(kw)) return false;
    Advance();
    return true;
  }
  Status ExpectKeyword(const std::string& kw) {
    if (!AcceptKeyword(kw)) {
      return Error("expected '" + kw + "'");
    }
    return Status::OK();
  }
  bool PeekSymbol(const std::string& sym, size_t ahead = 0) const {
    const Token& t = Peek(ahead);
    return t.type == TokenType::kSymbol && t.text == sym;
  }
  bool AcceptSymbol(const std::string& sym) {
    if (!PeekSymbol(sym)) return false;
    Advance();
    return true;
  }
  Status ExpectSymbol(const std::string& sym) {
    if (!AcceptSymbol(sym)) return Error("expected '" + sym + "'");
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

  Status Error(const std::string& message) const {
    const Token& t = Peek();
    std::string got = t.type == TokenType::kEnd ? "end of input"
                                                : "'" + t.raw + "'";
    return Status::InvalidArgument("parse error at offset " +
                                   std::to_string(t.position) + " (" + got +
                                   "): " + message);
  }

  /// Identifier that is not a reserved keyword.
  Result<std::string> ExpectIdentifier(const char* what) {
    const Token& t = Peek();
    if (t.type != TokenType::kIdentifier || Keywords().count(t.text) > 0) {
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
                   Keywords().count(Peek().text) == 0) {
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
                 Keywords().count(Peek().text) == 0) {
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
      if (Keywords().count(t.text) > 0) {
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
  int depth_ = 0;
  int chain_links_ = 0;
};

}  // namespace

Result<QueryPtr> Parse(const std::string& sql) {
  ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(sql));
  Parser parser(std::move(tokens));
  return parser.ParseStatement();
}

Result<std::optional<SetStatement>> TryParseSet(const std::string& sql) {
  ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(sql));
  // Grammar: SET <identifier> = <integer> [';'] — anything not starting
  // with the SET keyword is left for Parse.
  if (tokens.empty() || tokens[0].type != TokenType::kIdentifier ||
      tokens[0].text != "set") {
    return std::optional<SetStatement>();
  }
  size_t i = 1;
  auto error = [&](const std::string& msg) {
    return Status::InvalidArgument(
        "parse error in SET statement at position " +
        std::to_string(i < tokens.size() ? tokens[i].position : sql.size()) +
        ": " + msg);
  };
  if (i >= tokens.size() || tokens[i].type != TokenType::kIdentifier) {
    return error("expected option name");
  }
  SetStatement stmt;
  stmt.name = tokens[i++].text;
  if (i >= tokens.size() || tokens[i].type != TokenType::kSymbol ||
      tokens[i].text != "=") {
    return error("expected '='");
  }
  ++i;
  bool negative = false;
  if (i < tokens.size() && tokens[i].type == TokenType::kSymbol &&
      tokens[i].text == "-") {
    negative = true;
    ++i;
  }
  if (!negative && i < tokens.size() &&
      tokens[i].type == TokenType::kIdentifier) {
    // Boolean spellings for on/off knobs (`SET profile = on`); any other
    // identifier is a word value for the engine to validate
    // (`SET storage = columnar`).
    const std::string& word = tokens[i].text;
    if (word == "on" || word == "true") {
      stmt.value = 1;
      stmt.from_bool_word = true;
    } else if (word == "off" || word == "false") {
      stmt.value = 0;
      stmt.from_bool_word = true;
    } else {
      stmt.word = word;
    }
    ++i;
  } else {
    if (i >= tokens.size() || tokens[i].type != TokenType::kInteger) {
      return error("expected integer value");
    }
    stmt.value = std::stoll(tokens[i++].text);
    if (negative) stmt.value = -stmt.value;
  }
  if (i < tokens.size() && tokens[i].type == TokenType::kSymbol &&
      tokens[i].text == ";") {
    ++i;
  }
  if (i < tokens.size() && tokens[i].type != TokenType::kEnd) {
    return error("unexpected trailing input");
  }
  return std::optional<SetStatement>(std::move(stmt));
}

Result<std::optional<ExplainStatement>> TryParseExplain(
    const std::string& sql) {
  ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(sql));
  if (tokens.empty() || tokens[0].type != TokenType::kIdentifier ||
      tokens[0].text != "explain") {
    return std::optional<ExplainStatement>();
  }
  size_t i = 1;
  auto error = [&](const std::string& msg) {
    return Status::InvalidArgument(
        "parse error in EXPLAIN statement at position " +
        std::to_string(i < tokens.size() ? tokens[i].position : sql.size()) +
        ": " + msg);
  };
  auto is_word = [&](const char* word) {
    return i < tokens.size() && tokens[i].type == TokenType::kIdentifier &&
           tokens[i].text == word;
  };
  ExplainStatement stmt;
  if (i < tokens.size() && tokens[i].type == TokenType::kSymbol &&
      tokens[i].text == "(") {
    // Parenthesized option list: (ANALYZE[, FORMAT JSON|TEXT]).
    ++i;
    while (true) {
      if (is_word("analyze")) {
        stmt.analyze = true;
        ++i;
      } else if (is_word("format")) {
        ++i;
        if (is_word("json")) {
          stmt.json = true;
        } else if (is_word("text")) {
          stmt.json = false;
        } else {
          return error("expected JSON or TEXT after FORMAT");
        }
        ++i;
      } else {
        return error("expected EXPLAIN option (ANALYZE, FORMAT)");
      }
      if (i < tokens.size() && tokens[i].type == TokenType::kSymbol &&
          tokens[i].text == ",") {
        ++i;
        continue;
      }
      break;
    }
    if (i >= tokens.size() || tokens[i].type != TokenType::kSymbol ||
        tokens[i].text != ")") {
      return error("expected ')' closing the EXPLAIN option list");
    }
    ++i;
  } else if (is_word("analyze")) {
    stmt.analyze = true;
    ++i;
  }
  if (i >= tokens.size() || tokens[i].type == TokenType::kEnd) {
    return error("expected a statement after EXPLAIN");
  }
  stmt.query = sql.substr(tokens[i].position);
  return std::optional<ExplainStatement>(std::move(stmt));
}

Result<std::optional<PrepareStatement>> TryParsePrepare(
    const std::string& sql) {
  ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(sql));
  // Grammar: PREPARE <name> AS <statement> — anything not starting with the
  // PREPARE keyword is left for the other statement parsers.
  if (tokens.empty() || tokens[0].type != TokenType::kIdentifier ||
      tokens[0].text != "prepare") {
    return std::optional<PrepareStatement>();
  }
  size_t i = 1;
  auto error = [&](const std::string& msg) {
    return Status::InvalidArgument(
        "parse error in PREPARE statement at position " +
        std::to_string(i < tokens.size() ? tokens[i].position : sql.size()) +
        ": " + msg);
  };
  if (i >= tokens.size() || tokens[i].type != TokenType::kIdentifier) {
    return error("expected statement name");
  }
  PrepareStatement stmt;
  stmt.name = tokens[i++].text;
  if (i >= tokens.size() || tokens[i].type != TokenType::kIdentifier ||
      tokens[i].text != "as") {
    return error("expected AS");
  }
  ++i;
  if (i >= tokens.size() || tokens[i].type == TokenType::kEnd) {
    return error("expected a statement after AS");
  }
  stmt.sql = sql.substr(tokens[i].position);
  return std::optional<PrepareStatement>(std::move(stmt));
}

Result<std::optional<ExecuteStatement>> TryParseExecute(
    const std::string& sql) {
  ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(sql));
  if (tokens.empty() || tokens[0].type != TokenType::kIdentifier ||
      tokens[0].text != "execute") {
    return std::optional<ExecuteStatement>();
  }
  size_t i = 1;
  auto error = [&](const std::string& msg) {
    return Status::InvalidArgument(
        "parse error in EXECUTE statement at position " +
        std::to_string(i < tokens.size() ? tokens[i].position : sql.size()) +
        ": " + msg);
  };
  if (i >= tokens.size() || tokens[i].type != TokenType::kIdentifier) {
    return error("expected prepared-statement name");
  }
  ExecuteStatement stmt;
  stmt.name = tokens[i++].text;
  if (i < tokens.size() && tokens[i].type == TokenType::kSymbol &&
      tokens[i].text == ";") {
    ++i;
  }
  if (i < tokens.size() && tokens[i].type != TokenType::kEnd) {
    return error("unexpected trailing input");
  }
  return std::optional<ExecuteStatement>(std::move(stmt));
}

Result<std::optional<DeallocateStatement>> TryParseDeallocate(
    const std::string& sql) {
  ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(sql));
  if (tokens.empty() || tokens[0].type != TokenType::kIdentifier ||
      tokens[0].text != "deallocate") {
    return std::optional<DeallocateStatement>();
  }
  size_t i = 1;
  auto error = [&](const std::string& msg) {
    return Status::InvalidArgument(
        "parse error in DEALLOCATE statement at position " +
        std::to_string(i < tokens.size() ? tokens[i].position : sql.size()) +
        ": " + msg);
  };
  if (i >= tokens.size() || tokens[i].type != TokenType::kIdentifier) {
    return error("expected prepared-statement name or ALL");
  }
  DeallocateStatement stmt;
  if (tokens[i].text == "all") {
    stmt.all = true;
  } else {
    stmt.name = tokens[i].text;
  }
  ++i;
  if (i < tokens.size() && tokens[i].type == TokenType::kSymbol &&
      tokens[i].text == ";") {
    ++i;
  }
  if (i < tokens.size() && tokens[i].type != TokenType::kEnd) {
    return error("unexpected trailing input");
  }
  return std::optional<DeallocateStatement>(std::move(stmt));
}

}  // namespace gapply::sql
