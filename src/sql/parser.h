#ifndef GAPPLY_SQL_PARSER_H_
#define GAPPLY_SQL_PARSER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/common/result.h"
#include "src/sql/ast.h"

namespace gapply::sql {

/// Parses one SQL statement (an optional trailing ';' is allowed) into an
/// AST. Grammar (case-insensitive keywords):
///
///   query       := select (UNION ALL select)* [ORDER BY order_list]
///   select      := SELECT select_list FROM table_list
///                  [WHERE expr]
///                  [GROUP BY column_list [':' ident]]
///                  [HAVING expr]
///   select_list := '*' | gapply_item | item (',' item)*
///   gapply_item := GAPPLY '(' query ')' [AS '(' ident_list ')']
///   item        := expr [[AS] ident]
///   table_list  := ident [ident] (',' ident [ident])*
///
/// Expressions support literals (integers, floats, strings, NULL, TRUE,
/// FALSE), qualified column references, arithmetic, comparisons,
/// AND/OR/NOT, IS [NOT] NULL, aggregate calls (COUNT/SUM/AVG/MIN/MAX with
/// optional DISTINCT and COUNT(*)), scalar subqueries `(SELECT ...)`, and
/// [NOT] EXISTS (SELECT ...).
Result<QueryPtr> Parse(const std::string& sql);

/// A session option assignment: `SET <name> = <value>` where value is an
/// integer, one of the boolean spellings ON/OFF/TRUE/FALSE (mapped to
/// 1/0), or a bare identifier for word-valued knobs, e.g.
/// `SET parallelism = 4`, `SET profile = on`, `SET storage = columnar`.
/// Option names are lowercased; which names (and which words) are valid is
/// decided by the engine, not the parser.
struct SetStatement {
  std::string name;
  int64_t value = 0;
  /// Non-empty for word-valued assignments (`SET storage = columnar`):
  /// the lowercased identifier. The boolean spellings ON/OFF/TRUE/FALSE
  /// keep mapping to `value` 1/0 and leave this empty, as do integers.
  std::string word;
  /// True when `value` came from a boolean spelling rather than a numeric
  /// literal, so count-valued knobs can reject `SET memory_budget = on`
  /// instead of reading it as a 1-byte budget.
  bool from_bool_word = false;
};

/// One statement as ParseStatement recognized it. Which members are set
/// depends on `kind`; the rest stay empty.
struct Statement {
  enum class Kind {
    kQuery,       ///< a query: `query`
    kSet,         ///< `SET <name> = <value>`: `set`
    kPrepare,     ///< `PREPARE <name> AS <query>`: `name`, `query`
    kExecute,     ///< `EXECUTE <name>`: `name`
    kDeallocate,  ///< `DEALLOCATE <name> | ALL`: `name` or `all`
    kExplain,     ///< `EXPLAIN [options] <target>`: `analyze`, `json`, `target`
  };
  Kind kind = Kind::kQuery;
  QueryPtr query;
  SetStatement set;
  /// Lowercased prepared-statement name; empty for DEALLOCATE ALL.
  std::string name;
  bool all = false;
  bool analyze = false;
  bool json = false;
  /// The explained statement: a kQuery or a kExecute.
  std::unique_ptr<Statement> target;
};

/// Lexes `sql` once and parses it as one statement, dispatching on its
/// first token (an optional trailing ';' is allowed):
///
///   SET <name> = <value>
///   PREPARE <name> AS <query>
///   EXECUTE <name>
///   DEALLOCATE <name> | ALL
///   EXPLAIN [ANALYZE | '(' option (',' option)* ')'] <query | EXECUTE <name>>
///       option := ANALYZE | FORMAT JSON | FORMAT TEXT
///   <query>                       (the grammar of Parse)
///
/// Keywords are case-insensitive; names are lowercased. A statement nested
/// after PREPARE ... AS or an EXPLAIN prefix reports error offsets relative
/// to its own first token.
Result<Statement> ParseStatement(const std::string& sql);

}  // namespace gapply::sql

#endif  // GAPPLY_SQL_PARSER_H_
