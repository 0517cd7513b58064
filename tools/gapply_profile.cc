// gapply_profile: command-line EXPLAIN ANALYZE driver.
//
// Loads the synthetic TPC-H subset, then profiles each SQL statement given
// on the command line (or read from stdin, one per line, when none is
// given). Queries and EXECUTE <name> run as EXPLAIN ANALYZE (JSON with
// --json); SET, PREPARE, DEALLOCATE and explicit EXPLAIN statements run as
// written, printing what they return.
//
//   gapply_profile [--sf=0.01] [--parallelism=N] [--batch-size=N] [--json]
//                  [SQL ...]
//
// Examples:
//   gapply_profile "select gapply(select count(*) from g)
//                   from partsupp group by ps_suppkey : g"
//   gapply_profile --json --parallelism=8 "select * from region"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "src/engine/database.h"
#include "src/sql/parser.h"

namespace gapply {
namespace {

struct Options {
  double scale_factor = 0.01;
  size_t parallelism = 1;
  size_t batch_size = 0;
  bool json = false;
};

int ProfileOne(Database* db, const Options& opts, const std::string& sql) {
  Result<sql::Statement> stmt = sql::ParseStatement(sql);
  if (!stmt.ok()) {
    std::fprintf(stderr, "error: %s\n", stmt.status().ToString().c_str());
    return 1;
  }
  std::printf("-- %s\n", sql.c_str());
  switch (stmt->kind) {
    case sql::Statement::Kind::kQuery:
    case sql::Statement::Kind::kExecute:
      break;
    default: {
      // Session-state statements (SET, PREPARE, DEALLOCATE) produce no
      // rows; an explicit EXPLAIN prints its own report. Passing stats
      // times the statement, so the report's layers include its parse.
      QueryStats stats;
      Result<QueryResult> r = db->Query(sql, QueryOptions{}, &stats);
      if (!r.ok()) {
        std::fprintf(stderr, "error: %s\n", r.status().ToString().c_str());
        return 1;
      }
      for (const Row& row : r->rows) {
        const std::string_view line = row[0].str_val();
        std::printf("%.*s\n", static_cast<int>(line.size()), line.data());
      }
      return 0;
    }
  }
  if (opts.json) {
    Result<JsonValue> out = db->ExplainAnalyzeJson(sql);
    if (!out.ok()) {
      std::fprintf(stderr, "error: %s\n", out.status().ToString().c_str());
      return 1;
    }
    std::printf("%s\n", out->Dump(2).c_str());
  } else {
    Result<std::string> out = db->ExplainAnalyze(sql);
    if (!out.ok()) {
      std::fprintf(stderr, "error: %s\n", out.status().ToString().c_str());
      return 1;
    }
    std::printf("%s", out->c_str());
  }
  return 0;
}

int Run(const Options& opts, const std::vector<std::string>& statements) {
  Database db;
  tpch::TpchConfig config;
  config.scale_factor = opts.scale_factor;
  Status st = db.LoadTpch(config);
  if (!st.ok()) {
    std::fprintf(stderr, "TPC-H load failed: %s\n", st.ToString().c_str());
    return 1;
  }
  db.set_default_gapply_parallelism(opts.parallelism);
  if (opts.batch_size > 0) db.set_default_batch_size(opts.batch_size);

  int rc = 0;
  if (!statements.empty()) {
    for (const std::string& sql : statements) {
      rc |= ProfileOne(&db, opts, sql);
    }
    return rc;
  }
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    rc |= ProfileOne(&db, opts, line);
  }
  return rc;
}

}  // namespace
}  // namespace gapply

int main(int argc, char** argv) {
  gapply::Options opts;
  std::vector<std::string> statements;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      const size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--sf=")) {
      opts.scale_factor = std::atof(v);
    } else if (const char* v = value("--parallelism=")) {
      opts.parallelism = static_cast<size_t>(std::atoll(v));
    } else if (const char* v = value("--batch-size=")) {
      opts.batch_size = static_cast<size_t>(std::atoll(v));
    } else if (arg == "--json") {
      opts.json = true;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr,
                   "usage: gapply_profile [--sf=F] [--parallelism=N] "
                   "[--batch-size=N] [--json] [SQL ...]\n");
      return 2;
    } else {
      statements.push_back(arg);
    }
  }
  return gapply::Run(opts, statements);
}
