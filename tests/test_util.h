#ifndef GAPPLY_TESTS_TEST_UTIL_H_
#define GAPPLY_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/exec/physical_op.h"
#include "src/expr/expr.h"
#include "src/storage/columnar.h"
#include "src/storage/table.h"

namespace gapply::tutil {

/// Builds an in-memory table; aborts the test on append failure.
inline std::unique_ptr<Table> MakeTable(const std::string& name,
                                        Schema schema,
                                        std::vector<Row> rows) {
  auto table = std::make_unique<Table>(name, std::move(schema));
  for (Row& row : rows) {
    Status st = table->Append(std::move(row));
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  return table;
}

/// Executes a plan with a fresh context; fails the test on error.
inline QueryResult RunPlan(PhysOp* root) {
  ExecContext ctx;
  Result<QueryResult> r = ExecuteToVector(root, &ctx);
  EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.status().ToString());
  return r.ok() ? std::move(r).value() : QueryResult{};
}

/// Asserts that executing `root` yields exactly `expected` as a multiset.
inline void ExpectRows(PhysOp* root, const std::vector<Row>& expected) {
  QueryResult result = RunPlan(root);
  EXPECT_TRUE(SameRowMultiset(result.rows, expected))
      << "got:\n"
      << result.ToString() << "\nexpected " << expected.size() << " rows";
}

/// Random (key, payload-int, payload-double) rows with `num_keys` distinct
/// keys — the canonical grouped workload used by property tests.
inline std::vector<Row> RandomGroupedRows(Rng* rng, int num_rows,
                                          int num_keys,
                                          double null_fraction = 0.0) {
  std::vector<Row> rows;
  rows.reserve(static_cast<size_t>(num_rows));
  for (int i = 0; i < num_rows; ++i) {
    Row row;
    row.push_back(Value::Int(rng->UniformInt(1, num_keys)));
    if (rng->Bernoulli(null_fraction)) {
      row.push_back(Value::Null());
    } else {
      row.push_back(Value::Int(rng->UniformInt(0, 100)));
    }
    row.push_back(Value::Double(rng->UniformDouble(0.0, 1000.0)));
    rows.push_back(std::move(row));
  }
  return rows;
}

/// Schema matching RandomGroupedRows.
inline Schema GroupedSchema() {
  return Schema({{"k", TypeId::kInt64, "t"},
                 {"v", TypeId::kInt64, "t"},
                 {"d", TypeId::kDouble, "t"}});
}

/// Rows of the GroupedSchema table used by the sorted-narrowing tests:
/// 12,800 rows (three full 4,096-row storage morsels and a 512-row tail)
/// whose key k = row / 7 is non-decreasing in duplicate runs of 7, so the
/// run of key 585 (rows 4095..4101) straddles the first morsel boundary;
/// v = row % 13 is unsorted. With `broken`, row 6000 (morsel 1) gets a NULL
/// key and row 9000 (morsel 2) key 0, one descent, so neither of those
/// morsels counts as sorted.
inline std::vector<Row> SortedRunRows(bool broken) {
  constexpr size_t kRows = 12800;
  std::vector<Row> rows;
  rows.reserve(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    Value k = Value::Int(static_cast<int64_t>(i / 7));
    if (broken && i == 6000) k = Value::Null();
    if (broken && i == 9000) k = Value::Int(0);
    rows.push_back({std::move(k), Value::Int(static_cast<int64_t>(i % 13)),
                    Value::Double(static_cast<double>(i) * 0.25)});
  }
  return rows;
}

/// The row interpreter's reading of a pushed scan conjunct: the bound
/// expression `column <op> literal` over `schema`.
inline ExprPtr ScanPredicateExpr(const Schema& schema,
                                 const ScanPredicate& pred) {
  BinaryOp op = BinaryOp::kEq;
  switch (pred.op) {
    case value_ops::CmpOp::kEq: op = BinaryOp::kEq; break;
    case value_ops::CmpOp::kNe: op = BinaryOp::kNe; break;
    case value_ops::CmpOp::kLt: op = BinaryOp::kLt; break;
    case value_ops::CmpOp::kLe: op = BinaryOp::kLe; break;
    case value_ops::CmpOp::kGt: op = BinaryOp::kGt; break;
    case value_ops::CmpOp::kGe: op = BinaryOp::kGe; break;
  }
  return Binary(op, Col(schema, pred.column), Lit(pred.literal));
}

/// Reference selection for pushed scan conjuncts: the rows of
/// [begin, min(end, num_rows)) whose MaterializeRow passes EvalPredicate of
/// every conjunct's ScanPredicateExpr.
inline std::vector<uint32_t> ScanReferenceSelection(
    const ColumnarTable& ct, const Schema& schema,
    const std::vector<ScanPredicate>& preds, size_t begin, size_t end) {
  std::vector<ExprPtr> exprs;
  for (const ScanPredicate& p : preds) {
    exprs.push_back(ScanPredicateExpr(schema, p));
  }
  std::vector<uint32_t> out;
  Row row;
  for (size_t i = begin; i < std::min(end, ct.num_rows()); ++i) {
    ct.MaterializeRow(i, &row);
    bool pass = true;
    for (const ExprPtr& e : exprs) {
      Result<bool> r = EvalPredicate(*e, row, EvalContext{});
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      pass = pass && r.ok() && *r;
    }
    if (pass) out.push_back(static_cast<uint32_t>(i));
  }
  return out;
}

}  // namespace gapply::tutil

/// ASSERT-style unwrap of a Result<T> inside a test body.
#define ASSIGN_OR_FAIL(lhs, rexpr) \
  ASSIGN_OR_FAIL_IMPL(GAPPLY_CONCAT(_test_res_, __LINE__), lhs, rexpr)

#define ASSIGN_OR_FAIL_IMPL(tmp, lhs, rexpr)        \
  auto tmp = (rexpr);                               \
  ASSERT_TRUE(tmp.ok()) << tmp.status().ToString(); \
  lhs = std::move(tmp).value()

#endif  // GAPPLY_TESTS_TEST_UTIL_H_
