#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/expr/bytecode.h"
#include "src/storage/catalog.h"
#include "src/storage/columnar.h"
#include "src/storage/schema.h"
#include "src/storage/table.h"
#include "tests/test_util.h"

namespace gapply {
namespace {

Schema TwoColSchema() {
  return Schema({{"id", TypeId::kInt64, "t"}, {"name", TypeId::kString, "t"}});
}

TEST(SchemaTest, ResolveByNameAndQualifier) {
  Schema s({{"id", TypeId::kInt64, "a"},
            {"id", TypeId::kInt64, "b"},
            {"x", TypeId::kDouble, "a"}});
  EXPECT_EQ(*s.Resolve("x"), 2);
  EXPECT_EQ(*s.Resolve("id", "a"), 0);
  EXPECT_EQ(*s.Resolve("id", "b"), 1);
  // Unqualified "id" is ambiguous.
  Result<int> r = s.Resolve("id");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  // Missing column.
  EXPECT_EQ(s.Resolve("nope").status().code(), StatusCode::kNotFound);
}

TEST(SchemaTest, ResolveIsCaseInsensitive) {
  Schema s = TwoColSchema();
  EXPECT_EQ(*s.Resolve("ID"), 0);
  EXPECT_EQ(*s.Resolve("Name", "T"), 1);
}

TEST(SchemaTest, ConcatAndRequalify) {
  Schema left({{"a", TypeId::kInt64, "l"}});
  Schema right({{"b", TypeId::kString, "r"}});
  Schema joined = Schema::Concat(left, right);
  ASSERT_EQ(joined.num_columns(), 2u);
  EXPECT_EQ(joined.column(0).name, "a");
  EXPECT_EQ(joined.column(1).qualifier, "r");

  Schema aliased = joined.WithQualifier("sub");
  EXPECT_EQ(aliased.column(0).qualifier, "sub");
  EXPECT_EQ(aliased.column(1).qualifier, "sub");
}

TEST(SchemaTest, EquivalentToIgnoresQualifiers) {
  Schema a({{"x", TypeId::kInt64, "t1"}});
  Schema b({{"X", TypeId::kInt64, "t2"}});
  Schema c({{"x", TypeId::kDouble, "t1"}});
  EXPECT_TRUE(a.EquivalentTo(b));
  EXPECT_FALSE(a.EquivalentTo(c));
}

TEST(TableTest, AppendChecksArity) {
  Table t("t", TwoColSchema());
  EXPECT_TRUE(t.Append({Value::Int(1), Value::Str("a")}).ok());
  EXPECT_FALSE(t.Append({Value::Int(1)}).ok());
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST(TableTest, AppendChecksTypesAndWidensInts) {
  Table t("t", Schema({{"v", TypeId::kDouble, "t"}}));
  EXPECT_TRUE(t.Append({Value::Int(3)}).ok());
  EXPECT_EQ(t.rows()[0][0].type(), TypeId::kDouble);
  EXPECT_TRUE(t.Append({Value::Null()}).ok());
  EXPECT_FALSE(t.Append({Value::Str("x")}).ok());
}

TEST(TableTest, AppendAllIsAtomic) {
  Table t("t", TwoColSchema());
  ASSERT_TRUE(t.Append({Value::Int(1), Value::Str("a")}).ok());

  // A bad row mid-batch must leave the table exactly as it was: no partial
  // commit into either the row store or the columnar view.
  std::vector<Row> batch;
  batch.push_back({Value::Int(2), Value::Str("b")});
  batch.push_back({Value::Str("oops"), Value::Str("c")});  // type error
  batch.push_back({Value::Int(3), Value::Str("d")});
  EXPECT_FALSE(t.AppendAll(std::move(batch)).ok());
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.rows().size(), 1u);
  EXPECT_EQ(t.columnar().num_rows(), 1u);

  // A fully valid batch commits every row.
  std::vector<Row> good;
  good.push_back({Value::Int(2), Value::Str("b")});
  good.push_back({Value::Null(), Value::Null()});
  EXPECT_TRUE(t.AppendAll(std::move(good)).ok());
  EXPECT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.columnar().num_rows(), 3u);
}

TEST(TableTest, AppendAllWidensIntsLikeAppend) {
  Table t("t", Schema({{"v", TypeId::kDouble, "t"}}));
  std::vector<Row> batch;
  batch.push_back({Value::Int(3)});
  batch.push_back({Value::Double(0.5)});
  ASSERT_TRUE(t.AppendAll(std::move(batch)).ok());
  EXPECT_EQ(t.rows()[0][0].type(), TypeId::kDouble);
  EXPECT_DOUBLE_EQ(t.columnar().column(0).doubles()[0], 3.0);
}

TEST(ColumnarTest, MirrorsRowStoreValueForValue) {
  Table t("t", TwoColSchema());
  ASSERT_TRUE(t.Append({Value::Int(7), Value::Str("x")}).ok());
  ASSERT_TRUE(t.Append({Value::Null(), Value::Str("y")}).ok());
  ASSERT_TRUE(t.Append({Value::Int(-2), Value::Null()}).ok());
  const ColumnarTable& ct = t.columnar();
  ASSERT_EQ(ct.num_rows(), 3u);
  for (size_t i = 0; i < ct.num_rows(); ++i) {
    Row row;
    ct.MaterializeRow(i, &row);
    EXPECT_TRUE(RowsEqual(row, t.rows()[i])) << "row " << i;
  }
}

TEST(ColumnarTest, DictionaryEncodesStrings) {
  Table t("t", Schema({{"s", TypeId::kString, "t"}}));
  const char* words[] = {"red", "green", "red", "blue", "green", "red"};
  for (const char* w : words) {
    ASSERT_TRUE(t.Append({Value::Str(w)}).ok());
  }
  const ColumnVector& cv = t.columnar().column(0);
  EXPECT_EQ(cv.dict_size(), 3u);  // exact NDV: red, green, blue
  // Equal strings share a code; distinct strings get distinct codes.
  EXPECT_EQ(cv.codes()[0], cv.codes()[2]);
  EXPECT_EQ(cv.codes()[0], cv.codes()[5]);
  EXPECT_NE(cv.codes()[0], cv.codes()[1]);
  EXPECT_NE(cv.codes()[1], cv.codes()[3]);
  // FindCode round-trips present values and rejects absent ones.
  const int64_t red = cv.FindCode("red");
  ASSERT_GE(red, 0);
  EXPECT_EQ(static_cast<uint32_t>(red), cv.codes()[0]);
  EXPECT_EQ(cv.FindCode("mauve"), -1);
}

TEST(ColumnarTest, ZoneMapsTrackMinMaxAndNullsPerMorsel) {
  Table t("t", Schema({{"v", TypeId::kInt64, "t"}}));
  // Two full morsels plus a partial third, with a known per-morsel layout:
  // morsel 0 holds [0, kMorselRows), morsel 1 is all NULL, morsel 2 holds
  // descending negatives.
  const size_t m = ColumnarTable::kMorselRows;
  for (size_t i = 0; i < m; ++i) {
    ASSERT_TRUE(t.Append({Value::Int(static_cast<int64_t>(i))}).ok());
  }
  for (size_t i = 0; i < m; ++i) {
    ASSERT_TRUE(t.Append({Value::Null()}).ok());
  }
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(t.Append({Value::Int(-i)}).ok());
  }
  const ColumnarTable& ct = t.columnar();
  ASSERT_EQ(ct.num_morsels(), 3u);

  const ZoneMap& z0 = ct.zone(0, 0);
  EXPECT_EQ(z0.min.int_val(), 0);
  EXPECT_EQ(z0.max.int_val(), static_cast<int64_t>(m) - 1);
  EXPECT_EQ(z0.null_count, 0u);

  const ZoneMap& z1 = ct.zone(0, 1);
  EXPECT_TRUE(z1.min.is_null());  // no non-NULL values in the morsel
  EXPECT_EQ(z1.null_count, m);

  const ZoneMap& z2 = ct.zone(0, 2);
  EXPECT_EQ(z2.min.int_val(), -99);
  EXPECT_EQ(z2.max.int_val(), 0);
}

TEST(ColumnarTest, CanPruneMorselRefutesOutOfRangePredicates) {
  Table t("t", Schema({{"v", TypeId::kInt64, "t"}}));
  const size_t m = ColumnarTable::kMorselRows;
  // Morsel 0: values in [0, 100]; morsel 1: all NULL.
  for (size_t i = 0; i < m; ++i) {
    ASSERT_TRUE(t.Append({Value::Int(static_cast<int64_t>(i % 101))}).ok());
  }
  for (size_t i = 0; i < m; ++i) {
    ASSERT_TRUE(t.Append({Value::Null()}).ok());
  }
  const ColumnarTable& ct = t.columnar();
  using value_ops::CmpOp;
  auto pred = [](CmpOp op, int64_t lit) {
    return std::vector<ScanPredicate>{{0, op, Value::Int(lit)}};
  };
  // Refuted: literal outside [0, 100].
  EXPECT_TRUE(ct.CanPruneMorsel(0, pred(CmpOp::kEq, 500)));
  EXPECT_TRUE(ct.CanPruneMorsel(0, pred(CmpOp::kGt, 100)));
  EXPECT_TRUE(ct.CanPruneMorsel(0, pred(CmpOp::kLt, 0)));
  EXPECT_TRUE(ct.CanPruneMorsel(0, pred(CmpOp::kLe, -1)));
  EXPECT_TRUE(ct.CanPruneMorsel(0, pred(CmpOp::kGe, 101)));
  // Not refuted: literal inside the range (or kNe with a spread).
  EXPECT_FALSE(ct.CanPruneMorsel(0, pred(CmpOp::kEq, 50)));
  EXPECT_FALSE(ct.CanPruneMorsel(0, pred(CmpOp::kGe, 100)));
  EXPECT_FALSE(ct.CanPruneMorsel(0, pred(CmpOp::kNe, 50)));
  // An all-NULL morsel never satisfies any comparison (SQL 3VL): prunable
  // under every predicate.
  EXPECT_TRUE(ct.CanPruneMorsel(1, pred(CmpOp::kEq, 0)));
  EXPECT_TRUE(ct.CanPruneMorsel(1, pred(CmpOp::kNe, 0)));
  // No predicates -> nothing to refute.
  EXPECT_FALSE(ct.CanPruneMorsel(0, {}));
}

TEST(ColumnarTest, CanPruneConstantMorselWithNe) {
  Table t("t", Schema({{"v", TypeId::kInt64, "t"}}));
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(t.Append({Value::Int(42)}).ok());
  }
  const ColumnarTable& ct = t.columnar();
  std::vector<ScanPredicate> ne42 = {
      {0, value_ops::CmpOp::kNe, Value::Int(42)}};
  EXPECT_TRUE(ct.CanPruneMorsel(0, ne42));
  std::vector<ScanPredicate> ne41 = {
      {0, value_ops::CmpOp::kNe, Value::Int(41)}};
  EXPECT_FALSE(ct.CanPruneMorsel(0, ne41));
}

TEST(ColumnarTest, FilterRangeAgreesWithRowMatches) {
  Table t("t", Schema({{"v", TypeId::kInt64, "t"},
                       {"d", TypeId::kDouble, "t"},
                       {"s", TypeId::kString, "t"}}));
  const char* words[] = {"a", "b", "c"};
  for (int i = 0; i < 300; ++i) {
    Row row;
    row.push_back(i % 7 == 0 ? Value::Null() : Value::Int(i % 50));
    row.push_back(Value::Double(i * 0.5));
    row.push_back(i % 11 == 0 ? Value::Null() : Value::Str(words[i % 3]));
    ASSERT_TRUE(t.Append(std::move(row)).ok());
  }
  const ColumnarTable& ct = t.columnar();
  using value_ops::CmpOp;
  const std::vector<std::vector<ScanPredicate>> pred_sets = {
      {{0, CmpOp::kGe, Value::Int(10)}},
      {{0, CmpOp::kGe, Value::Int(10)}, {0, CmpOp::kLt, Value::Int(30)}},
      {{1, CmpOp::kLe, Value::Double(70.0)}},
      {{2, CmpOp::kEq, Value::Str("b")}},
      {{2, CmpOp::kNe, Value::Str("b")}},
      {{0, CmpOp::kGt, Value::Int(5)}, {2, CmpOp::kEq, Value::Str("a")}},
      {},  // empty set selects everything
  };
  for (size_t p = 0; p < pred_sets.size(); ++p) {
    const auto& preds = pred_sets[p];
    ASSIGN_OR_FAIL(std::unique_ptr<ExprProgram> program,
                   ExprProgram::CompileScanPredicates(ct, preds));
    std::vector<uint32_t> selection;
    ASSERT_TRUE(program->FilterRange(0, ct.num_rows(), &selection).ok());
    EXPECT_EQ(selection, tutil::ScanReferenceSelection(ct, t.schema(), preds,
                                                       0, ct.num_rows()))
        << "pred set " << p;
    if (!preds.empty()) {
      // NULLs never match a pushed comparison.
      for (uint32_t i : selection) {
        for (const ScanPredicate& pr : preds) {
          EXPECT_FALSE(ct.column(pr.column).IsNull(i))
              << "pred set " << p << " row " << i;
        }
      }
    } else {
      EXPECT_EQ(selection.size(), ct.num_rows());
    }
  }
}

constexpr value_ops::CmpOp kAllCmpOps[] = {
    value_ops::CmpOp::kEq, value_ops::CmpOp::kNe, value_ops::CmpOp::kLt,
    value_ops::CmpOp::kLe, value_ops::CmpOp::kGt, value_ops::CmpOp::kGe};

TEST(ColumnarTest, SortedFlagMarksNonDecreasingNonNullIntMorsels) {
  auto clean = tutil::MakeTable("t", tutil::GroupedSchema(),
                                tutil::SortedRunRows(/*broken=*/false));
  auto broken = tutil::MakeTable("t", tutil::GroupedSchema(),
                                 tutil::SortedRunRows(/*broken=*/true));
  const ColumnarTable& c = clean->columnar();
  const ColumnarTable& b = broken->columnar();
  ASSERT_EQ(c.num_morsels(), 4u);
  for (size_t m = 0; m < c.num_morsels(); ++m) {
    EXPECT_TRUE(c.zone(0, m).sorted) << "morsel " << m;
    EXPECT_FALSE(c.zone(1, m).sorted) << "morsel " << m;  // v = row % 13
    // d rises too, but only int64 columns carry the flag.
    EXPECT_FALSE(c.zone(2, m).sorted) << "morsel " << m;
    // Morsel 1 holds one NULL key, morsel 2 one descent.
    EXPECT_EQ(b.zone(0, m).sorted, m == 0 || m == 3) << "morsel " << m;
  }
}

TEST(ColumnarTest, SortedFlagDropsWhenAnAppendAfterAScanBreaksOrder) {
  Table t("t", Schema({{"k", TypeId::kInt64, "t"}}));
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(t.Append({Value::Int(i / 3)}).ok());
  }
  EXPECT_TRUE(t.columnar().zone(0, 0).sorted);
  ASSERT_TRUE(t.Append({Value::Int(33)}).ok());  // ties the last key
  EXPECT_TRUE(t.columnar().zone(0, 0).sorted);
  ASSERT_TRUE(t.Append({Value::Int(32)}).ok());  // one descent
  EXPECT_FALSE(t.columnar().zone(0, 0).sorted);
  ASSERT_TRUE(t.Append({Value::Int(1000)}).ok());
  EXPECT_FALSE(t.columnar().zone(0, 0).sorted);  // order never comes back

  Table u("u", Schema({{"k", TypeId::kInt64, "u"}}));
  for (int64_t i = 0; i < 10; ++i) ASSERT_TRUE(u.Append({Value::Int(i)}).ok());
  EXPECT_TRUE(u.columnar().zone(0, 0).sorted);
  ASSERT_TRUE(u.Append({Value::Null()}).ok());
  EXPECT_FALSE(u.columnar().zone(0, 0).sorted);
}

TEST(ColumnarTest, ColumnSortedNeedsSortedZonesInMorselOrder) {
  auto clean = tutil::MakeTable("t", tutil::GroupedSchema(),
                                tutil::SortedRunRows(/*broken=*/false));
  auto broken = tutil::MakeTable("t", tutil::GroupedSchema(),
                                 tutil::SortedRunRows(/*broken=*/true));
  EXPECT_TRUE(clean->columnar().ColumnSorted(0));
  EXPECT_FALSE(clean->columnar().ColumnSorted(1));  // v = row % 13
  EXPECT_FALSE(clean->columnar().ColumnSorted(2));  // a double column
  EXPECT_FALSE(broken->columnar().ColumnSorted(0));

  // Each morsel sorted on its own: the order must also hold across the
  // boundary, where a tie is fine and a descent is not.
  const auto two_morsels = [](int64_t second_start) {
    Table t("t", Schema({{"k", TypeId::kInt64, "t"}}));
    const int64_t n = static_cast<int64_t>(ColumnarTable::kMorselRows);
    for (int64_t i = 0; i < n; ++i) {
      EXPECT_TRUE(t.Append({Value::Int(i)}).ok());
    }
    for (int64_t i = 0; i < 10; ++i) {
      EXPECT_TRUE(t.Append({Value::Int(second_start + i)}).ok());
    }
    const ColumnarTable& c = t.columnar();
    EXPECT_TRUE(c.zone(0, 0).sorted && c.zone(0, 1).sorted);
    return c.ColumnSorted(0);
  };
  const int64_t last = static_cast<int64_t>(ColumnarTable::kMorselRows) - 1;
  EXPECT_TRUE(two_morsels(last));
  EXPECT_FALSE(two_morsels(last - 1));

  Table empty("e", Schema({{"k", TypeId::kInt64, "e"}}));
  EXPECT_TRUE(empty.columnar().ColumnSorted(0));
}

TEST(ColumnarTest, NarrowMorselKeepsExactlyTheMatchingRunOfSortedMorsels) {
  using value_ops::CmpOp;
  for (const bool broken : {false, true}) {
    auto table = tutil::MakeTable("t", tutil::GroupedSchema(),
                                  tutil::SortedRunRows(broken));
    const ColumnarTable& ct = table->columnar();
    for (size_t m = 0; m < ct.num_morsels(); ++m) {
      const bool sorted = !broken || m == 0 || m == 3;
      const size_t lo = m * ColumnarTable::kMorselRows;
      const size_t hi =
          std::min(lo + ColumnarTable::kMorselRows, ct.num_rows());
      // The whole morsel, and a range that starts and ends inside it.
      for (const auto& [b0, e0] : {std::pair{lo, hi},
                                   std::pair{lo + 3, hi - 5}}) {
        std::vector<std::vector<ScanPredicate>> pred_sets;
        for (const CmpOp op : kAllCmpOps) {
          for (const int64_t lit : {-1, 0, 585, 586, 1000, 1300, 1828, 5000}) {
            pred_sets.push_back({{0, op, Value::Int(lit)}});
          }
        }
        pred_sets.push_back({{0, CmpOp::kGe, Value::Int(580)},
                             {1, CmpOp::kNe, Value::Int(2)},
                             {0, CmpOp::kLt, Value::Int(590)}});
        for (const auto& preds : pred_sets) {
          const std::string where = preds[0].ToString(table->schema()) +
                                    " morsel " + std::to_string(m) +
                                    " range [" + std::to_string(b0) + ", " +
                                    std::to_string(e0) + ")" +
                                    (broken ? " broken" : "");
          size_t b = b0;
          size_t e = e0;
          ct.NarrowMorsel(m, preds, &b, &e);
          if (!sorted || preds[0].op == CmpOp::kNe) {
            EXPECT_EQ(b, b0) << where;
            EXPECT_EQ(e, e0) << where;
            continue;
          }
          // Rows matching the key conjuncts (the v conjunct never narrows).
          std::vector<ScanPredicate> key_preds;
          for (const ScanPredicate& p : preds) {
            if (p.column == 0) key_preds.push_back(p);
          }
          const std::vector<uint32_t> want = tutil::ScanReferenceSelection(
              ct, table->schema(), key_preds, b0, e0);
          if (want.empty()) {
            EXPECT_EQ(b, e) << where;
            continue;
          }
          EXPECT_EQ(b, want.front()) << where;
          EXPECT_EQ(e, want.back() + 1u) << where;
        }
      }
    }
  }
}

TEST(ColumnarTest, NarrowMorselIgnoresDoubleLiteralsAndUnsortedColumns) {
  using value_ops::CmpOp;
  auto table = tutil::MakeTable("t", tutil::GroupedSchema(),
                                tutil::SortedRunRows(/*broken=*/false));
  const ColumnarTable& ct = table->columnar();
  const size_t end = ColumnarTable::kMorselRows;
  for (const std::vector<ScanPredicate>& preds :
       std::vector<std::vector<ScanPredicate>>{
           {{0, CmpOp::kEq, Value::Double(585.0)}},
           {{0, CmpOp::kLt, Value::Double(10.5)}},
           {{1, CmpOp::kEq, Value::Int(3)}},
           {{2, CmpOp::kGe, Value::Double(100.0)}}}) {
    size_t b = 0;
    size_t e = end;
    ct.NarrowMorsel(0, preds, &b, &e);
    EXPECT_EQ(b, 0u) << preds[0].ToString(table->schema());
    EXPECT_EQ(e, end) << preds[0].ToString(table->schema());
  }
}

TEST(ColumnarTest, PredicateToStringNamesColumnAndQuotesStrings) {
  Schema s({{"v", TypeId::kInt64, "t"}, {"name", TypeId::kString, "t"}});
  ScanPredicate p1{0, value_ops::CmpOp::kGe, Value::Int(10)};
  EXPECT_EQ(p1.ToString(s), "v >= 10");
  ScanPredicate p2{1, value_ops::CmpOp::kEq, Value::Str("bob")};
  EXPECT_EQ(p2.ToString(s), "name = 'bob'");
}

TEST(CatalogTest, AddAndLookupTables) {
  Catalog catalog;
  ASSERT_TRUE(
      catalog.AddTable(std::make_unique<Table>("T1", TwoColSchema())).ok());
  EXPECT_NE(catalog.FindTable("t1"), nullptr);  // case-insensitive
  EXPECT_EQ(catalog.FindTable("t2"), nullptr);
  EXPECT_FALSE(
      catalog.AddTable(std::make_unique<Table>("t1", TwoColSchema())).ok());
  ASSERT_TRUE(catalog.GetTable("T1").ok());
  EXPECT_EQ(catalog.GetTable("zzz").status().code(), StatusCode::kNotFound);
}

TEST(CatalogTest, ForeignKeyValidation) {
  Catalog catalog;
  ASSERT_TRUE(catalog
                  .AddTable(std::make_unique<Table>(
                      "parent", Schema({{"pk", TypeId::kInt64, "parent"}})))
                  .ok());
  ASSERT_TRUE(catalog
                  .AddTable(std::make_unique<Table>(
                      "child", Schema({{"fk", TypeId::kInt64, "child"}})))
                  .ok());
  ASSERT_TRUE(catalog.SetPrimaryKey("parent", {"pk"}).ok());
  EXPECT_TRUE(
      catalog.AddForeignKey({"child", {"fk"}, "parent", {"pk"}}).ok());
  // Bad column.
  EXPECT_FALSE(
      catalog.AddForeignKey({"child", {"bad"}, "parent", {"pk"}}).ok());
  // Mismatched lengths.
  EXPECT_FALSE(
      catalog.AddForeignKey({"child", {"fk"}, "parent", {}}).ok());
}

TEST(CatalogTest, IsForeignKeyJoinRequiresParentPrimaryKey) {
  Catalog catalog;
  ASSERT_TRUE(catalog
                  .AddTable(std::make_unique<Table>(
                      "parent", Schema({{"pk", TypeId::kInt64, "parent"},
                                        {"other", TypeId::kInt64, "parent"}})))
                  .ok());
  ASSERT_TRUE(catalog
                  .AddTable(std::make_unique<Table>(
                      "child", Schema({{"fk", TypeId::kInt64, "child"}})))
                  .ok());
  ASSERT_TRUE(catalog.SetPrimaryKey("parent", {"pk"}).ok());
  ASSERT_TRUE(
      catalog.AddForeignKey({"child", {"fk"}, "parent", {"pk"}}).ok());

  EXPECT_TRUE(catalog.IsForeignKeyJoin("child", {"fk"}, "parent", {"pk"}));
  // Joining on a non-key parent column is not a foreign-key join.
  EXPECT_FALSE(
      catalog.IsForeignKeyJoin("child", {"fk"}, "parent", {"other"}));
  // No declared FK in this direction.
  EXPECT_FALSE(catalog.IsForeignKeyJoin("parent", {"pk"}, "child", {"fk"}));
}

}  // namespace
}  // namespace gapply
