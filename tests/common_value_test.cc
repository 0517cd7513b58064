#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/common/result.h"
#include "src/common/spill_file.h"
#include "src/common/status.h"
#include "src/common/value.h"

namespace gapply {
namespace {

using value_ops::CmpOp;

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("table t");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: table t");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 7;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::TypeError("bad");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTypeError);
}

Result<int> Doubled(Result<int> in) {
  ASSIGN_OR_RETURN(int v, in);
  return v * 2;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Doubled(21), 42);
  EXPECT_FALSE(Doubled(Status::Internal("x")).ok());
}

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Bool(true).type(), TypeId::kBool);
  EXPECT_EQ(Value::Int(5).int_val(), 5);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).double_val(), 2.5);
  EXPECT_EQ(Value::Str("abc").str_val(), "abc");
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::Int(-3).ToString(), "-3");
  EXPECT_EQ(Value::Bool(false).ToString(), "false");
  EXPECT_EQ(Value::Str("hi").ToString(), "hi");
}

TEST(ValueTest, CompareNumericCrossType) {
  EXPECT_EQ(*Value::Compare(Value::Int(2), Value::Double(2.5)), -1);
  EXPECT_EQ(*Value::Compare(Value::Double(3.0), Value::Int(3)), 0);
  EXPECT_EQ(*Value::Compare(Value::Int(4), Value::Int(3)), 1);
}

TEST(ValueTest, CompareStrings) {
  EXPECT_EQ(*Value::Compare(Value::Str("a"), Value::Str("b")), -1);
  EXPECT_EQ(*Value::Compare(Value::Str("b"), Value::Str("b")), 0);
}

TEST(ValueTest, CompareIncompatibleTypesFails) {
  EXPECT_FALSE(Value::Compare(Value::Str("a"), Value::Int(1)).ok());
  EXPECT_FALSE(Value::Compare(Value::Null(), Value::Int(1)).ok());
}

TEST(ValueTest, GroupingEqualityTreatsNullAsEqual) {
  EXPECT_TRUE(Value::Null().Equals(Value::Null()));
  EXPECT_FALSE(Value::Null().Equals(Value::Int(0)));
  EXPECT_TRUE(Value::Int(2).Equals(Value::Double(2.0)));
  EXPECT_EQ(Value::Int(2).Hash(), Value::Double(2.0).Hash());
}

TEST(ValueTest, ThreeValuedComparison) {
  Result<Value> r =
      value_ops::CompareOp(CmpOp::kLt, Value::Null(), Value::Int(1));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->is_null());
  EXPECT_TRUE(
      value_ops::CompareOp(CmpOp::kGe, Value::Int(2), Value::Int(2))->bool_val());
  EXPECT_FALSE(
      value_ops::CompareOp(CmpOp::kNe, Value::Int(2), Value::Double(2.0))
          ->bool_val());
}

TEST(ValueTest, KleeneAndOr) {
  const Value t = Value::Bool(true);
  const Value f = Value::Bool(false);
  const Value n = Value::Null();
  // AND: false dominates NULL.
  EXPECT_FALSE(value_ops::And(f, n)->bool_val());
  EXPECT_TRUE(value_ops::And(t, t)->bool_val());
  EXPECT_TRUE(value_ops::And(t, n)->is_null());
  // OR: true dominates NULL.
  EXPECT_TRUE(value_ops::Or(t, n)->bool_val());
  EXPECT_TRUE(value_ops::Or(f, n)->is_null());
  EXPECT_FALSE(value_ops::Or(f, f)->bool_val());
  // NOT NULL is NULL.
  EXPECT_TRUE(value_ops::Not(n)->is_null());
  EXPECT_FALSE(value_ops::Not(t)->bool_val());
}

TEST(ValueTest, BooleanOpsRejectNonBool) {
  EXPECT_FALSE(value_ops::And(Value::Int(1), Value::Bool(true)).ok());
  EXPECT_FALSE(value_ops::Not(Value::Str("x")).ok());
}

TEST(ValueTest, ArithmeticPromotionAndNulls) {
  EXPECT_EQ(value_ops::Add(Value::Int(2), Value::Int(3))->int_val(), 5);
  EXPECT_DOUBLE_EQ(
      value_ops::Add(Value::Int(2), Value::Double(0.5))->double_val(), 2.5);
  EXPECT_TRUE(value_ops::Multiply(Value::Null(), Value::Int(3))->is_null());
  EXPECT_EQ(value_ops::Subtract(Value::Int(2), Value::Int(5))->int_val(), -3);
  EXPECT_EQ(value_ops::Modulo(Value::Int(7), Value::Int(3))->int_val(), 1);
  EXPECT_EQ(value_ops::Negate(Value::Int(7))->int_val(), -7);
}

TEST(ValueTest, DivisionByZeroIsError) {
  EXPECT_FALSE(value_ops::Divide(Value::Int(1), Value::Int(0)).ok());
  EXPECT_FALSE(value_ops::Divide(Value::Double(1), Value::Double(0)).ok());
  EXPECT_FALSE(value_ops::Modulo(Value::Int(1), Value::Int(0)).ok());
}

TEST(ValueTest, ArithmeticTypeErrors) {
  EXPECT_FALSE(value_ops::Add(Value::Str("a"), Value::Int(1)).ok());
  EXPECT_FALSE(value_ops::Negate(Value::Str("a")).ok());
}

TEST(RowTest, RowEqualityAndHash) {
  Row a = {Value::Int(1), Value::Null(), Value::Str("x")};
  Row b = {Value::Int(1), Value::Null(), Value::Str("x")};
  Row c = {Value::Int(1), Value::Int(0), Value::Str("x")};
  EXPECT_TRUE(RowsEqual(a, b));
  EXPECT_FALSE(RowsEqual(a, c));
  EXPECT_EQ(RowHash()(a), RowHash()(b));
  EXPECT_TRUE(RowEq()(a, b));
  EXPECT_EQ(RowToString(a), "(1, NULL, x)");
}

TEST(RowTest, HashCombineSpreadsAdjacentIntKeys) {
  // The multiply-then-xor combiner this replaced collapsed adjacent
  // single-int keys into few distinct hashes once masked down to a small
  // bucket count. Golden-ratio hash-combine must keep collisions near the
  // birthday bound: 4096 adjacent keys over 1<<16 buckets.
  constexpr int kKeys = 4096;
  constexpr size_t kMask = (1u << 16) - 1;
  std::unordered_set<size_t> buckets;
  for (int i = 0; i < kKeys; ++i) {
    buckets.insert(RowHash()(Row{Value::Int(i)}) & kMask);
  }
  // Expected distinct buckets ~ m(1 - e^{-n/m}) ≈ 3969; demand at least 90%.
  EXPECT_GE(buckets.size(), static_cast<size_t>(kKeys * 9 / 10));

  // Two-column keys (k, v) with small adjacent ranges must not collide
  // pairwise-symmetrically: (a, b) and (b, a) hash differently in general.
  EXPECT_NE(RowHash()(Row{Value::Int(1), Value::Int(2)}),
            RowHash()(Row{Value::Int(2), Value::Int(1)}));
}

TEST(RowTest, HashRowColumnsMatchesRowHashOfExtractedKey) {
  Row row = {Value::Int(7), Value::Str("x"), Value::Double(1.5)};
  const std::vector<int> cols = {0, 2};
  Row key = {row[0], row[2]};
  EXPECT_EQ(HashRowColumns(row, cols), RowHash()(key));
}

// --- Value layout: inline and out-of-line strings, copies and moves -----

// Strings on both sides of the 15-byte inline capacity, with and without
// embedded NUL bytes.
std::vector<std::string> BoundaryStrings() {
  std::vector<std::string> out;
  for (size_t len : {0, 14, 15, 16, 4096}) {
    std::string plain(len, 'a');
    for (size_t i = 0; i < len; ++i) plain[i] = static_cast<char>('a' + i % 26);
    out.push_back(plain);
    if (len > 0) {
      std::string with_nul = plain;
      with_nul[len / 2] = '\0';
      with_nul[len - 1] = '\0';
      out.push_back(with_nul);
    }
  }
  return out;
}

std::vector<Value> SampleValues() {
  std::vector<Value> out = {Value::Null(),       Value::Bool(true),
                            Value::Bool(false),  Value::Int(-5),
                            Value::Int(1),       Value::Double(2.5),
                            Value::Double(-0.0)};
  for (const std::string& s : BoundaryStrings()) out.push_back(Value::Str(s));
  return out;
}

// Same type and same payload: stricter than Equals, which lets 2 == 2.0.
void ExpectSame(const Value& got, const Value& want) {
  ASSERT_EQ(got.type(), want.type()) << want.ToString();
  switch (want.type()) {
    case TypeId::kNull:
      break;
    case TypeId::kBool:
      EXPECT_EQ(got.bool_val(), want.bool_val());
      break;
    case TypeId::kInt64:
      EXPECT_EQ(got.int_val(), want.int_val());
      break;
    case TypeId::kDouble:
      EXPECT_EQ(std::signbit(got.double_val()),
                std::signbit(want.double_val()));
      EXPECT_EQ(got.double_val(), want.double_val());
      break;
    case TypeId::kString:
      EXPECT_EQ(got.str_val(), want.str_val());
      EXPECT_EQ(got.heap_bytes(), want.heap_bytes());
      break;
  }
}

TEST(ValueLayoutTest, StringsRoundTripAcrossTheInlineBoundary) {
  for (const std::string& s : BoundaryStrings()) {
    const Value v = Value::Str(s);
    EXPECT_EQ(v.type(), TypeId::kString);
    EXPECT_EQ(v.str_val().size(), s.size());
    EXPECT_EQ(v.str_val(), s);
    EXPECT_EQ(v.ToString(), s);
    EXPECT_EQ(v.heap_bytes(), s.size() > Value::kInlineCapacity ? s.size() : 0)
        << "length " << s.size();
  }
}

TEST(ValueLayoutTest, CopyMoveAndAssignEveryType) {
  const std::vector<Value> samples = SampleValues();
  for (const Value& src : samples) {
    SCOPED_TRACE(src.ToString());
    Value copy(src);
    ExpectSame(copy, src);

    Value moved(std::move(copy));
    ExpectSame(moved, src);
    EXPECT_TRUE(copy.is_null());

    // Assignment onto every other type releases what the target held.
    for (const Value& target : samples) {
      Value assigned(target);
      assigned = src;
      ExpectSame(assigned, src);

      Value from(src);
      Value move_assigned(target);
      move_assigned = std::move(from);
      ExpectSame(move_assigned, src);
      EXPECT_TRUE(from.is_null());
    }

    // Self-assignment through an alias leaves the value intact.
    Value self(src);
    Value& alias = self;
    self = alias;
    ExpectSame(self, src);
    self = std::move(alias);
    ExpectSame(self, src);
  }
}

TEST(ValueLayoutTest, StringHashMatchesStdHashOfTheBytes) {
  for (const std::string& s : BoundaryStrings()) {
    EXPECT_EQ(Value::Str(s).Hash(), std::hash<std::string>{}(s))
        << "length " << s.size();
  }
  EXPECT_EQ(Value::Str("inline").Hash(),
            std::hash<std::string>{}(std::string("inline")));
  const std::string long_text = "an out-of-line string of 33 bytes";
  EXPECT_EQ(Value::Str(long_text).Hash(), std::hash<std::string>{}(long_text));
}

TEST(ValueLayoutTest, EqualsHashCompareAcrossInlineAndOutOfLine) {
  const std::string base = "abcdefghijklmnopqrstuvwxyz";
  // Each pair shares a prefix; the shorter sorts first.
  const std::vector<std::pair<size_t, size_t>> pairs = {
      {14, 15}, {15, 16}, {16, 17}, {0, 16}, {3, 26}};
  for (const auto& [short_len, long_len] : pairs) {
    const Value a = Value::Str(base.substr(0, short_len));
    const Value b = Value::Str(base.substr(0, long_len));
    SCOPED_TRACE(std::to_string(short_len) + " vs " + std::to_string(long_len));
    EXPECT_FALSE(a.Equals(b));
    EXPECT_FALSE(b.Equals(a));
    EXPECT_EQ(*Value::Compare(a, b), -1);
    EXPECT_EQ(*Value::Compare(b, a), 1);
    // Built separately, the same bytes are equal and hash alike.
    const Value b2 = Value::Str(base.substr(0, long_len));
    EXPECT_TRUE(b.Equals(b2));
    EXPECT_EQ(b.Hash(), b2.Hash());
    EXPECT_EQ(*Value::Compare(b, b2), 0);
  }
  // A differing last byte of an out-of-line string.
  EXPECT_FALSE(Value::Str(base).Equals(Value::Str(base.substr(0, 25) + "Z")));
  EXPECT_EQ(*Value::Compare(Value::Str(base.substr(0, 25) + "Z"),
                            Value::Str(base)),
            -1);
  // Embedded NUL bytes take part in equality and order.
  const Value with_nul = Value::Str(std::string("ab\0c", 4));
  EXPECT_FALSE(with_nul.Equals(Value::Str("ab")));
  EXPECT_EQ(*Value::Compare(Value::Str("ab"), with_nul), -1);
}

TEST(ValueLayoutTest, NumericEqualityHashesAlike) {
  EXPECT_TRUE(Value::Int(2).Equals(Value::Double(2.0)));
  EXPECT_EQ(Value::Int(2).Hash(), Value::Double(2.0).Hash());
  EXPECT_TRUE(Value::Double(0.0).Equals(Value::Double(-0.0)));
  EXPECT_EQ(Value::Double(0.0).Hash(), Value::Double(-0.0).Hash());
  EXPECT_TRUE(Value::Int(0).Equals(Value::Double(-0.0)));
  EXPECT_EQ(Value::Int(0).Hash(), Value::Double(-0.0).Hash());
}

TEST(ValueLayoutTest, ApproxRowBytesChargesOnlyOutOfLineBytes) {
  const std::string long_text(100, 'x');
  const Row row = {Value::Str("short"), Value::Str(long_text)};
  EXPECT_EQ(ApproxRowBytes(row), sizeof(Row) + 2 * sizeof(Value) + 100);
  EXPECT_EQ(sizeof(Value), 16u);
}

}  // namespace
}  // namespace gapply
