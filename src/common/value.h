#ifndef GAPPLY_COMMON_VALUE_H_
#define GAPPLY_COMMON_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "src/common/result.h"
#include "src/common/status.h"

namespace gapply {

/// SQL types supported by the engine.
enum class TypeId {
  kNull = 0,  // the type of a bare NULL literal; unifies with any type
  kBool,
  kInt64,
  kDouble,
  kString,
};

/// Returns the lowercase SQL-ish name of a type ("int64", "double", ...).
const char* TypeName(TypeId type);

/// True if `type` is kInt64 or kDouble.
bool IsNumeric(TypeId type);

/// \brief A single SQL value: NULL, boolean, 64-bit integer, double, or
/// string.
///
/// Two distinct equality notions exist, mirroring SQL:
///  - `Compare`/`CompareOp` implement expression semantics: any comparison
///    involving NULL yields NULL (three-valued logic).
///  - `Equals`/`Hash` implement *grouping* semantics: NULL equals NULL, so
///    values can key hash tables for GROUP BY / DISTINCT / GApply
///    partitioning.
class Value {
 public:
  /// Constructs NULL.
  Value() : data_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Bool(bool v) { return Value(Payload(v)); }
  static Value Int(int64_t v) { return Value(Payload(v)); }
  static Value Double(double v) { return Value(Payload(v)); }
  static Value Str(std::string v) { return Value(Payload(std::move(v))); }

  TypeId type() const;
  bool is_null() const { return std::holds_alternative<std::monostate>(data_); }

  bool bool_val() const { return std::get<bool>(data_); }
  int64_t int_val() const { return std::get<int64_t>(data_); }
  double double_val() const { return std::get<double>(data_); }
  const std::string& str_val() const { return std::get<std::string>(data_); }

  /// Numeric value widened to double. Requires a numeric or bool type.
  double AsDouble() const;

  /// Total order over two non-NULL values of comparable types.
  /// Numerics compare cross-type (int vs double); strings lexicographically.
  /// Returns -1/0/1, or TypeError for incomparable types or NULL inputs.
  static Result<int> Compare(const Value& a, const Value& b);

  /// Grouping equality: NULL == NULL, otherwise same type family and equal.
  /// Int and double with the same numeric value are equal (2 == 2.0).
  bool Equals(const Value& other) const;

  /// Hash consistent with Equals.
  size_t Hash() const;

  /// Rendering used by result printers and the XML tagger.
  /// NULL renders as "NULL"; strings are not quoted; doubles render as
  /// printf's "%g" (six significant digits).
  std::string ToString() const;

  /// Appends ToString() to `out` without building a temporary.
  void AppendTo(std::string* out) const;

 private:
  using Payload =
      std::variant<std::monostate, bool, int64_t, double, std::string>;

  explicit Value(Payload data) : data_(std::move(data)) {}

  Payload data_;
};

/// A tuple of values. Schemas (src/storage/schema.h) give columns names and
/// types; rows are positional.
using Row = std::vector<Value>;

/// Boost-style hash combine: golden-ratio constant plus shift mixing, so
/// that adjacent integer hashes spread over the full word instead of
/// landing in nearby buckets (the old `h * 1000003 ^ v` mix clustered
/// consecutive keys).
inline size_t HashCombine(size_t seed, size_t value) {
  return seed ^ (value + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2));
}

/// Hash of the columns of `row` selected by `cols`, identical to what
/// `RowHash` would produce for the extracted key row. Lets GApply's hash
/// partitioner hash grouping columns in place, without materializing a key
/// row per input row.
size_t HashRowColumns(const Row& row, const std::vector<int>& cols);

/// Grouping-semantics hash/equality functors for containers keyed by rows.
struct RowHash {
  size_t operator()(const Row& row) const;
};
struct RowEq {
  bool operator()(const Row& a, const Row& b) const;
};

/// True iff the rows are element-wise `Value::Equals`.
bool RowsEqual(const Row& a, const Row& b);

/// Renders a row as "(v1, v2, ...)".
std::string RowToString(const Row& row);

namespace value_ops {

/// SQL arithmetic with NULL propagation and int→double promotion.
/// Integer division by zero and modulo by zero are InvalidArgument errors.
Result<Value> Add(const Value& a, const Value& b);
Result<Value> Subtract(const Value& a, const Value& b);
Result<Value> Multiply(const Value& a, const Value& b);
Result<Value> Divide(const Value& a, const Value& b);
Result<Value> Modulo(const Value& a, const Value& b);
Result<Value> Negate(const Value& a);

/// Comparison kinds for CompareOp.
enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

/// Three-valued-logic comparison: NULL if either side is NULL, else a bool.
Result<Value> CompareOp(CmpOp op, const Value& a, const Value& b);

/// Three-valued-logic AND / OR / NOT over bool-or-NULL values.
Result<Value> And(const Value& a, const Value& b);
Result<Value> Or(const Value& a, const Value& b);
Result<Value> Not(const Value& a);

}  // namespace value_ops

}  // namespace gapply

#endif  // GAPPLY_COMMON_VALUE_H_
