#ifndef GAPPLY_COMMON_VALUE_H_
#define GAPPLY_COMMON_VALUE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
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
///
/// Layout (DESIGN.md §19): 16 bytes, a 15-byte payload plus a tag byte.
/// Strings of up to kInlineCapacity bytes live in the payload, with their
/// length in the tag; longer strings own an exact-size heap buffer that a
/// copy duplicates. The representation is canonical: every payload byte a
/// value does not use is zero, and a string is out of line iff it is longer
/// than kInlineCapacity. A moved-from Value is NULL.
class Value {
 public:
  /// Longest string stored without a heap allocation (libstdc++'s SSO
  /// capacity, so no string that fit std::string's buffer allocates here).
  static constexpr size_t kInlineCapacity = 15;

  /// Constructs NULL.
  Value() = default;
  ~Value() {
    if (rep_.tag == kHeapStr) FreeHeap();
  }
  Value(const Value& other) : rep_(other.rep_) {
    if (rep_.tag == kHeapStr) CopyHeap();
  }
  Value(Value&& other) noexcept : rep_(other.rep_) { other.rep_ = Rep{}; }
  Value& operator=(const Value& other) {
    if (this != &other) *this = Value(other);
    return *this;
  }
  Value& operator=(Value&& other) noexcept {
    if (this != &other) {
      if (rep_.tag == kHeapStr) FreeHeap();
      rep_ = other.rep_;
      other.rep_ = Rep{};
    }
    return *this;
  }

  static Value Null() { return Value(); }
  static Value Bool(bool v) { return Word(kBool, v); }
  static Value Int(int64_t v) { return Word(kInt, v); }
  static Value Double(double v) { return Word(kDouble, v); }
  static Value Str(std::string_view v);

  TypeId type() const {
    return rep_.tag < kHeapStr ? static_cast<TypeId>(rep_.tag)
                               : TypeId::kString;
  }
  bool is_null() const { return rep_.tag == kNull; }

  bool bool_val() const { return rep_.bytes[0] != 0; }
  int64_t int_val() const { return Load<int64_t>(0); }
  double double_val() const { return Load<double>(0); }
  /// The string's bytes. Valid until this Value is modified or destroyed;
  /// an inline string's view points into the Value itself, so it also ends
  /// when the Value moves.
  std::string_view str_val() const {
    if (rep_.tag == kHeapStr) {
      return {Load<const char*>(0), Load<uint32_t>(sizeof(char*))};
    }
    return {rep_.bytes, static_cast<size_t>(rep_.tag >> kLenShift)};
  }

  /// Bytes this value owns outside its 16-byte slot: an out-of-line
  /// string's length, else 0.
  size_t heap_bytes() const {
    return rep_.tag == kHeapStr ? Load<uint32_t>(sizeof(char*)) : 0;
  }

  /// Numeric value widened to double. Requires a numeric or bool type.
  double AsDouble() const;

  /// Total order over two non-NULL values of comparable types.
  /// Numerics compare cross-type (int vs double); strings lexicographically.
  /// Returns -1/0/1, or TypeError for incomparable types or NULL inputs.
  static Result<int> Compare(const Value& a, const Value& b);

  /// Grouping equality: NULL == NULL, otherwise same type family and equal.
  /// Int and double with the same numeric value are equal (2 == 2.0).
  bool Equals(const Value& other) const;

  /// Hash consistent with Equals. A string hashes as
  /// std::hash<std::string> of its bytes.
  size_t Hash() const;

  /// Rendering used by result printers and the XML tagger.
  /// NULL renders as "NULL"; strings are not quoted; doubles render as
  /// printf's "%g" (six significant digits).
  std::string ToString() const;

  /// Appends ToString() to `out` without building a temporary.
  void AppendTo(std::string* out) const;

 private:
  // Tag values. The first four equal their TypeId; an inline string keeps
  // its length in the tag's high nibble.
  static constexpr uint8_t kNull = 0;
  static constexpr uint8_t kBool = 1;
  static constexpr uint8_t kInt = 2;
  static constexpr uint8_t kDouble = 3;
  static constexpr uint8_t kHeapStr = 4;  // bytes: owned char*, uint32 size
  static constexpr uint8_t kInlineStr = 5;
  static constexpr int kLenShift = 4;

  struct Rep {
    alignas(8) char bytes[kInlineCapacity] = {};
    uint8_t tag = kNull;
  };

  template <typename T>
  static Value Word(uint8_t tag, T v) {
    Value r;
    std::memcpy(r.rep_.bytes, &v, sizeof(v));
    r.rep_.tag = tag;
    return r;
  }
  template <typename T>
  T Load(size_t offset) const {
    T v{};
    std::memcpy(&v, rep_.bytes + offset, sizeof(v));
    return v;
  }

  // Replaces the borrowed heap pointer copied from another Value with an
  // owned copy of its bytes.
  void CopyHeap();
  void FreeHeap() { delete[] Load<char*>(0); }

  Rep rep_;
};

static_assert(sizeof(Value) == 16, "Value must stay one 16-byte slot");

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
