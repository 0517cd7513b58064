#include "src/common/value.h"

#include <charconv>
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>

namespace gapply {

const char* TypeName(TypeId type) {
  switch (type) {
    case TypeId::kNull:
      return "null";
    case TypeId::kBool:
      return "bool";
    case TypeId::kInt64:
      return "int64";
    case TypeId::kDouble:
      return "double";
    case TypeId::kString:
      return "string";
  }
  return "unknown";
}

bool IsNumeric(TypeId type) {
  return type == TypeId::kInt64 || type == TypeId::kDouble;
}

Value Value::Str(std::string_view v) {
  Value r;
  if (v.size() <= kInlineCapacity) {
    if (!v.empty()) std::memcpy(r.rep_.bytes, v.data(), v.size());
    r.rep_.tag = static_cast<uint8_t>(kInlineStr | (v.size() << kLenShift));
    return r;
  }
  if (v.size() > std::numeric_limits<uint32_t>::max()) {
    throw std::length_error("Value::Str: string longer than 4 GiB");
  }
  char* heap = new char[v.size()];
  std::memcpy(heap, v.data(), v.size());
  const uint32_t size = static_cast<uint32_t>(v.size());
  std::memcpy(r.rep_.bytes, &heap, sizeof(heap));
  std::memcpy(r.rep_.bytes + sizeof(heap), &size, sizeof(size));
  r.rep_.tag = kHeapStr;
  return r;
}

void Value::CopyHeap() {
  const std::string_view s = str_val();
  char* heap = new char[s.size()];
  std::memcpy(heap, s.data(), s.size());
  std::memcpy(rep_.bytes, &heap, sizeof(heap));
}

double Value::AsDouble() const {
  switch (type()) {
    case TypeId::kBool:
      return bool_val() ? 1.0 : 0.0;
    case TypeId::kInt64:
      return static_cast<double>(int_val());
    case TypeId::kDouble:
      return double_val();
    default:
      return 0.0;
  }
}

Result<int> Value::Compare(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) {
    return Status::TypeError("Compare requires non-NULL operands");
  }
  const TypeId ta = a.type();
  const TypeId tb = b.type();
  if (IsNumeric(ta) && IsNumeric(tb)) {
    if (ta == TypeId::kInt64 && tb == TypeId::kInt64) {
      const int64_t x = a.int_val();
      const int64_t y = b.int_val();
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    const double x = a.AsDouble();
    const double y = b.AsDouble();
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  if (ta != tb) {
    return Status::TypeError(std::string("cannot compare ") + TypeName(ta) +
                             " with " + TypeName(tb));
  }
  switch (ta) {
    case TypeId::kBool: {
      const int x = a.bool_val() ? 1 : 0;
      const int y = b.bool_val() ? 1 : 0;
      return x - y;
    }
    case TypeId::kString: {
      const int c = a.str_val().compare(b.str_val());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    default:
      return Status::TypeError("unsupported comparison");
  }
}

bool Value::Equals(const Value& other) const {
  if (is_null() || other.is_null()) return is_null() && other.is_null();
  const TypeId ta = type();
  const TypeId tb = other.type();
  if (IsNumeric(ta) && IsNumeric(tb)) {
    if (ta == TypeId::kInt64 && tb == TypeId::kInt64) {
      return int_val() == other.int_val();
    }
    return AsDouble() == other.AsDouble();
  }
  if (ta != tb) return false;
  if (ta == TypeId::kBool) return bool_val() == other.bool_val();
  // Canonical strings: inline and out-of-line never hold equal bytes, and
  // an inline string's unused payload bytes are zero.
  if (rep_.tag != other.rep_.tag) return false;
  if (rep_.tag != kHeapStr) {
    return std::memcmp(rep_.bytes, other.rep_.bytes, kInlineCapacity) == 0;
  }
  return str_val() == other.str_val();
}

size_t Value::Hash() const {
  switch (type()) {
    case TypeId::kNull:
      return 0x9e3779b97f4a7c15ull;
    case TypeId::kBool:
      return std::hash<bool>()(bool_val());
    case TypeId::kInt64:
      // Hash integers through double so that 2 and 2.0 collide, matching
      // Equals' numeric cross-type equality.
      return std::hash<double>()(static_cast<double>(int_val()));
    case TypeId::kDouble:
      return std::hash<double>()(double_val());
    case TypeId::kString:
      return std::hash<std::string_view>()(str_val());
  }
  return 0;
}

std::string Value::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

void Value::AppendTo(std::string* out) const {
  char buf[32];
  std::to_chars_result r{};
  switch (type()) {
    case TypeId::kNull:
      out->append("NULL");
      return;
    case TypeId::kBool:
      out->append(bool_val() ? "true" : "false");
      return;
    case TypeId::kInt64:
      r = std::to_chars(buf, buf + sizeof(buf), int_val());
      break;
    case TypeId::kDouble:
      // Same text as `std::ostream << double` at its default precision.
      r = std::to_chars(buf, buf + sizeof(buf), double_val(),
                        std::chars_format::general, 6);
      break;
    case TypeId::kString:
      out->append(str_val());
      return;
  }
  out->append(buf, r.ptr);
}

size_t RowHash::operator()(const Row& row) const {
  size_t h = 0x345678u;
  for (const Value& v : row) {
    h = HashCombine(h, v.Hash());
  }
  return h;
}

size_t HashRowColumns(const Row& row, const std::vector<int>& cols) {
  size_t h = 0x345678u;
  for (int c : cols) {
    h = HashCombine(h, row[static_cast<size_t>(c)].Hash());
  }
  return h;
}

bool RowEq::operator()(const Row& a, const Row& b) const {
  return RowsEqual(a, b);
}

bool RowsEqual(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!a[i].Equals(b[i])) return false;
  }
  return true;
}

std::string RowToString(const Row& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    out += row[i].ToString();
  }
  out += ")";
  return out;
}

namespace value_ops {

namespace {

// Shared numeric binary-op plumbing: NULL propagation, numeric type checks,
// int64 fast path vs double promotion.
Result<Value> NumericBinary(const char* op_name, const Value& a,
                            const Value& b,
                            int64_t (*int_fn)(int64_t, int64_t),
                            double (*dbl_fn)(double, double)) {
  if (a.is_null() || b.is_null()) return Value::Null();
  if (!IsNumeric(a.type()) || !IsNumeric(b.type())) {
    return Status::TypeError(std::string(op_name) + " requires numeric " +
                             "operands, got " + TypeName(a.type()) + " and " +
                             TypeName(b.type()));
  }
  if (a.type() == TypeId::kInt64 && b.type() == TypeId::kInt64) {
    return Value::Int(int_fn(a.int_val(), b.int_val()));
  }
  return Value::Double(dbl_fn(a.AsDouble(), b.AsDouble()));
}

}  // namespace

Result<Value> Add(const Value& a, const Value& b) {
  return NumericBinary(
      "add", a, b, [](int64_t x, int64_t y) { return x + y; },
      [](double x, double y) { return x + y; });
}

Result<Value> Subtract(const Value& a, const Value& b) {
  return NumericBinary(
      "subtract", a, b, [](int64_t x, int64_t y) { return x - y; },
      [](double x, double y) { return x - y; });
}

Result<Value> Multiply(const Value& a, const Value& b) {
  return NumericBinary(
      "multiply", a, b, [](int64_t x, int64_t y) { return x * y; },
      [](double x, double y) { return x * y; });
}

Result<Value> Divide(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  if (!IsNumeric(a.type()) || !IsNumeric(b.type())) {
    return Status::TypeError("divide requires numeric operands");
  }
  if (a.type() == TypeId::kInt64 && b.type() == TypeId::kInt64) {
    if (b.int_val() == 0) return Status::InvalidArgument("division by zero");
    return Value::Int(a.int_val() / b.int_val());
  }
  if (b.AsDouble() == 0.0) return Status::InvalidArgument("division by zero");
  return Value::Double(a.AsDouble() / b.AsDouble());
}

Result<Value> Modulo(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  if (a.type() != TypeId::kInt64 || b.type() != TypeId::kInt64) {
    return Status::TypeError("modulo requires int64 operands");
  }
  if (b.int_val() == 0) return Status::InvalidArgument("modulo by zero");
  return Value::Int(a.int_val() % b.int_val());
}

Result<Value> Negate(const Value& a) {
  if (a.is_null()) return Value::Null();
  switch (a.type()) {
    case TypeId::kInt64:
      return Value::Int(-a.int_val());
    case TypeId::kDouble:
      return Value::Double(-a.double_val());
    default:
      return Status::TypeError("negate requires a numeric operand");
  }
}

Result<Value> CompareOp(CmpOp op, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  ASSIGN_OR_RETURN(int c, Value::Compare(a, b));
  switch (op) {
    case CmpOp::kEq:
      return Value::Bool(c == 0);
    case CmpOp::kNe:
      return Value::Bool(c != 0);
    case CmpOp::kLt:
      return Value::Bool(c < 0);
    case CmpOp::kLe:
      return Value::Bool(c <= 0);
    case CmpOp::kGt:
      return Value::Bool(c > 0);
    case CmpOp::kGe:
      return Value::Bool(c >= 0);
  }
  return Status::Internal("bad CmpOp");
}

namespace {

// Maps a Value to Kleene logic: 0 = false, 1 = true, 2 = unknown (NULL).
Result<int> ToKleene(const Value& v) {
  if (v.is_null()) return 2;
  if (v.type() != TypeId::kBool) {
    return Status::TypeError(std::string("boolean operator applied to ") +
                             TypeName(v.type()));
  }
  return v.bool_val() ? 1 : 0;
}

Value FromKleene(int k) {
  if (k == 2) return Value::Null();
  return Value::Bool(k == 1);
}

}  // namespace

Result<Value> And(const Value& a, const Value& b) {
  ASSIGN_OR_RETURN(int x, ToKleene(a));
  ASSIGN_OR_RETURN(int y, ToKleene(b));
  if (x == 0 || y == 0) return Value::Bool(false);
  if (x == 1 && y == 1) return Value::Bool(true);
  return Value::Null();
}

Result<Value> Or(const Value& a, const Value& b) {
  ASSIGN_OR_RETURN(int x, ToKleene(a));
  ASSIGN_OR_RETURN(int y, ToKleene(b));
  if (x == 1 || y == 1) return Value::Bool(true);
  if (x == 0 && y == 0) return Value::Bool(false);
  return Value::Null();
}

Result<Value> Not(const Value& a) {
  ASSIGN_OR_RETURN(int x, ToKleene(a));
  if (x == 2) return Value::Null();
  return FromKleene(x == 1 ? 0 : 1);
}

}  // namespace value_ops

}  // namespace gapply
