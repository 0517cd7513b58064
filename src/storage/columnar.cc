#include "src/storage/columnar.h"

#include <algorithm>

namespace gapply {

namespace {

using value_ops::CmpOp;

const char* CmpOpSpelling(CmpOp op) {
  switch (op) {
    case CmpOp::kEq: return "=";
    case CmpOp::kNe: return "<>";
    case CmpOp::kLt: return "<";
    case CmpOp::kLe: return "<=";
    case CmpOp::kGt: return ">";
    case CmpOp::kGe: return ">=";
  }
  return "?";
}

/// Dispatches `op` to a concrete comparator once, so the per-code
/// dictionary loop the callback runs carries no per-element switch.
template <typename Fn>
void WithComparator(CmpOp op, const Fn& fn) {
  switch (op) {
    case CmpOp::kEq: fn([](auto a, auto b) { return a == b; }); return;
    case CmpOp::kNe: fn([](auto a, auto b) { return a != b; }); return;
    case CmpOp::kLt: fn([](auto a, auto b) { return a < b; }); return;
    case CmpOp::kLe: fn([](auto a, auto b) { return a <= b; }); return;
    case CmpOp::kGt: fn([](auto a, auto b) { return a > b; }); return;
    case CmpOp::kGe: fn([](auto a, auto b) { return a >= b; }); return;
  }
}

/// Zone-map refutation of one conjunct: true when no non-NULL value in
/// [min, max] can satisfy `value <op> literal`.
bool RangeRefutes(CmpOp op, const Value& min, const Value& max,
                  const Value& literal) {
  Result<int> lo = Value::Compare(min, literal);
  Result<int> hi = Value::Compare(max, literal);
  if (!lo.ok() || !hi.ok()) return false;  // incomparable: never prune
  switch (op) {
    case CmpOp::kEq: return *lo > 0 || *hi < 0;   // literal outside [min,max]
    case CmpOp::kNe: return *lo == 0 && *hi == 0; // every value == literal
    case CmpOp::kLt: return *lo >= 0;             // min >= literal
    case CmpOp::kLe: return *lo > 0;
    case CmpOp::kGt: return *hi <= 0;             // max <= literal
    case CmpOp::kGe: return *hi < 0;
  }
  return false;
}

}  // namespace

void ColumnVector::Append(const Value& v) {
  const bool null = v.is_null();
  nulls_.push_back(null ? 1 : 0);
  switch (type_) {
    case TypeId::kBool:
      ints_.push_back(null ? 0 : (v.bool_val() ? 1 : 0));
      break;
    case TypeId::kInt64:
      ints_.push_back(null ? 0 : v.int_val());
      break;
    case TypeId::kDouble:
      doubles_.push_back(null ? 0.0 : v.double_val());
      break;
    case TypeId::kString: {
      if (null) {
        codes_.push_back(0);
        break;
      }
      const std::string_view s = v.str_val();
      auto it = interned_.find(s);
      if (it == interned_.end()) {
        it = interned_.emplace(s, static_cast<uint32_t>(dict_.size())).first;
        dict_.emplace_back(s);
      }
      codes_.push_back(it->second);
      break;
    }
    case TypeId::kNull:
      // A column declared kNull only ever holds NULLs.
      break;
  }
}

int64_t ColumnVector::FindCode(std::string_view s) const {
  auto it = interned_.find(s);
  return it == interned_.end() ? -1 : static_cast<int64_t>(it->second);
}

Value ColumnVector::GetValue(size_t i) const {
  if (nulls_[i] != 0) return Value::Null();
  switch (type_) {
    case TypeId::kBool: return Value::Bool(ints_[i] != 0);
    case TypeId::kInt64: return Value::Int(ints_[i]);
    case TypeId::kDouble: return Value::Double(doubles_[i]);
    case TypeId::kString: return Value::Str(dict_[codes_[i]]);
    case TypeId::kNull: break;
  }
  return Value::Null();
}

std::string ScanPredicate::ToString(const Schema& schema) const {
  std::string lit;
  if (literal.type() == TypeId::kString) lit += '\'';
  literal.AppendTo(&lit);
  if (literal.type() == TypeId::kString) lit += '\'';
  return schema.column(static_cast<size_t>(column)).name + " " +
         CmpOpSpelling(op) + " " + lit;
}

ColumnarTable::ColumnarTable(const Schema& schema) {
  columns_.reserve(schema.num_columns());
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    columns_.emplace_back(schema.column(c).type);
  }
  zones_.resize(schema.num_columns());
}

void ColumnarTable::AppendRow(const Row& row) {
  const bool new_morsel = num_rows_ % kMorselRows == 0;
  for (size_t c = 0; c < columns_.size(); ++c) {
    ColumnVector& col = columns_[c];
    col.Append(row[c]);
    std::vector<ZoneMap>& zones = zones_[c];
    if (new_morsel) zones.emplace_back();
    ZoneMap& zone = zones.back();
    const Value& v = row[c];
    if (col.type() == TypeId::kInt64) {
      const std::vector<int64_t>& ints = col.ints();
      zone.sorted = !v.is_null() &&
                    (new_morsel || (zone.sorted && ints[num_rows_ - 1] <=
                                                       ints[num_rows_]));
    }
    if (v.is_null()) {
      ++zone.null_count;
      continue;
    }
    // Within one column all non-NULL values share a comparable type (the
    // Table widens ints into double columns on append), so Compare cannot
    // fail here.
    if (zone.min.is_null()) {
      zone.min = v;
      zone.max = v;
      continue;
    }
    Result<int> lo = Value::Compare(v, zone.min);
    if (lo.ok() && *lo < 0) zone.min = v;
    Result<int> hi = Value::Compare(v, zone.max);
    if (hi.ok() && *hi > 0) zone.max = v;
  }
  ++num_rows_;
}

bool ColumnarTable::CanPruneMorsel(
    size_t m, const std::vector<ScanPredicate>& preds) const {
  for (const ScanPredicate& p : preds) {
    const ZoneMap& zone = zones_[static_cast<size_t>(p.column)][m];
    // All-NULL morsel for a referenced column: every row fails the conjunct
    // (NULL comparisons are NULL, and WHERE rejects NULL).
    if (zone.min.is_null()) return true;
    if (RangeRefutes(p.op, zone.min, zone.max, p.literal)) return true;
    // A string the dictionary never interned equals no row's value, even
    // one that sorts inside [min, max].
    const ColumnVector& col = columns_[static_cast<size_t>(p.column)];
    if (p.op == CmpOp::kEq && col.type() == TypeId::kString &&
        p.literal.type() == TypeId::kString &&
        col.FindCode(p.literal.str_val()) < 0) {
      return true;
    }
  }
  return false;
}

void ColumnarTable::NarrowMorsel(size_t m,
                                 const std::vector<ScanPredicate>& preds,
                                 size_t* begin, size_t* end) const {
  for (const ScanPredicate& p : preds) {
    if (*begin >= *end) return;
    const size_t c = static_cast<size_t>(p.column);
    if (p.op == CmpOp::kNe || !zones_[c][m].sorted ||
        p.literal.type() != TypeId::kInt64) {
      continue;
    }
    const int64_t lit = p.literal.int_val();
    const int64_t* ints = columns_[c].ints().data();
    const int64_t* lo = ints + *begin;
    const int64_t* hi = ints + *end;
    const auto row = [ints](const int64_t* it) {
      return static_cast<size_t>(it - ints);
    };
    switch (p.op) {
      case CmpOp::kEq:
        *end = row(std::upper_bound(lo, hi, lit));
        *begin = row(std::lower_bound(lo, hi, lit));
        break;
      case CmpOp::kLt: *end = row(std::lower_bound(lo, hi, lit)); break;
      case CmpOp::kLe: *end = row(std::upper_bound(lo, hi, lit)); break;
      case CmpOp::kGt: *begin = row(std::upper_bound(lo, hi, lit)); break;
      case CmpOp::kGe: *begin = row(std::lower_bound(lo, hi, lit)); break;
      case CmpOp::kNe: break;
    }
  }
}

bool ColumnarTable::ColumnSorted(size_t c) const {
  const std::vector<ZoneMap>& zones = zones_[c];
  for (size_t m = 0; m < zones.size(); ++m) {
    if (!zones[m].sorted) return false;
    if (m > 0 && zones[m - 1].max.int_val() > zones[m].min.int_val()) {
      return false;
    }
  }
  return true;
}

std::vector<CompiledPredicate> ColumnarTable::CompilePredicates(
    const std::vector<ScanPredicate>& preds) const {
  std::vector<CompiledPredicate> out;
  out.reserve(preds.size());
  for (const ScanPredicate& p : preds) {
    CompiledPredicate c;
    c.op = p.op;
    c.column = p.column;
    const ColumnVector& col = columns_[static_cast<size_t>(p.column)];
    switch (col.type()) {
      case TypeId::kBool:
        c.kind = CompiledPredicate::Kind::kInt;
        c.i64 = p.literal.bool_val() ? 1 : 0;
        break;
      case TypeId::kInt64:
        if (p.literal.type() == TypeId::kInt64) {
          c.kind = CompiledPredicate::Kind::kInt;
          c.i64 = p.literal.int_val();
        } else {
          // Mirror Value::Compare: mixed numeric comparison widens both
          // sides to double.
          c.kind = CompiledPredicate::Kind::kIntAsDouble;
          c.f64 = p.literal.double_val();
        }
        break;
      case TypeId::kDouble:
        c.kind = CompiledPredicate::Kind::kDouble;
        c.f64 = p.literal.AsDouble();
        break;
      case TypeId::kString: {
        c.kind = CompiledPredicate::Kind::kString;
        c.dict_match.resize(col.dict_size());
        WithComparator(p.op, [&](auto cmp) {
          for (size_t j = 0; j < col.dict_size(); ++j) {
            const int rel = col.dict()[j].compare(p.literal.str_val());
            c.dict_match[j] = cmp(rel, 0) ? 1 : 0;
          }
        });
        break;
      }
      case TypeId::kNull:
        // Unreachable through lowering (a kNull column admits no type-sound
        // comparison literal); compile to "nothing matches".
        c.kind = CompiledPredicate::Kind::kString;
        break;
    }
    out.push_back(std::move(c));
  }
  return out;
}

void ColumnarTable::MaterializeRow(size_t i, Row* row) const {
  row->clear();
  row->reserve(columns_.size());
  for (const ColumnVector& col : columns_) {
    row->push_back(col.GetValue(i));
  }
}

}  // namespace gapply
