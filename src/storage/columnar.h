#ifndef GAPPLY_STORAGE_COLUMNAR_H_
#define GAPPLY_STORAGE_COLUMNAR_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/common/value.h"
#include "src/storage/schema.h"

namespace gapply {

/// \brief One column of a table as contiguous typed storage.
///
/// The dense representation per type (DESIGN.md §13):
///  - int64 and bool columns: `ints()` (bools stored as 0/1);
///  - double columns: `doubles()`;
///  - string columns: dictionary-encoded — `codes()` holds one uint32 code
///    per row indexing into `dict()`, the table-lifetime dictionary of
///    distinct strings in first-appearance order. Codes of NULL rows are 0
///    and meaningless.
/// NULLs are tracked in a parallel byte-per-row marker array (`nulls()`,
/// 1 = NULL); the dense slot of a NULL row holds an unspecified value and
/// must not be interpreted.
///
/// Appends must already be schema-checked (the owning Table validates and
/// widens before handing the value down).
class ColumnVector {
 public:
  explicit ColumnVector(TypeId type) : type_(type) {}

  TypeId type() const { return type_; }
  size_t size() const { return nulls_.size(); }

  void Append(const Value& v);

  bool IsNull(size_t i) const { return nulls_[i] != 0; }
  const std::vector<uint8_t>& nulls() const { return nulls_; }
  const std::vector<int64_t>& ints() const { return ints_; }
  const std::vector<double>& doubles() const { return doubles_; }
  const std::vector<uint32_t>& codes() const { return codes_; }
  const std::vector<std::string>& dict() const { return dict_; }

  /// Number of distinct non-NULL strings ever appended — the exact NDV of a
  /// string column (values are never deleted), which ANALYZE reads off
  /// instead of rescanning.
  size_t dict_size() const { return dict_.size(); }

  /// Dictionary code of `s`, or a negative value when `s` never appeared
  /// (no row of this column can equal it).
  int64_t FindCode(std::string_view s) const;

  /// Rematerializes row `i` as a Value (NULL-aware; strings copy out of the
  /// dictionary).
  Value GetValue(size_t i) const;

 private:
  TypeId type_;
  std::vector<uint8_t> nulls_;
  std::vector<int64_t> ints_;      // int64 + bool columns
  std::vector<double> doubles_;    // double columns
  std::vector<uint32_t> codes_;    // string columns: index into dict_
  // Transparent hash so a string_view probes interned_ without building a
  // std::string.
  struct StringViewHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>()(s);
    }
  };

  std::vector<std::string> dict_;
  std::unordered_map<std::string, uint32_t, StringViewHash, std::equal_to<>>
      interned_;
};

/// Per-column, per-morsel statistics maintained incrementally on append.
/// `min`/`max` range over the morsel's non-NULL values and are NULL while
/// the morsel has none. Sound for pruning WHERE conjuncts because a NULL
/// operand makes any comparison NULL, which WHERE rejects — so NULL rows
/// can never satisfy a pushed predicate and need no min/max coverage.
///
/// `sorted` holds, for an int64 column only, while every row of the morsel
/// so far is non-NULL and no smaller than the row before it. It lets a scan
/// narrow an int64 conjunct to a row range by binary search
/// (ColumnarTable::NarrowMorsel). One NULL or one descent clears it for
/// good: later rows of the morsel cannot restore the order of earlier ones.
struct ZoneMap {
  Value min;
  Value max;
  uint64_t null_count = 0;
  bool sorted = false;
};

/// A pushed-down scan conjunct `column <op> literal`. The literal is
/// non-NULL and type-compatible with the column under Value::Compare
/// (numeric with numeric, string with string, bool with bool) — lowering
/// only extracts conjuncts meeting that bar, so evaluating one can never
/// raise a type error.
struct ScanPredicate {
  int column = 0;
  value_ops::CmpOp op = value_ops::CmpOp::kEq;
  Value literal;

  /// SQL-ish rendering against `schema`, e.g. "v > 250".
  std::string ToString(const Schema& schema) const;
};

/// \brief A ScanPredicate lowered onto one column's dense representation,
/// built once per scan Open (CompilePredicates) so the scan program
/// (ExprProgram::CompileScanPredicates) touches no Value machinery.
///
/// String predicates are resolved against the dictionary up front: per
/// dictionary code, one pass/fail byte — the row loop then tests
/// `dict_match[code]` instead of comparing strings.
struct CompiledPredicate {
  enum class Kind {
    kInt,          // int64/bool column, exact integer comparison vs i64
    kIntAsDouble,  // int64 column vs a double literal (Value::Compare widens)
    kDouble,       // double column vs numeric literal, as double
    kString,       // string column via dict_match
  };
  Kind kind = Kind::kInt;
  value_ops::CmpOp op = value_ops::CmpOp::kEq;
  int column = 0;
  int64_t i64 = 0;
  double f64 = 0;
  std::vector<uint8_t> dict_match;
};

/// \brief Columnar view of a table: one ColumnVector per schema column plus
/// zone maps over fixed-size morsels of kMorselRows rows.
///
/// Morsel m covers rows [m * kMorselRows, (m+1) * kMorselRows); the last
/// morsel may be partial. Zone maps are built incrementally as rows arrive,
/// so the view is always consistent with the row count — there is no
/// separate "finalize" step.
class ColumnarTable {
 public:
  static constexpr size_t kMorselRows = 4096;

  explicit ColumnarTable(const Schema& schema);

  /// Appends one already-validated row (called under Table::Append).
  void AppendRow(const Row& row);

  size_t num_rows() const { return num_rows_; }
  size_t num_morsels() const {
    return (num_rows_ + kMorselRows - 1) / kMorselRows;
  }
  const ColumnVector& column(size_t c) const { return columns_[c]; }

  /// Zone map of column `c` over morsel `m`.
  const ZoneMap& zone(size_t c, size_t m) const {
    return zones_[c][m];
  }

  /// True when the zone maps prove no row of morsel `m` can satisfy every
  /// predicate in `preds` — i.e. some conjunct is statically false over the
  /// morsel's value range (or the referenced column is entirely NULL there),
  /// or is a string `=` whose literal the column's dictionary lacks. A
  /// morsel that cannot be pruned may still contain zero matching rows.
  bool CanPruneMorsel(size_t m, const std::vector<ScanPredicate>& preds) const;

  /// Narrows the row range [*begin, *end), which must lie inside morsel
  /// `m`, to the rows that can satisfy every int64-column-vs-int64-literal
  /// conjunct of `preds` over a `sorted` zone: `=` keeps [lb, ub), `<` and
  /// `<=` keep a prefix, `>` and `>=` keep a suffix, where lb/ub are the
  /// lower/upper bound of the literal. `<>`, other conjunct kinds and
  /// unsorted (or NULL-bearing) morsels leave the range as it is. Rows cut
  /// off fail their conjunct; the rows kept still need every conjunct
  /// evaluated. The result may be empty (*begin == *end).
  void NarrowMorsel(size_t m, const std::vector<ScanPredicate>& preds,
                    size_t* begin, size_t* end) const;

  /// True when int64 column `c` is non-decreasing, with no NULL, across the
  /// whole table: every zone of it is `sorted` and no morsel's `max`
  /// exceeds the next morsel's `min`. O(morsels). Vacuously true for an
  /// empty table; false for a non-empty column of any other type.
  bool ColumnSorted(size_t c) const;

  /// Lowers `preds` onto this table's dense representation (dictionary
  /// lookups resolved, literals widened). Call once per scan Open; the
  /// compiled form stays valid as long as the table is not appended to.
  std::vector<CompiledPredicate> CompilePredicates(
      const std::vector<ScanPredicate>& preds) const;

  /// Rematerializes row `i` into `*row` (cleared first) from the dense
  /// arrays.
  void MaterializeRow(size_t i, Row* row) const;

 private:
  size_t num_rows_ = 0;
  std::vector<ColumnVector> columns_;
  std::vector<std::vector<ZoneMap>> zones_;  // [column][morsel]
};

}  // namespace gapply

#endif  // GAPPLY_STORAGE_COLUMNAR_H_
