#ifndef GAPPLY_EXEC_SCAN_OPS_H_
#define GAPPLY_EXEC_SCAN_OPS_H_

#include <string>
#include <vector>

#include "src/exec/physical_op.h"
#include "src/expr/bytecode.h"
#include "src/storage/table.h"

namespace gapply {

/// \brief Full scan over a base table. The table must outlive the operator.
///
/// Two read paths over the same rows (selected per session via
/// `SET storage`, see DESIGN.md §13):
///  - row store: range-copies out of `Table::rows()`, the seed behavior.
///    Taken whenever no predicates are pushed — with nothing to evaluate
///    or prune, the dense arrays buy nothing, so predicate-free scans stay
///    on the row store in both storage modes and never force the table's
///    lazy columnar mirror to materialize;
///  - columnar: engaged by pushdown (`PushPredicates`, filled in by
///    lowering from the Filter above the scan when the session storage
///    mode is columnar). The scan then (a) skips whole storage morsels
///    whose zone maps refute a conjunct (booked in the `morsels_pruned` /
///    `morsels_scanned` counters), (b) narrows each surviving morsel by
///    binary search on every int64 `=`/`<`/`<=`/`>`/`>=` conjunct whose
///    column is sorted there (ZoneMap::sorted), and (c) evaluates all the
///    conjuncts over the dense arrays of the rows left, emitting only
///    matching rows. The rows handed to the program are booked in
///    `scan_rows_evaluated`.
/// Both paths produce bit-for-bit the same stream for the same (possibly
/// empty) predicate set.
///
/// Morsel mode (used by ExchangeOp): after `EnableMorselMode`, Open starts
/// with an *empty* row range, and the scan emits only rows of the range set
/// by the most recent `SetMorsel`. End-of-stream then means "current morsel
/// drained", and the driver may re-arm the scan with another SetMorsel and
/// pull the pipeline above it again without re-opening it — the pipeline
/// contract relaxation the exchange/morsel design relies on (DESIGN.md §9).
class TableScanOp : public PhysOp {
 public:
  explicit TableScanOp(const Table* table, std::string alias = "");

  Status OpenImpl(ExecContext* ctx) override;
  Result<bool> NextBatchImpl(ExecContext* ctx, RowBatch* out) override;
  Status CloseImpl(ExecContext* ctx) override;
  std::string DebugName() const override;
  PhysOpPtr Clone() const override;

  const Table* table() const { return table_; }
  size_t num_rows() const { return table_->num_rows(); }

  /// Conjuncts this scan evaluates itself. The read path follows them
  /// alone: pushed predicates take the columnar path (the row store cannot
  /// evaluate them), an empty set takes the row store; lowering pushes
  /// them only when the session storage mode is columnar. Compiled
  /// at Open into a scan program over the dense representation
  /// (ExprProgram::CompileScanPredicates). Accumulates — an unoptimized
  /// plan lowers stacked Selects one at a time, and each absorbed Filter
  /// must add its conjuncts to the ones already pushed, never replace them.
  void PushPredicates(std::vector<ScanPredicate> preds) {
    for (ScanPredicate& p : preds) preds_.push_back(std::move(p));
  }
  const std::vector<ScanPredicate>& pushed_predicates() const {
    return preds_;
  }

  void EnableMorselMode() { morsel_mode_ = true; }
  bool morsel_mode() const { return morsel_mode_; }

  /// Restricts the scan to rows [begin, end) of the table (each clamped to
  /// the table size) and rewinds its cursor to `begin`. An inverted range
  /// (`begin > end`) is rejected with InvalidArgument and leaves the scan's
  /// range unchanged. Only legal in morsel mode, between Open and Close.
  Status SetMorsel(size_t begin, size_t end);

 private:
  /// Advances `pos_` past consecutive zone-map-pruned storage morsels and
  /// narrowed-away rows, and establishes `chunk_end_` for the chunk `pos_`
  /// lands in, booking the pruned/scanned counters once per chunk visit.
  /// A scanned chunk is narrowed by ColumnarTable::NarrowMorsel to the
  /// rows a sorted conjunct can keep. On return either `pos_ >= end` or
  /// [pos_, chunk_end_) is a non-empty run of rows the program must
  /// evaluate.
  void SkipPrunedChunks(size_t end);

  const Table* table_;
  std::string alias_;
  std::vector<ScanPredicate> preds_;
  std::unique_ptr<ExprProgram> scan_program_;  // built at Open from preds_
  std::vector<uint32_t> selection_;            // scratch for FilterRange
  size_t pos_ = 0;
  size_t end_ = 0;
  /// End of the rows of the current chunk the scan program must evaluate:
  /// the chunk's end, or less after NarrowMorsel. `pos_ >= chunk_end_`
  /// means the cursor has left those rows. Reset by Open/SetMorsel.
  size_t chunk_end_ = 0;
  /// End of the storage-morsel chunk the cursor currently sits in (the
  /// intersection of one storage morsel and the scan range); rows in
  /// [chunk_end_, morsel_end_) were narrowed away and are skipped, and
  /// `pos_ >= morsel_end_` means the next chunk still needs its zone-map
  /// check.
  size_t morsel_end_ = 0;
  bool morsel_mode_ = false;
};

/// \brief Scan over the relation-valued variable bound by an enclosing
/// GApply — the paper's "leaf scan operator [that] receives the
/// relation-valued parameter ... and reads from it" (§3).
class GroupScanOp : public PhysOp {
 public:
  /// `schema` is the group's schema as known at plan time (GApply's outer
  /// schema, possibly pruned by the projection rule).
  GroupScanOp(std::string var_name, Schema schema);

  Status OpenImpl(ExecContext* ctx) override;
  Result<bool> NextBatchImpl(ExecContext* ctx, RowBatch* out) override;
  Status CloseImpl(ExecContext* ctx) override;
  std::string DebugName() const override;
  PhysOpPtr Clone() const override;

  const std::string& var_name() const { return var_name_; }

 private:
  std::string var_name_;
  const Row* rows_ = nullptr;
  size_t pos_ = 0;
  size_t end_ = 0;
  bool open_ = false;
};

/// In-memory literal relation (tests and VALUES-style plans).
class ValuesOp : public PhysOp {
 public:
  ValuesOp(Schema schema, std::vector<Row> rows);

  Status OpenImpl(ExecContext* ctx) override;
  Result<bool> NextBatchImpl(ExecContext* ctx, RowBatch* out) override;
  Status CloseImpl(ExecContext* ctx) override;
  std::string DebugName() const override;
  PhysOpPtr Clone() const override;

 private:
  std::vector<Row> rows_;
  size_t pos_ = 0;
};

}  // namespace gapply

#endif  // GAPPLY_EXEC_SCAN_OPS_H_
