#ifndef GAPPLY_EXEC_LIFTED_OPS_H_
#define GAPPLY_EXEC_LIFTED_OPS_H_

#include <memory>
#include <string>
#include <vector>

#include "src/exec/physical_op.h"
#include "src/expr/aggregate.h"

namespace gapply {

/// \brief Loop-lifted per-group operators (DESIGN.md §17).
///
/// A lifted per-group query runs *once* over a range of groups instead of
/// once per group. Every row it carries has one extra trailing int64
/// column, the group id (gid) it belongs to, and every stream is
/// gid-clustered in ascending gid order — within one gid, rows come in
/// exactly the order the per-group execution of that group would produce
/// them. FilterOp and ProjectOp are lifted as they are (a Project gains a
/// trailing gid reference); the operators below replace the ones whose
/// per-group semantics depend on group boundaries.
///
/// The gid range comes from the segmented GroupBinding a GApply pushes for
/// its variable (ExecContext::GroupBinding): operators that must emit a row
/// for every group — including groups whose input was filtered away —
/// enumerate `[first_gid, end_gid)` from it.
///
/// Names keep the per-group operator's prefix ("GroupScan(segmented ...)")
/// so per-operator profiles attribute lifted work to the same kind.

/// The gid of a lifted row: its trailing column.
inline size_t GidOf(const Row& row) {
  return static_cast<size_t>(row.back().int_val());
}

/// Walks the rows of a segmented binding in buffer order with their gids.
class SegmentCursor {
 public:
  /// Positions at the first row of `var`'s segmented binding, after
  /// checking it binds `group_arity` columns.
  Status Open(ExecContext* ctx, const std::string& var, size_t group_arity);
  void Close() { binding_ = GroupBinding(); }
  bool done() const { return pos_ >= binding_.end(); }
  /// The current row (requires !done()) and its gid.
  const Row& row() const { return binding_.rows[pos_]; }
  size_t gid() const { return gid_; }
  void Advance() {
    // Groups are never empty, so a row boundary crosses at most one gid.
    if (++pos_ < binding_.end() && binding_.offsets[gid_ + 1] <= pos_) ++gid_;
  }
  const GroupBinding& binding() const { return binding_; }

 private:
  GroupBinding binding_;
  size_t pos_ = 0;
  size_t gid_ = 0;
};

/// Scan of the gid-clustered partition buffer over the bound gid range:
/// per buffer row, `columns` then the row's gid. Each entry of `columns`
/// is a group column, or -1 for NULL: lowering copies only the columns
/// some operator above reads.
class SegmentScanOp : public PhysOp {
 public:
  /// `schema` names `columns` (without gid); `group_arity` is the arity of
  /// the group variable's binding.
  SegmentScanOp(std::string var_name, size_t group_arity,
                std::vector<int> columns, const Schema& schema);

  Status OpenImpl(ExecContext* ctx) override;
  Result<bool> NextBatchImpl(ExecContext* ctx, RowBatch* out) override;
  Status CloseImpl(ExecContext* ctx) override;
  std::string DebugName() const override;
  PhysOpPtr Clone() const override;

 private:
  std::string var_name_;
  size_t group_arity_;
  std::vector<int> columns_;
  SegmentCursor cursor_;
};

/// ScalarAgg per gid: exactly one output row (aggregates, then gid) for
/// *every* gid of the bound range, also those with no input rows (COUNT
/// 0, others NULL) — the lifted form of ScalarAgg's "never empty on
/// empty". With a null `child` it aggregates the group rows themselves,
/// straight from the partition buffer.
class SegmentAggOp : public PhysOp {
 public:
  SegmentAggOp(PhysOpPtr child, std::vector<AggregateDesc> aggs,
               std::string var_name);

  Status OpenImpl(ExecContext* ctx) override;
  Result<bool> NextBatchImpl(ExecContext* ctx, RowBatch* out) override;
  Status CloseImpl(ExecContext* ctx) override;
  std::string DebugName() const override;
  PhysOpPtr Clone() const override;
  std::vector<const PhysOp*> children() const override;

 private:
  PhysOpPtr child_;  // nullptr: aggregate the bound group rows directly
  std::vector<AggregateDesc> aggs_;
  std::string var_name_;
  GroupBinding binding_;
  ChildCursor cursor_;
  size_t next_gid_ = 0;
};

/// Exists / NOT EXISTS per gid: emits `[gid]` for each gid of the bound
/// range whose input is nonempty (empty, when negated) — a gid semi/anti
/// match. Its only column is the gid, mirroring Exists' zero columns.
class SegmentExistsOp : public PhysOp {
 public:
  SegmentExistsOp(PhysOpPtr child, bool negated, std::string var_name);

  Status OpenImpl(ExecContext* ctx) override;
  Result<bool> NextBatchImpl(ExecContext* ctx, RowBatch* out) override;
  Status CloseImpl(ExecContext* ctx) override;
  std::string DebugName() const override;
  PhysOpPtr Clone() const override;
  std::vector<const PhysOp*> children() const override {
    return {child_.get()};
  }

 private:
  PhysOpPtr child_;
  bool negated_;
  std::string var_name_;
  ChildCursor cursor_;
  size_t next_gid_ = 0;
  size_t end_gid_ = 0;
};

/// The lifted Apply with an uncorrelated ("cached") inner: a merge join on
/// gid. Each outer row of gid g is followed by every inner row of g, in
/// inner order — what the per-group Apply replays from its cached inner.
/// The (outer row, inner position) cursor survives across NextBatch calls.
/// Output: outer columns (without gid), then inner columns (with gid).
class GidApplyOp : public PhysOp {
 public:
  GidApplyOp(PhysOpPtr outer, PhysOpPtr inner);
  /// Outer side read straight from the partition buffer: the group rows
  /// of `var_name`, as the SegmentScanOp with `outer_columns` would
  /// produce them (`outer_schema` names those columns).
  GidApplyOp(std::string var_name, size_t group_arity,
             std::vector<int> outer_columns,
             const Schema& outer_schema, PhysOpPtr inner);

  Status OpenImpl(ExecContext* ctx) override;
  Result<bool> NextBatchImpl(ExecContext* ctx, RowBatch* out) override;
  Status CloseImpl(ExecContext* ctx) override;
  std::string DebugName() const override;
  PhysOpPtr Clone() const override;
  std::vector<const PhysOp*> children() const override;

 private:
  /// Loads inner_rows_ with the inner rows of `gid`, pulling the inner at
  /// `capacity`.
  Status LoadInner(ExecContext* ctx, size_t gid, size_t capacity);

  PhysOpPtr outer_;  // nullptr: outer rows come from the buffer
  PhysOpPtr inner_;
  // Buffer-read outer side.
  std::string var_name_;
  size_t group_arity_ = 0;
  std::vector<int> outer_columns_;
  SegmentCursor segments_;
  ChildCursor outer_rows_;
  ChildCursor inner_cursor_;
  std::vector<Row> inner_rows_;
  size_t inner_gid_ = 0;
  bool inner_loaded_ = false;
  size_t inner_pos_ = 0;  // next inner row to pair with the current outer
};

/// The lifted UnionAll: per gid, branch 0's rows, then branch 1's, ... —
/// the order the per-group UnionAll produces within each group.
class GidUnionAllOp : public PhysOp {
 public:
  static Result<PhysOpPtr> Make(std::vector<PhysOpPtr> branches);

  Status OpenImpl(ExecContext* ctx) override;
  Result<bool> NextBatchImpl(ExecContext* ctx, RowBatch* out) override;
  Status CloseImpl(ExecContext* ctx) override;
  std::string DebugName() const override;
  PhysOpPtr Clone() const override;
  std::vector<const PhysOp*> children() const override;

 private:
  GidUnionAllOp(Schema schema, std::vector<PhysOpPtr> branches);

  std::vector<PhysOpPtr> branches_;
  std::vector<ChildCursor> cursors_;
  size_t gid_ = 0;
  size_t branch_ = 0;  // == branches_.size(): pick the next gid
};

}  // namespace gapply

#endif  // GAPPLY_EXEC_LIFTED_OPS_H_
