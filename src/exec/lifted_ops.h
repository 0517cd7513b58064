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

/// Shared base: lifted operators are batch-native; the row entry point
/// drains an internal batch.
class LiftedOp : public PhysOp {
 public:
  using PhysOp::PhysOp;

 protected:
  Status OpenImpl(ExecContext* ctx) final;
  Result<bool> NextImpl(ExecContext* ctx, Row* out) final;
  virtual Status OpenLifted(ExecContext* ctx) = 0;

 private:
  RowBatch row_buffer_;
  size_t row_pos_ = 0;
};

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
class SegmentScanOp : public LiftedOp {
 public:
  /// `schema` names `columns` (without gid); `group_arity` is the arity of
  /// the group variable's binding.
  SegmentScanOp(std::string var_name, size_t group_arity,
                std::vector<int> columns, const Schema& schema);

  Result<bool> NextBatchImpl(ExecContext* ctx, RowBatch* out) override;
  Status CloseImpl(ExecContext* ctx) override;
  std::string DebugName() const override;
  PhysOpPtr Clone() const override;

 protected:
  Status OpenLifted(ExecContext* ctx) override;

 private:
  std::string var_name_;
  size_t group_arity_;
  std::vector<int> columns_;
  SegmentCursor cursor_;
};

/// Pulls a gid-clustered child stream one gid segment at a time (the
/// shared cursor of the segmented aggregate, Exists and Apply).
class GidCursor {
 public:
  void Reset() {
    batch_.Clear();
    pos_ = 0;
    done_ = false;
  }
  /// The next unconsumed row, or nullptr at end of stream.
  Result<const Row*> Peek(ExecContext* ctx, PhysOp* child);
  Row* mutable_head() { return &batch_[pos_]; }
  void Advance() { ++pos_; }

 private:
  RowBatch batch_;
  size_t pos_ = 0;
  bool done_ = false;
};

/// ScalarAgg per gid: exactly one output row (aggregates, then gid) for
/// *every* gid of the bound range, also those with no input rows (COUNT
/// 0, others NULL) — the lifted form of ScalarAgg's "never empty on
/// empty". With a null `child` it aggregates the group rows themselves,
/// straight from the partition buffer.
class SegmentAggOp : public LiftedOp {
 public:
  SegmentAggOp(PhysOpPtr child, std::vector<AggregateDesc> aggs,
               std::string var_name);

  Result<bool> NextBatchImpl(ExecContext* ctx, RowBatch* out) override;
  Status CloseImpl(ExecContext* ctx) override;
  std::string DebugName() const override;
  PhysOpPtr Clone() const override;
  std::vector<const PhysOp*> children() const override;

 protected:
  Status OpenLifted(ExecContext* ctx) override;

 private:
  PhysOpPtr child_;  // nullptr: aggregate the bound group rows directly
  std::vector<AggregateDesc> aggs_;
  std::string var_name_;
  GroupBinding binding_;
  GidCursor cursor_;
  size_t next_gid_ = 0;
};

/// Exists / NOT EXISTS per gid: emits `[gid]` for each gid of the bound
/// range whose input is nonempty (empty, when negated) — a gid semi/anti
/// match. Its only column is the gid, mirroring Exists' zero columns.
class SegmentExistsOp : public LiftedOp {
 public:
  SegmentExistsOp(PhysOpPtr child, bool negated, std::string var_name);

  Result<bool> NextBatchImpl(ExecContext* ctx, RowBatch* out) override;
  Status CloseImpl(ExecContext* ctx) override;
  std::string DebugName() const override;
  PhysOpPtr Clone() const override;
  std::vector<const PhysOp*> children() const override {
    return {child_.get()};
  }

 protected:
  Status OpenLifted(ExecContext* ctx) override;

 private:
  PhysOpPtr child_;
  bool negated_;
  std::string var_name_;
  GidCursor cursor_;
  size_t next_gid_ = 0;
  size_t end_gid_ = 0;
};

/// The lifted Apply with an uncorrelated ("cached") inner: a merge join on
/// gid. Each outer row of gid g is followed by every inner row of g, in
/// inner order — what the per-group Apply replays from its cached inner.
/// Output: outer columns (without gid), then inner columns (with gid).
class GidApplyOp : public LiftedOp {
 public:
  GidApplyOp(PhysOpPtr outer, PhysOpPtr inner);
  /// Outer side read straight from the partition buffer: the group rows
  /// of `var_name`, as the SegmentScanOp with `outer_columns` would
  /// produce them (`outer_schema` names those columns).
  GidApplyOp(std::string var_name, size_t group_arity,
             std::vector<int> outer_columns,
             const Schema& outer_schema, PhysOpPtr inner);

  Result<bool> NextBatchImpl(ExecContext* ctx, RowBatch* out) override;
  Status CloseImpl(ExecContext* ctx) override;
  std::string DebugName() const override;
  PhysOpPtr Clone() const override;
  std::vector<const PhysOp*> children() const override;

 protected:
  Status OpenLifted(ExecContext* ctx) override;

 private:
  /// Loads inner_rows_ with the inner rows of `gid`.
  Status LoadInner(ExecContext* ctx, size_t gid);

  PhysOpPtr outer_;  // nullptr: outer rows come from the buffer
  PhysOpPtr inner_;
  // Buffer-read outer side.
  std::string var_name_;
  size_t group_arity_ = 0;
  std::vector<int> outer_columns_;
  SegmentCursor segments_;
  RowBatch outer_batch_;
  size_t outer_pos_ = 0;
  GidCursor inner_cursor_;
  std::vector<Row> inner_rows_;
  size_t inner_gid_ = 0;
  bool inner_loaded_ = false;
};

/// The lifted UnionAll: per gid, branch 0's rows, then branch 1's, ... —
/// the order the per-group UnionAll produces within each group.
class GidUnionAllOp : public LiftedOp {
 public:
  static Result<PhysOpPtr> Make(std::vector<PhysOpPtr> branches);

  Result<bool> NextBatchImpl(ExecContext* ctx, RowBatch* out) override;
  Status CloseImpl(ExecContext* ctx) override;
  std::string DebugName() const override;
  PhysOpPtr Clone() const override;
  std::vector<const PhysOp*> children() const override;

 protected:
  Status OpenLifted(ExecContext* ctx) override;

 private:
  GidUnionAllOp(Schema schema, std::vector<PhysOpPtr> branches);

  std::vector<PhysOpPtr> branches_;
  std::vector<GidCursor> cursors_;
  size_t gid_ = 0;
  size_t branch_ = 0;  // == branches_.size(): pick the next gid
};

}  // namespace gapply

#endif  // GAPPLY_EXEC_LIFTED_OPS_H_
