#ifndef GAPPLY_EXEC_APPLY_OPS_H_
#define GAPPLY_EXEC_APPLY_OPS_H_

#include <string>
#include <vector>

#include "src/exec/physical_op.h"

namespace gapply {

/// \brief The paper's `apply` operator (§4): R A E = ⋃_{r∈R} ({r} × E(r)).
///
/// For each outer row r, the inner subplan is re-opened with r pushed onto
/// the correlated-row stack; every inner row is emitted concatenated after
/// r. Outer and inner are pulled at the caller's batch capacity and both
/// cursors survive across calls, so an inner is never pulled further than
/// the output needs. Scalar subqueries appear as an inner ScalarAgg
/// (exactly one row);
/// EXISTS subqueries appear as an inner Exists (zero columns), making the
/// output schema collapse to the outer schema (S × {φ} = S).
class ApplyOp : public PhysOp {
 public:
  /// `cache_uncorrelated_inner`: when the inner subplan does not reference
  /// THIS Apply's outer row (e.g. the paper's group-selection EXISTS probes
  /// that range over the whole group), its result is identical for every
  /// outer row; setting this evaluates it once per Open and replays the
  /// materialized rows. The lowering pass decides via
  /// ApplyInnerIsCorrelated.
  ApplyOp(PhysOpPtr outer, PhysOpPtr inner,
          bool cache_uncorrelated_inner = false);

  Status OpenImpl(ExecContext* ctx) override;
  Result<bool> NextBatchImpl(ExecContext* ctx, RowBatch* out) override;
  Status CloseImpl(ExecContext* ctx) override;
  std::string DebugName() const override;
  PhysOpPtr Clone() const override;
  std::vector<const PhysOp*> children() const override {
    return {outer_.get(), inner_.get()};
  }

 private:
  /// Opens the inner for `outer` (or, cached, evaluates it once).
  Status StartOuterRow(ExecContext* ctx, const Row& outer);
  /// The next inner row for the current outer row; nullptr once exhausted.
  Result<const Row*> NextInnerRow(ExecContext* ctx, size_t capacity);
  Status CloseInner(ExecContext* ctx);

  PhysOpPtr outer_;
  PhysOpPtr inner_;
  bool cache_inner_;
  ChildCursor outer_rows_;  // head: the current outer row, while inner_open_
  bool inner_open_ = false;
  ChildCursor inner_rows_;
  bool cache_valid_ = false;
  std::vector<Row> cache_;
  size_t cache_pos_ = 0;
};

/// \brief The paper's `exists` operator: {φ} (one zero-column tuple) if the
/// input is nonempty, φ otherwise. Only meaningful as the inner child of
/// Apply. It pulls a single 1-row batch, so its input is evaluated only up
/// to the first row.
class ExistsOp : public PhysOp {
 public:
  explicit ExistsOp(PhysOpPtr child, bool negated = false);

  Status OpenImpl(ExecContext* ctx) override;
  Result<bool> NextBatchImpl(ExecContext* ctx, RowBatch* out) override;
  Status CloseImpl(ExecContext* ctx) override;
  std::string DebugName() const override;
  PhysOpPtr Clone() const override;
  std::vector<const PhysOp*> children() const override { return {child_.get()}; }

 private:
  PhysOpPtr child_;
  bool negated_;
  bool done_ = false;
  RowBatch probe_{1};
};

/// Concatenation of children's outputs (SQL UNION ALL). Schemas must be
/// union-compatible; the output schema is the unified one computed by
/// `UnifySchemas`.
class UnionAllOp : public PhysOp {
 public:
  static Result<PhysOpPtr> Make(std::vector<PhysOpPtr> children);

  Status OpenImpl(ExecContext* ctx) override;
  Result<bool> NextBatchImpl(ExecContext* ctx, RowBatch* out) override;
  Status CloseImpl(ExecContext* ctx) override;
  std::string DebugName() const override;
  PhysOpPtr Clone() const override;
  std::vector<const PhysOp*> children() const override;

 private:
  UnionAllOp(Schema schema, std::vector<PhysOpPtr> children);

  std::vector<PhysOpPtr> children_;
  size_t current_ = 0;
};

/// Column-wise unification of union branches: equal types pass through,
/// kNull unifies with anything, {int64, double} unify to double; otherwise
/// TypeError. Column names come from the first branch.
Result<Schema> UnifySchemas(const std::vector<const Schema*>& schemas);

}  // namespace gapply

#endif  // GAPPLY_EXEC_APPLY_OPS_H_
