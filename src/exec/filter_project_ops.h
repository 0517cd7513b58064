#ifndef GAPPLY_EXEC_FILTER_PROJECT_OPS_H_
#define GAPPLY_EXEC_FILTER_PROJECT_OPS_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/memory_tracker.h"
#include "src/common/spill_file.h"
#include "src/exec/physical_op.h"
#include "src/expr/bytecode.h"
#include "src/expr/expr.h"

namespace gapply {

/// Emits input rows whose predicate evaluates to TRUE (NULL rejects).
///
/// The predicate is compiled once, at first Open, into an ExprProgram that
/// produces keep flags column-at-a-time (DESIGN.md §14).
class FilterOp : public PhysOp {
 public:
  FilterOp(PhysOpPtr child, ExprPtr predicate);

  Status OpenImpl(ExecContext* ctx) override;
  Result<bool> NextBatchImpl(ExecContext* ctx, RowBatch* out) override;
  Status CloseImpl(ExecContext* ctx) override;
  std::string DebugName() const override;
  PhysOpPtr Clone() const override;
  std::vector<const PhysOp*> children() const override { return {child_.get()}; }

 private:
  PhysOpPtr child_;
  ExprPtr predicate_;

  // Compiled once at first Open (Apply / GApply re-open per group; the
  // program is reusable as-is).
  std::unique_ptr<ExprProgram> program_;

  // Native batch path scratch: the current child batch and its selection
  // flags, reused across NextBatch calls.
  RowBatch child_batch_;
  std::vector<char> keep_;
};

/// Computes one output column per expression, each compiled once at first
/// Open into its own ExprProgram.
class ProjectOp : public PhysOp {
 public:
  /// Builds the output schema from the expressions' static types and
  /// `names` (same length as `exprs`).
  static Result<PhysOpPtr> Make(PhysOpPtr child, std::vector<ExprPtr> exprs,
                                std::vector<std::string> names);

  Status OpenImpl(ExecContext* ctx) override;
  Result<bool> NextBatchImpl(ExecContext* ctx, RowBatch* out) override;
  Status CloseImpl(ExecContext* ctx) override;
  std::string DebugName() const override;
  PhysOpPtr Clone() const override;
  std::vector<const PhysOp*> children() const override { return {child_.get()}; }

 private:
  ProjectOp(Schema schema, PhysOpPtr child, std::vector<ExprPtr> exprs);

  PhysOpPtr child_;
  std::vector<ExprPtr> exprs_;

  // One program per expression, compiled at first Open.
  std::vector<std::unique_ptr<ExprProgram>> programs_;

  // Native batch path scratch: child batch + one evaluated column per
  // projection expression.
  RowBatch child_batch_;
  std::vector<std::vector<Value>> columns_;
};

/// Sort key: column index + direction. NULLs order first.
struct SortKey {
  int column = 0;
  bool ascending = true;
};

/// Total-order comparison used by Sort and by group-boundary detection:
/// NULL sorts before every non-NULL value; incomparable types fall back to
/// TypeId ordering so sorting never fails.
int CompareForSort(const Value& a, const Value& b);

/// Sort, in memory by default. Under a memory budget (DESIGN.md §16) it
/// becomes an external merge sort: when buffering the input exceeds the
/// query's MemoryTracker budget, the buffered prefix is stable-sorted and
/// written out as a sorted run, runs accumulate over consecutive input
/// segments, and the output phase k-way-merges the runs plus the final
/// in-memory buffer. Ties between runs break toward the lower run index
/// (earlier input segment), which reproduces `std::stable_sort` over the
/// whole input bit-for-bit.
class SortOp : public PhysOp {
 public:
  SortOp(PhysOpPtr child, std::vector<SortKey> keys);

  Status OpenImpl(ExecContext* ctx) override;
  Result<bool> NextBatchImpl(ExecContext* ctx, RowBatch* out) override;
  Status CloseImpl(ExecContext* ctx) override;
  std::string DebugName() const override;
  PhysOpPtr Clone() const override;
  std::vector<const PhysOp*> children() const override { return {child_.get()}; }

 private:
  /// Sort-key comparison over whole rows: <0, 0, >0.
  int CompareRows(const Row& a, const Row& b) const;
  void SortBuffer();
  /// Stable-sorts the current buffer and writes it out as one run.
  Status SpillRun(ExecContext* ctx);
  /// Pops the smallest head across the file runs and the in-memory run.
  Result<bool> MergeNext(Row* out);

  PhysOpPtr child_;
  std::vector<SortKey> keys_;
  std::vector<Row> rows_;
  size_t pos_ = 0;

  // External-merge state; empty/false while the sort fits in memory.
  MemoryReservation mem_;
  bool spilled_ = false;
  std::vector<std::string> run_files_;
  struct RunHead {
    std::unique_ptr<SpillReader> reader;
    Row row;
    bool done = false;
  };
  std::vector<RunHead> run_heads_;
};

}  // namespace gapply

#endif  // GAPPLY_EXEC_FILTER_PROJECT_OPS_H_
