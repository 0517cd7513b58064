#ifndef GAPPLY_EXEC_AGG_OPS_H_
#define GAPPLY_EXEC_AGG_OPS_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/hash_table.h"
#include "src/common/memory_tracker.h"
#include "src/exec/physical_op.h"
#include "src/expr/aggregate.h"

namespace gapply {

/// \brief Hash-based GROUP BY: output one row per distinct key combination,
/// key columns first, then one column per aggregate.
///
/// Output group order is first-appearance order in the input (deterministic
/// for a deterministic child). Groups live in the shared flat `HashTable`
/// (DESIGN.md §18): input rows are hashed and compared in place, and one
/// key row is stored per group.
///
/// With `parallelism` > 1, an input of at least `kParallelAggMinRows` rows,
/// and aggregates whose partial merge is exact (`AggregateMergeIsExact`),
/// the input is buffered and aggregated by workers into per-worker partial
/// tables over row morsels; partials are merged with `AggAccumulator::Merge`
/// and the merged groups are emitted sorted by their global
/// first-appearance row position — bit-for-bit the serial output. Inexact
/// aggregates (AVG, SUM over doubles, DISTINCT) fall back to the serial
/// path regardless of the knob.
///
/// Under a memory budget (DESIGN.md §16), an input that exceeds the
/// query's MemoryTracker budget is Grace-partitioned to spill files by key
/// hash, each row tagged with its global input position. Every group lives
/// in exactly one partition, so per-partition aggregation (in file order =
/// input order) is exact; groups carry their minimum tagged position and
/// the final output is sorted on it — reproducing the serial
/// first-appearance group order bit-for-bit. Partitions that still exceed
/// the budget repartition recursively with a level-salted hash.
class HashGroupByOp : public PhysOp {
 public:
  /// Inputs smaller than this aggregate serially even when a parallelism
  /// knob is set.
  static constexpr size_t kParallelAggMinRows = 4096;

  HashGroupByOp(PhysOpPtr child, std::vector<int> key_columns,
                std::vector<AggregateDesc> aggs, size_t parallelism = 1);

  Status OpenImpl(ExecContext* ctx) override;
  Result<bool> NextBatchImpl(ExecContext* ctx, RowBatch* out) override;
  Status CloseImpl(ExecContext* ctx) override;
  std::string DebugName() const override;
  PhysOpPtr Clone() const override;
  std::vector<const PhysOp*> children() const override { return {child_.get()}; }

  size_t parallelism() const { return parallelism_; }
  size_t profile_dop() const override { return parallelism_; }
  void set_parallelism(size_t dop) { parallelism_ = dop == 0 ? 1 : dop; }

  /// Shared with ScalarAggOp: keys' columns followed by agg outputs.
  static Schema MakeOutputSchema(const Schema& input,
                                 const std::vector<int>& key_columns,
                                 const std::vector<AggregateDesc>& aggs);

 private:
  /// Serial aggregation of buffered rows (parallel path fallback for small
  /// inputs, keeping group order identical to the streaming path).
  Status AggregateBuffered(ExecContext* ctx, const std::vector<Row>& input);
  /// Morsel-parallel partial aggregation + deterministic merge.
  Status AggregateParallel(ExecContext* ctx, const std::vector<Row>& input);

  /// Budgeted open: buffers the input under the memory tracker, falling
  /// through to the in-memory paths when it fits and to the Grace spill
  /// path on a budget refusal.
  Status OpenBudgeted(ExecContext* ctx);
  /// Grace spill: partitions the buffered prefix + the rest of the child
  /// into position-tagged spill files and aggregates each partition.
  Status SpillPartitionAndAggregate(ExecContext* ctx,
                                    std::vector<Row>* buffered,
                                    RowBatch* pending, size_t pending_pos);
  /// Aggregates one partition file (recursing on overflow), appending
  /// (first-appearance position, output row) pairs to `ordered`.
  Status AggregatePartition(ExecContext* ctx, const std::string& path,
                            int level,
                            std::vector<std::pair<uint64_t, Row>>* ordered);

  PhysOpPtr child_;
  std::vector<int> key_columns_;
  std::vector<AggregateDesc> aggs_;
  size_t parallelism_ = 1;

  MemoryReservation mem_;
  std::vector<Row> output_;
  size_t pos_ = 0;
};

/// \brief Aggregation without grouping: exactly one output row, even on
/// empty input (COUNT → 0, others → NULL). This "not empty on empty" SQL
/// behaviour is what forces the emptyOnEmpty check in the paper's
/// selection-pushing rule (§4.1).
class ScalarAggOp : public PhysOp {
 public:
  ScalarAggOp(PhysOpPtr child, std::vector<AggregateDesc> aggs);

  Status OpenImpl(ExecContext* ctx) override;
  Result<bool> NextBatchImpl(ExecContext* ctx, RowBatch* out) override;
  Status CloseImpl(ExecContext* ctx) override;
  std::string DebugName() const override;
  PhysOpPtr Clone() const override;
  std::vector<const PhysOp*> children() const override { return {child_.get()}; }

 private:
  PhysOpPtr child_;
  std::vector<AggregateDesc> aggs_;
  bool emitted_ = false;
};

/// Duplicate elimination over whole rows (multiset → set), streaming first
/// occurrences.
class DistinctOp : public PhysOp {
 public:
  explicit DistinctOp(PhysOpPtr child);

  Status OpenImpl(ExecContext* ctx) override;
  Result<bool> NextBatchImpl(ExecContext* ctx, RowBatch* out) override;
  Status CloseImpl(ExecContext* ctx) override;
  std::string DebugName() const override;
  PhysOpPtr Clone() const override;
  std::vector<const PhysOp*> children() const override { return {child_.get()}; }

 private:
  PhysOpPtr child_;
  HashTable seen_;              // entry e = seen_rows_[e]
  std::vector<Row> seen_rows_;  // first occurrences, in arrival order
  RowBatch child_batch_;
};

}  // namespace gapply

#endif  // GAPPLY_EXEC_AGG_OPS_H_
