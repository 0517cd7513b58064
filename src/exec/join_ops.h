#ifndef GAPPLY_EXEC_JOIN_OPS_H_
#define GAPPLY_EXEC_JOIN_OPS_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/hash_table.h"
#include "src/common/memory_tracker.h"
#include "src/common/spill_file.h"
#include "src/exec/physical_op.h"
#include "src/exec/scan_ops.h"
#include "src/expr/expr.h"

namespace gapply {

/// \brief Inner hash equi-join. Builds on the right child, probes with the
/// left — matching the paper's left-deep trees where the right child of
/// every internal node is a base-table leaf.
///
/// `left_keys[i]` must equal `right_keys[i]` for a match. By default this is
/// SQL equi-join equality: a NULL key never matches, so NULL-keyed rows are
/// dropped on both sides. With `null_safe` set the comparison is
/// IS NOT DISTINCT FROM — NULL matches NULL — which is what the
/// group-selection rewrites need to reconstruct GROUP-BY-style groups whose
/// keys may be NULL. An optional residual predicate over the concatenated
/// row filters matches further.
///
/// The build side lives in flat `HashTable`s (DESIGN.md §18): each key's
/// hash is computed once per row, in place, and rows of equal key chain
/// newest first, so a probe row's matches come out in reverse build order
/// (the order the earlier `std::unordered_multimap` table produced). With `parallelism` > 1 and a build side of at least
/// `kParallelBuildMinRows` rows, the build phase is parallel and
/// hash-partitioned: workers hash fixed-size chunks of the build rows,
/// then one worker per shard inserts its shard's rows (hash % shards) in
/// global row order into its own table. Because the per-key insertion
/// sequence equals the serial build's, probe output stays bit-for-bit
/// identical to DOP 1.
///
/// Under a memory budget (DESIGN.md §16), a build side that exceeds the
/// query's MemoryTracker budget switches the operator to a Grace-style
/// out-of-core join: both sides are hash-partitioned to spill files (probe
/// rows tagged with their global probe index), partitions that still do
/// not fit are recursively repartitioned with a level-salted hash, each
/// leaf partition is joined in memory into an index-tagged output run, and
/// the runs are k-way-merged on probe index. Because every key lives in
/// exactly one partition and per-key build insertion order is preserved,
/// the merged stream is bit-for-bit the in-memory probe output.
///
/// A join on one int64 key pair whose build side is a base table sorted on
/// its key is lowered to LookupJoinOp instead, which emits the same stream
/// without building a table (DESIGN.md §20).
class HashJoinOp : public PhysOp {
 public:
  /// Build sides smaller than this are built serially even when a
  /// parallelism knob is set — sharding overhead dominates below it.
  static constexpr size_t kParallelBuildMinRows = 4096;

  HashJoinOp(PhysOpPtr left, PhysOpPtr right, std::vector<int> left_keys,
             std::vector<int> right_keys, ExprPtr residual = nullptr,
             size_t parallelism = 1, bool null_safe = false);

  Status OpenImpl(ExecContext* ctx) override;
  Result<bool> NextBatchImpl(ExecContext* ctx, RowBatch* out) override;
  Status CloseImpl(ExecContext* ctx) override;
  std::string DebugName() const override;
  PhysOpPtr Clone() const override;
  std::vector<const PhysOp*> children() const override {
    return {left_.get(), right_.get()};
  }

  size_t parallelism() const { return parallelism_; }
  size_t profile_dop() const override { return parallelism_; }
  /// Lowering demotes the build to serial when this join ends up inside an
  /// Exchange segment (each worker clone already builds its own table).
  void set_parallelism(size_t dop) { parallelism_ = dop == 0 ? 1 : dop; }

 private:
  /// A flat table over a set of build rows: the whole build side, one
  /// hash shard of it, or one Grace leaf partition. The table's row ids
  /// index `rows`, which is in build order.
  struct BuildTable {
    HashTable table;
    std::vector<const Row*> rows;
  };

  /// Hash-partitioned parallel build over build_rows_ into tables_.
  void BuildParallel(ExecContext* ctx);
  /// Adds a build row (its key hash precomputed) to `t`.
  void Insert(BuildTable* t, const Row& row, size_t hash) const;
  /// The row id of `probe`'s first match in `t`, or HashTable::kNone.
  uint32_t FirstMatch(const BuildTable& t, const Row& probe,
                      size_t hash) const;
  /// True iff the join is not null-safe and some column of `keys` is NULL
  /// in `row`: such a row never matches.
  bool Keyless(const Row& row, const std::vector<int>& keys) const;

  /// Grace spill path, entered from OpenImpl when buffering the build side
  /// trips the budget: partitions both sides, joins every partition, and
  /// leaves `run_heads_` primed for the probe-index merge. `pending` is
  /// the build batch the trigger interrupted (rows from `pending_pos` on
  /// are flushed after the buffered prefix; the batch is then reused as
  /// scratch).
  Status SpillBuildAndJoin(ExecContext* ctx, RowBatch* pending,
                           size_t pending_pos);
  /// Joins one (build, probe) partition pair, recursively repartitioning
  /// when the build partition still exceeds the budget.
  Status JoinPartition(ExecContext* ctx, const std::string& build_path,
                       const std::string& probe_path, int level);
  /// In-memory join of a loaded build partition against its probe file,
  /// appending the index-tagged output run to output_runs_.
  Status JoinLoadedPartition(ExecContext* ctx, const std::vector<Row>& build,
                             const std::string& probe_path);
  /// Pops the globally next joined row (smallest probe index) off the runs.
  Result<bool> SpillNext(Row* out);

  PhysOpPtr left_;
  PhysOpPtr right_;
  std::vector<int> left_keys_;
  std::vector<int> right_keys_;
  ExprPtr residual_;
  size_t parallelism_ = 1;
  bool null_safe_ = false;

  // One table when built serially, one per shard (hash % size) when built
  // in parallel.
  std::vector<BuildTable> tables_;
  std::vector<Row> build_rows_;

  // Probe cursor: the current probe row and (while have_matches_) its
  // next unvisited match, a row id of match_table_. It survives across
  // NextBatch calls, so one probe row's matches may span several batches.
  ChildCursor probe_;
  bool have_matches_ = false;
  const BuildTable* match_table_ = nullptr;
  uint32_t match_row_ = HashTable::kNone;

  // Grace spill state; inert until a budget refusal flips spilled_.
  bool spilled_ = false;
  MemoryReservation mem_;
  std::vector<std::string> output_runs_;
  struct RunHead {
    std::unique_ptr<SpillReader> reader;
    uint64_t idx = 0;
    Row row;
    bool done = false;
  };
  std::vector<RunHead> run_heads_;
};

/// \brief Inner equi-join on one int64 key pair whose build side is a bare
/// base-table scan, sorted on its key across the whole table
/// (ColumnarTable::ColumnSorted). Lowering picks it over HashJoinOp under
/// columnar storage; DESIGN.md §20 has the eligibility rules.
///
/// Nothing is built at Open. For each probe row the operator finds the run
/// [lb, ub) of build rows with an equal key by binary search over the key
/// column's dense `ints()`, keeps the rows of the run that pass the build
/// scan's pushed conjuncts (run through the scan program), and emits them
/// from the last to the first: HashJoinOp's reverse build order, so the
/// two joins produce the same stream. Build rows are read in place from
/// `Table::rows()`; the build scan itself is never opened, and the join
/// books the build rows it fetched in its own `rows_scanned` (plus the
/// rows its scan program evaluated in `scan_rows_evaluated`).
///
/// The residual filters matches exactly as in HashJoinOp. A sorted column
/// holds no NULL, so a NULL probe key matches nothing, with or without
/// `null_safe`.
class LookupJoinOp : public PhysOp {
 public:
  LookupJoinOp(PhysOpPtr left, std::unique_ptr<TableScanOp> right,
               int left_key, int right_key, ExprPtr residual = nullptr,
               bool null_safe = false);

  Status OpenImpl(ExecContext* ctx) override;
  Result<bool> NextBatchImpl(ExecContext* ctx, RowBatch* out) override;
  Status CloseImpl(ExecContext* ctx) override;
  std::string DebugName() const override;
  PhysOpPtr Clone() const override;
  std::vector<const PhysOp*> children() const override {
    return {left_.get(), right_.get()};
  }

 private:
  /// Finds the current probe row's matches: fills `run_begin_`, or
  /// `selection_` when the build scan has pushed conjuncts, and sets
  /// `pending_` to their count.
  Status LookUp(const Value& key);
  /// Table row id of the i-th match of the current probe row (ascending).
  size_t MatchAt(size_t i) const {
    return build_program_ != nullptr ? selection_[i] : run_begin_ + i;
  }

  PhysOpPtr left_;
  std::unique_ptr<TableScanOp> right_;
  int left_key_;
  int right_key_;
  ExprPtr residual_;
  bool null_safe_;

  // Set at Open: the build key column's dense values, and the program
  // compiled from the build scan's pushed conjuncts (null when it has
  // none).
  const std::vector<int64_t>* build_keys_ = nullptr;
  std::unique_ptr<ExprProgram> build_program_;
  std::vector<uint32_t> selection_;

  // Probe cursor: the current probe row and its `pending_` matches not yet
  // visited, emitted from MatchAt(pending_ - 1) down to MatchAt(0). It
  // survives across NextBatch calls, so one probe row's matches may span
  // several batches.
  ChildCursor probe_;
  bool have_matches_ = false;
  size_t run_begin_ = 0;
  size_t pending_ = 0;
};

/// Inner nested-loops join with an arbitrary predicate (used when no
/// equi-key is extractable). Materializes the right side; the (left row,
/// right position) cursor survives across NextBatch calls.
class NestedLoopJoinOp : public PhysOp {
 public:
  NestedLoopJoinOp(PhysOpPtr left, PhysOpPtr right, ExprPtr predicate);

  Status OpenImpl(ExecContext* ctx) override;
  Result<bool> NextBatchImpl(ExecContext* ctx, RowBatch* out) override;
  Status CloseImpl(ExecContext* ctx) override;
  std::string DebugName() const override;
  PhysOpPtr Clone() const override;
  std::vector<const PhysOp*> children() const override {
    return {left_.get(), right_.get()};
  }

 private:
  PhysOpPtr left_;
  PhysOpPtr right_;
  ExprPtr predicate_;  // may be nullptr (cross product)

  std::vector<Row> right_rows_;
  ChildCursor left_rows_;
  size_t right_pos_ = 0;  // next right row to pair with the current left
};

}  // namespace gapply

#endif  // GAPPLY_EXEC_JOIN_OPS_H_
