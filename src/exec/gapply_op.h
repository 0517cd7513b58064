#ifndef GAPPLY_EXEC_GAPPLY_OP_H_
#define GAPPLY_EXEC_GAPPLY_OP_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/memory_tracker.h"
#include "src/common/spill_file.h"
#include "src/exec/physical_op.h"

namespace gapply {

/// Partitioning strategy for GApply's first phase (paper §3: "implemented
/// either through sorting or through hashing").
enum class PartitionMode { kSort, kHash };

const char* PartitionModeName(PartitionMode mode);

/// \brief The paper's core contribution: GApply(GCols, PGQ).
///
/// Phase 1 (Partition): the outer input is partitioned on the grouping
/// columns into one flat, gid-clustered partition buffer: the member rows
/// in group-id (gid) order plus a G+1 offset array. Group ids follow
/// grouping-column order when partitioning by sorting and first-appearance
/// order when hashing. Hashing assigns gids in one pass and places rows
/// with a stable counting scatter in a second, so each group keeps its
/// rows in outer input order.
///
/// Phase 2 (Execute) implements
///   ⋃_{c ∈ distinct(π_C(outer))} ({c} × PGQ(σ_{C=c}(outer)))
/// and prefixes each PGQ output row with its group's grouping-column
/// values, in gid order. It takes one of two forms:
///  - *loop-lifted* (DESIGN.md §17), when lowering supplied a lifted PGQ
///    (set_lifted_pgq): the lifted plan runs once over a whole gid range,
///    reading the buffer through a segmented binding of `var_name` and
///    carrying each row's gid in a trailing column;
///  - *per group*: the group's slice of the buffer is bound to `var_name`
///    and `pgq` (whose GroupScan leaves read that binding) is re-opened and
///    drained once per group. This serves PGQ shapes lowering cannot lift
///    and spilled partitions.
/// Both produce bit-for-bit the same rows in the same order.
///
/// Output schema: grouping columns (as named in the outer schema) followed
/// by the PGQ output schema.
///
/// Parallel execution (the paper's §3 observation that no group's evaluation
/// depends on another's, made operational): with `parallelism` > 1, phase 2
/// fans *units* — single groups, or contiguous gid ranges for a lifted PGQ
/// — out over a worker pool. Each worker owns a deep Clone of the PGQ
/// subplan and a private ExecContext forked from the caller's (so enclosing
/// Apply/GApply bindings remain visible but its own bindings stay
/// private), and claims units through a shared atomic cursor.
/// Per-unit outputs are buffered per unit index and emitted in exactly the
/// order the serial path would produce, so parallel output is bit-for-bit
/// identical to serial output. After the join, each clone's runtime profile
/// is folded into the template PGQ (MergeTreeProfileFrom) and the workers'
/// per-group executions into this operator's, so every unit of work is
/// counted exactly once in the plan tree. If any unit fails, the error of
/// the smallest failing unit is reported (again matching what serial
/// execution would surface first).
///
/// Under a memory budget (DESIGN.md §16), hash-mode partitioning whose
/// member rows exceed the query's MemoryTracker budget spills members to
/// disk as (gid, row) records partitioned by a gid hash — the group keys
/// stay in memory. Phase 2 then executes one partition at a time, per
/// group: its rows are bucketed by gid in file order (= outer input order
/// per group, since every gid lives in exactly one partition per level)
/// and the PGQ runs serially per group into per-gid output slots emitted
/// in gid order — bit-for-bit the in-memory output. Sort-mode
/// partitioning stays in-memory (the sort below it is what spills).
class GApplyOp : public PhysOp {
 public:
  GApplyOp(PhysOpPtr outer, std::vector<int> grouping_columns,
           std::string var_name, PhysOpPtr pgq,
           PartitionMode mode = PartitionMode::kHash, size_t parallelism = 1);

  Status OpenImpl(ExecContext* ctx) override;
  Result<bool> NextBatchImpl(ExecContext* ctx, RowBatch* out) override;
  Status CloseImpl(ExecContext* ctx) override;
  std::string DebugName() const override;
  PhysOpPtr Clone() const override;
  /// Outer, then the lifted PGQ (when present), then the per-group PGQ.
  std::vector<const PhysOp*> children() const override;

  size_t parallelism() const { return parallelism_; }
  size_t profile_dop() const override { return parallelism_; }

  /// Installs the loop-lifted form of the PGQ (lifted_ops.h): same output
  /// columns as `pgq` plus a trailing gid. Lowering calls this for PGQ
  /// shapes it can lift; without it every group runs `pgq`.
  void set_lifted_pgq(PhysOpPtr lifted) { lifted_ = std::move(lifted); }
  bool lifted() const { return lifted_ != nullptr; }

 private:
  Status Partition(ExecContext* ctx);
  Status PartitionByHash(ExecContext* ctx, RowBatch* batch);

  size_t num_groups() const { return num_groups_; }
  size_t num_units() const {
    return run_lifted_ ? unit_bounds_.size() - 1 : num_groups();
  }
  PhysOp* active_pgq() const {
    return run_lifted_ ? lifted_.get() : pgq_.get();
  }
  /// The binding unit `u` runs under: one group's slice of the buffer, or
  /// a segmented gid range for the lifted PGQ.
  GroupBinding UnitBinding(size_t u) const;
  /// Prefixes a PGQ row with its group's key (dropping a lifted row's gid).
  Row PrefixedRow(size_t unit, Row pgq_row) const;

  Status OpenUnit(ExecContext* ctx);
  Status CloseUnit(ExecContext* ctx);

  /// Runs `pgq` to completion under `binding` for unit `unit`, appending
  /// key-prefixed output rows to `*out` and counting a per-group execution
  /// in `*pgq_executions`. Thread-safe w.r.t. other units: reads only the
  /// partition buffer, mutates only `ctx`, `*out` and `*pgq_executions`.
  Status ExecuteBound(PhysOp* pgq, ExecContext* ctx,
                      const GroupBinding& binding, size_t unit,
                      std::vector<Row>* out, uint64_t* pgq_executions);

  /// Phase-2 fan-out: executes every unit on a worker pool, filling
  /// unit_outputs_, and folds the worker clones' profiles into the
  /// template PGQ.
  Status ExecuteUnitsParallel(ExecContext* ctx);

  /// Flips hash-mode partitioning to spill mode: extracts the group keys
  /// (from each gid's `first_row` in `input`), flushes every buffered
  /// member row to gid-partitioned spill files and opens spill_writers_
  /// for the rest of the outer input.
  Status StartMemberSpill(ExecContext* ctx, std::vector<Row>* input,
                          std::vector<uint32_t>* gids,
                          const std::vector<size_t>& first_row);
  /// Phase 2 over one spill partition: loads its (gid, row) records
  /// (recursively repartitioning on overflow), buckets them by gid and
  /// runs the per-group PGQ per group into unit_outputs_.
  Status ExecuteSpilledPartition(ExecContext* ctx, const std::string& path,
                                 int level);

  PhysOpPtr outer_;
  std::vector<int> grouping_columns_;
  std::string var_name_;
  PhysOpPtr pgq_;
  PhysOpPtr lifted_;  // nullptr: the PGQ runs per group
  PartitionMode mode_;
  size_t parallelism_;

  // The partition buffer: member rows clustered by gid, gid g's rows at
  // members_[offsets_[g], offsets_[g + 1]). A group's key is read off its
  // first row; only a spilled partitioning, whose rows are on disk, keeps
  // the keys (by gid) in group_keys_.
  size_t num_groups_ = 0;
  std::vector<Row> members_;
  std::vector<size_t> offsets_;
  std::vector<Row> group_keys_;

  // Phase-2 units. Lifted: unit u covers gids [unit_bounds_[u],
  // unit_bounds_[u + 1]). Per group: unit u is group u.
  bool run_lifted_ = false;
  std::vector<size_t> unit_bounds_;
  size_t current_unit_ = 0;
  bool unit_open_ = false;
  uint64_t unit_open_ns_ = 0;  // OpenUnit's clock stamp, profiling only

  // Buffered-output state (parallel and spilled phase 2): per-unit output
  // rows, streamed by NextBatch in unit order.
  bool buffered_exec_ = false;
  std::vector<std::vector<Row>> unit_outputs_;
  size_t output_pos_ = 0;

  // Member-row spill state (hash mode only); inert until a budget refusal
  // during Partition flips spilled_.
  bool spilled_ = false;
  MemoryReservation mem_;
  std::vector<std::unique_ptr<SpillWriter>> spill_writers_;
  std::vector<std::string> spill_paths_;

  // Serial phase 2: the open unit's PGQ output.
  ChildCursor pgq_rows_;
};

}  // namespace gapply

#endif  // GAPPLY_EXEC_GAPPLY_OP_H_
