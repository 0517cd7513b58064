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
/// values, in gid order. Lowering hands the operator one PGQ plan, in one
/// of two forms:
///  - *loop-lifted* (DESIGN.md §17): the plan runs once over a whole gid
///    range, reading the buffer through a segmented binding of `var_name`
///    and carrying each row's gid in a trailing column;
///  - *per group*: the group's slice of the buffer is bound to `var_name`
///    and `pgq` (whose GroupScan leaves read that binding) is re-opened and
///    drained once per group. This serves PGQ shapes lowering cannot lift.
/// Both produce bit-for-bit the same rows in the same order.
///
/// Output schema: grouping columns (as named in the outer schema) followed
/// by the PGQ output schema (without a lifted PGQ's trailing gid).
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
/// stay in memory. Phase 2 then runs one spill partition at a time,
/// serially: its records are scattered into a partition-local buffer
/// (gids ascending, each gid's rows in file order = outer input order,
/// since every gid lives in exactly one partition per level) and
/// run through the same units as the in-memory buffer — one lifted unit
/// over the partition's gids, or one unit per gid. Outputs land in
/// per-gid slots emitted in gid order — bit-for-bit the in-memory output.
/// Sort-mode partitioning stays in-memory (the sort below it is what
/// spills).
class GApplyOp : public PhysOp {
 public:
  /// `lifted`: `pgq` is the loop-lifted form of the PGQ (lifted_ops.h),
  /// with the per-group form's output columns plus a trailing gid.
  GApplyOp(PhysOpPtr outer, std::vector<int> grouping_columns,
           std::string var_name, PhysOpPtr pgq,
           PartitionMode mode = PartitionMode::kHash, size_t parallelism = 1,
           bool lifted = false);

  Status OpenImpl(ExecContext* ctx) override;
  Result<bool> NextBatchImpl(ExecContext* ctx, RowBatch* out) override;
  Status CloseImpl(ExecContext* ctx) override;
  std::string DebugName() const override;
  PhysOpPtr Clone() const override;
  /// Outer, then the PGQ.
  std::vector<const PhysOp*> children() const override;

  size_t parallelism() const { return parallelism_; }
  size_t profile_dop() const override { return parallelism_; }

  bool lifted() const { return lifted_; }

 private:
  Status Partition(ExecContext* ctx);
  Status PartitionByHash(ExecContext* ctx, RowBatch* batch);

  /// Groups in the partition buffer.
  size_t buffer_groups() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  /// Splits the partition buffer into phase-2 units: one per group for a
  /// per-group PGQ; for a lifted PGQ one gid range, or at `dop` > 1 a few
  /// per worker, booking the lifted execution.
  void PlanUnits(size_t dop);
  size_t num_units() const {
    return lifted_ ? unit_bounds_.size() - 1 : buffer_groups();
  }
  /// The binding unit `u` runs under: one group's slice of the buffer, or
  /// a segmented gid range for the lifted PGQ.
  GroupBinding UnitBinding(size_t u) const;
  /// The buffer gid of a PGQ row that unit `unit` produced.
  size_t RowGid(size_t unit, const Row& pgq_row) const;
  /// Prefixes a PGQ row of buffer gid `gid` with its group's key (dropping
  /// a lifted row's gid).
  Row PrefixedRow(size_t gid, Row pgq_row) const;

  Status OpenUnit(ExecContext* ctx);
  Status CloseUnit(ExecContext* ctx);

  /// Runs `pgq` (pgq_ or a worker's clone of it) to completion for unit
  /// `unit`, appending key-prefixed output rows to the unit's output slot
  /// (a spilled buffer's rows to their gid's slot) and counting a
  /// per-group execution in `*pgq_executions`. Thread-safe w.r.t. other
  /// units: reads only the partition buffer, mutates only `ctx`, the
  /// unit's slot and `*pgq_executions`.
  Status ExecuteBound(PhysOp* pgq, ExecContext* ctx, size_t unit,
                      uint64_t* pgq_executions);

  /// Phase-2 fan-out: executes every unit through FanOutUnits, filling
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
  /// Phase 2 over one spill partition: loads its (gid, row) records with
  /// LoadSpillPartition (recursing into the split files when it
  /// overflows) into the partition buffer and runs its units into
  /// unit_outputs_.
  Status ExecuteSpilledPartition(ExecContext* ctx, const std::string& path,
                                 int level);

  PhysOpPtr outer_;
  std::vector<int> grouping_columns_;
  std::string var_name_;
  PhysOpPtr pgq_;
  PartitionMode mode_;
  size_t parallelism_;
  bool lifted_;

  // The partition buffer: member rows clustered by gid, gid g's rows at
  // members_[offsets_[g], offsets_[g + 1]). A group's key is read off its
  // first row. In memory the buffer holds all num_groups_ groups. A
  // spilled partitioning holds one spill partition at a time, and buffer
  // gid g is group buffer_gids_[g]; it keeps every group's key (by gid) in
  // group_keys_ while it partitions.
  size_t num_groups_ = 0;
  std::vector<Row> members_;
  std::vector<size_t> offsets_;
  std::vector<uint32_t> buffer_gids_;
  std::vector<Row> group_keys_;

  // Phase-2 units. Lifted: unit u covers buffer gids [unit_bounds_[u],
  // unit_bounds_[u + 1]). Per group: unit u is buffer gid u.
  std::vector<size_t> unit_bounds_;
  size_t current_unit_ = 0;
  bool unit_open_ = false;
  uint64_t unit_open_ns_ = 0;  // OpenUnit's clock stamp, profiling only

  // Buffered-output state (parallel and spilled phase 2): per-unit (per
  // gid when spilled) output rows, streamed by NextBatch in slot order.
  bool buffered_exec_ = false;
  RowSlots unit_outputs_;

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
