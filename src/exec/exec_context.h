#ifndef GAPPLY_EXEC_EXEC_CONTEXT_H_
#define GAPPLY_EXEC_EXEC_CONTEXT_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/common/result.h"
#include "src/common/row_batch.h"
#include "src/expr/expr.h"
#include "src/storage/schema.h"

namespace gapply {

class MemoryTracker;
class PhysOp;
class SpillManager;
class ThreadPool;

/// \brief A relation-valued binding: the rows a GApply hands its per-group
/// query under the group variable.
///
/// Per-group execution binds one group: `rows[0, num_rows)`. Loop-lifted
/// execution (DESIGN.md §17) binds a *segmented* view of the gid-clustered
/// partition buffer instead: `rows` is the buffer base and group id `g` in
/// `[first_gid, end_gid)` owns `rows[offsets[g], offsets[g + 1])`.
struct GroupBinding {
  const Schema* schema = nullptr;
  const Row* rows = nullptr;
  size_t num_rows = 0;
  const size_t* offsets = nullptr;  // non-null only for segmented bindings
  size_t first_gid = 0;
  size_t end_gid = 0;

  bool segmented() const { return offsets != nullptr; }
  /// Buffer positions `[begin, end)` of every row in the binding.
  size_t begin() const { return segmented() ? offsets[first_gid] : 0; }
  size_t end() const { return segmented() ? offsets[end_gid] : num_rows; }
};

/// \brief Per-execution mutable state shared by all operators in a plan.
///
/// Holds the two kinds of parameter bindings the paper's algebra needs:
///  - the outer-row stack for `Apply` (single-tuple parameters), living in
///    the embedded EvalContext used by expression evaluation, and
///  - named *relation-valued* bindings for `GApply` (the paper's core
///    addition, §3): GApply binds each group in succession under its
///    variable name, or a whole gid range at once for a loop-lifted PGQ
///    (GroupBinding); `GroupScan` leaves read it. Bindings are stacks so
///    nested GApply over the same variable name shadows correctly.
///
/// A context is owned by exactly one thread. Parallel operators (GApply,
/// Exchange, HashGroupBy) give each worker a private context created with
/// `ForkForWorker`. A context carries no work counters: each operator books
/// its work in its own runtime profile (DESIGN.md §12).
class ExecContext {
 public:
  /// Work counters, the one ledger of what a query did. Each operator keeps
  /// one set in its OpRuntimeProfile (`work`) and books only its own work
  /// there; query totals are summed from the plan tree (SumWorkCounters).
  /// The `*_ns` and `gapply_worker*` fields are timers, booked only while
  /// profiling is on; every other field is booked on every execution.
  struct Counters {
    uint64_t rows_scanned = 0;       // base-table rows produced by TableScan
    uint64_t group_rows_scanned = 0; // rows produced by GroupScan

    // Zone-map pruning (columnar scans with pushed-down predicates only;
    // scans without pushed predicates leave both at zero). A morsel is
    // either pruned (skipped wholesale off its zone maps) or scanned.
    uint64_t morsels_scanned = 0;
    uint64_t morsels_pruned = 0;
    // Rows of scanned morsels the pushed scan program evaluated, after
    // sorted-column narrowing (ColumnarTable::NarrowMorsel).
    uint64_t scan_rows_evaluated = 0;
    uint64_t pgq_executions = 0;     // per-group query invocations
    uint64_t apply_invocations = 0;  // inner re-executions by Apply
    uint64_t rows_sorted = 0;
    uint64_t rows_hash_partitioned = 0;

    // Out-of-core execution (DESIGN.md §16): bytes written to spill files
    // and partition/run files created.
    uint64_t spill_bytes = 0;
    uint64_t spill_partitions = 0;

    // Vectorized execution: number of (non-empty) batches produced and the
    // rows they carried, booked by the PhysOp::NextBatch wrapper.
    // batch_rows_produced / batches_produced is the average batch fill.
    uint64_t batches_produced = 0;
    uint64_t batch_rows_produced = 0;

    // Per-phase GApply attribution (nanoseconds): time spent partitioning
    // the outer input vs. executing per-group queries. For the parallel
    // path, gapply_pgq_ns is the wall-clock time of the parallel section
    // (not the sum of worker busy time).
    uint64_t gapply_partition_ns = 0;
    uint64_t gapply_pgq_ns = 0;

    // Per-phase Exchange attribution: wall-clock time of the parallel
    // morsel fan-out (partition phase, during Open) and of streaming the
    // per-morsel buffers back out in morsel order (merge phase, during
    // NextBatch).
    uint64_t exchange_partition_ns = 0;
    uint64_t exchange_merge_ns = 0;

    // Per-worker GApply attribution. A parallel GApply worker that claimed
    // at least one group reports itself as one worker with its busy wall
    // time; a worker that raced to the cursor and found no group left
    // reports nothing. gapply_worker_busy_min_ns / _max_ns therefore range
    // over *participating* workers only — see MergeFrom.
    uint64_t gapply_workers = 0;
    uint64_t gapply_worker_busy_ns = 0;      // summed busy time
    uint64_t gapply_worker_busy_min_ns = 0;  // over participating workers
    uint64_t gapply_worker_busy_max_ns = 0;

    /// Every field but the per-worker ones, by name: the fields MergeFrom
    /// sums. Those not ending in `_ns` are the work counters proper, the
    /// same for a given plan and input whether profiled or not.
    static constexpr std::pair<const char*, uint64_t Counters::*> kSummed[] = {
        {"rows_scanned", &Counters::rows_scanned},
        {"group_rows_scanned", &Counters::group_rows_scanned},
        {"morsels_scanned", &Counters::morsels_scanned},
        {"morsels_pruned", &Counters::morsels_pruned},
        {"scan_rows_evaluated", &Counters::scan_rows_evaluated},
        {"pgq_executions", &Counters::pgq_executions},
        {"apply_invocations", &Counters::apply_invocations},
        {"rows_sorted", &Counters::rows_sorted},
        {"rows_hash_partitioned", &Counters::rows_hash_partitioned},
        {"spill_bytes", &Counters::spill_bytes},
        {"spill_partitions", &Counters::spill_partitions},
        {"batches_produced", &Counters::batches_produced},
        {"batch_rows_produced", &Counters::batch_rows_produced},
        {"gapply_partition_ns", &Counters::gapply_partition_ns},
        {"gapply_pgq_ns", &Counters::gapply_pgq_ns},
        {"exchange_partition_ns", &Counters::exchange_partition_ns},
        {"exchange_merge_ns", &Counters::exchange_merge_ns},
    };

    void Reset() { *this = Counters(); }

    /// Accumulates `other` into this set of counters: folds a worker
    /// clone's profile into its template, and sums the plan tree into the
    /// query's totals.
    void MergeFrom(const Counters& other) {
      for (const auto& [name, field] : kSummed) this->*field += other.*field;
      // A side with no participating GApply workers must be *skipped*, not
      // folded in as zeros: naively taking min(min, 0) would erase the
      // per-phase attribution whenever one worker finished with zero groups
      // claimed (dop > number of groups), showing a zero minimum busy time
      // for a worker that never ran a per-group query.
      if (other.gapply_workers > 0) {
        gapply_worker_busy_min_ns =
            gapply_workers == 0
                ? other.gapply_worker_busy_min_ns
                : std::min(gapply_worker_busy_min_ns,
                           other.gapply_worker_busy_min_ns);
        gapply_worker_busy_max_ns =
            std::max(gapply_worker_busy_max_ns, other.gapply_worker_busy_max_ns);
        gapply_workers += other.gapply_workers;
        gapply_worker_busy_ns += other.gapply_worker_busy_ns;
      }
    }
  };

  EvalContext* eval() { return &eval_; }
  const EvalContext& eval() const { return eval_; }

  /// Capacity of the batches the root is pulled with (see RowBatch). 1
  /// runs the whole plan one row at a time through the batch API.
  size_t batch_size() const { return batch_size_; }
  void set_batch_size(size_t n) { batch_size_ = n == 0 ? 1 : n; }

  /// Per-operator profiling (EXPLAIN ANALYZE / `SET profile = on`). Off by
  /// default; the PhysOp entry points check this one flag and fall straight
  /// through to the operator implementation when it is off, so a disabled
  /// profiler costs one predictable branch per call (DESIGN.md §12).
  bool profiling() const { return profiling_; }
  void set_profiling(bool on) { profiling_ = on; }

  /// Profiler-only stack of operators currently inside their Open/
  /// NextBatch/Close entry point. The top entry below `this` is the
  /// operator that pulled, which is how each operator's rows_in is credited
  /// independently of its children's rows_out (the fuzzer asserts the two
  /// agree). Only touched when profiling() is on.
  std::vector<PhysOp*>& profiler_consumers() { return profiler_consumers_; }

  /// Shared engine worker pool for parallel operators (GApply phase 2,
  /// Exchange, parallel join build / aggregation), owned by the Database
  /// for the session. nullptr (standalone plans built in tests) makes
  /// `FanOutUnits` fall back to a transient pool per parallel section.
  ThreadPool* thread_pool() const { return thread_pool_; }
  void set_thread_pool(ThreadPool* pool) { thread_pool_ = pool; }

  /// Per-query memory budget (DESIGN.md §16). nullptr = unlimited: the
  /// blocking operators buffer in memory exactly as before and never
  /// spill. With a tracker set, those operators reserve bytes as they
  /// buffer and switch to their out-of-core path when a reservation is
  /// refused.
  MemoryTracker* memory() const { return memory_; }
  void set_memory(MemoryTracker* tracker) { memory_ = tracker; }

  /// Query-scoped spill-file directory, shared by all operators (and
  /// parallel workers) of one execution. Must be set whenever memory() is.
  SpillManager* spill() const { return spill_; }
  void set_spill(SpillManager* spill) { spill_ = spill; }

  /// Pushes a group binding for `var`. `binding.schema` and the bound rows
  /// (and offsets, for a segmented binding) must outlive the binding.
  void BindGroup(const std::string& var, const GroupBinding& binding) {
    groups_[var].push_back(binding);
  }

  /// Binds one group held as a row vector.
  void BindGroup(const std::string& var, const Schema* schema,
                 const std::vector<Row>* rows) {
    GroupBinding binding;
    binding.schema = schema;
    binding.rows = rows->data();
    binding.num_rows = rows->size();
    BindGroup(var, binding);
  }

  /// Pops the innermost binding for `var`.
  Status UnbindGroup(const std::string& var) {
    auto it = groups_.find(var);
    if (it == groups_.end() || it->second.empty()) {
      return Status::Internal("unbind of unbound group variable: " + var);
    }
    it->second.pop_back();
    if (it->second.empty()) groups_.erase(it);
    return Status::OK();
  }

  /// Innermost binding for `var`.
  Result<GroupBinding> GetGroup(const std::string& var) const {
    auto it = groups_.find(var);
    if (it == groups_.end() || it->second.empty()) {
      return Status::Internal("group variable not bound: " + var);
    }
    return it->second.back();
  }

  /// Snapshot for a parallel worker: copies the group-binding stacks and
  /// the correlated-row stack (both hold non-owning pointers the parent
  /// must keep alive for the worker's lifetime). The worker mutates only
  /// its own copy, so enclosing Apply / GApply bindings stay visible while
  /// per-worker bindings stay private.
  ExecContext ForkForWorker() const {
    ExecContext child;
    child.eval_ = eval_;
    child.groups_ = groups_;
    child.batch_size_ = batch_size_;
    child.thread_pool_ = thread_pool_;
    // Workers share the query's budget and spill directory: both are
    // thread-safe, and per-worker budgets would let DOP N use N× the
    // memory the user granted the query.
    child.memory_ = memory_;
    child.spill_ = spill_;
    // The profiling flag is inherited; the consumer stack is not — a worker
    // starts at the root of its own cloned subplan.
    child.profiling_ = profiling_;
    return child;
  }

 private:
  EvalContext eval_;
  std::map<std::string, std::vector<GroupBinding>> groups_;
  size_t batch_size_ = RowBatch::kDefaultCapacity;
  ThreadPool* thread_pool_ = nullptr;
  MemoryTracker* memory_ = nullptr;
  SpillManager* spill_ = nullptr;
  bool profiling_ = false;
  std::vector<PhysOp*> profiler_consumers_;
};

}  // namespace gapply

#endif  // GAPPLY_EXEC_EXEC_CONTEXT_H_
