#ifndef GAPPLY_EXEC_PHYSICAL_OP_H_
#define GAPPLY_EXEC_PHYSICAL_OP_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/common/row_batch.h"
#include "src/exec/exec_context.h"
#include "src/storage/schema.h"

namespace gapply {

class SpillWriter;

/// Monotonic clock reading in nanoseconds: the one clock behind operator
/// profiles, phase timers and the session's per-layer timings.
uint64_t NowNs();

/// Per-operator runtime profile: the one place an operator's work is booked
/// (DESIGN.md §12).
///
/// `work` holds the operator's own work counters. The operator that does
/// the work books it there on every execution, profiled or not; the
/// NextBatch wrapper books the rows and batches every operator produces.
/// Only the timers in `work` (the `*_ns` and `gapply_worker*` fields) wait
/// for `ExecContext::profiling()`. Query totals are the sum over the tree
/// (SumWorkCounters).
///
/// The other fields are collected by the non-virtual PhysOp entry points
/// only while profiling is on. Their time fields are *cumulative*
/// (inclusive of children): the scoped timer around OpenImpl /
/// NextBatchImpl / CloseImpl also covers the child pulls those
/// implementations issue. Self time is derived at snapshot time
/// (profile.h) as cumulative minus the children's cumulative.
///
/// Parallel operators execute deep clones of a subtree on workers; after
/// every parallel execution the clones' profiles are folded back into the
/// template subtree with PhysOp::MergeTreeProfileFrom, bumping
/// workers_merged, so the template tree counts each clone's work exactly
/// once. A merged subtree's cumulative time is summed worker *busy* time
/// and may legitimately exceed its parent's wall-clock time.
struct OpRuntimeProfile {
  ExecContext::Counters work;
  uint64_t opens = 0;
  uint64_t batch_calls = 0;
  /// Rows this operator pulled from its children (credited by the child's
  /// entry point to the operator that called it, so it is measured
  /// independently of the children's rows_out).
  uint64_t rows_in = 0;
  uint64_t open_ns = 0;
  uint64_t next_ns = 0;  // NextBatch
  uint64_t close_ns = 0;
  /// Number of worker-clone profiles folded into this node (0 = executed
  /// in place, serially).
  uint64_t workers_merged = 0;
  /// Total bytecode instructions across this operator's compiled
  /// expression programs (Filter / Project / predicate-bearing TableScan);
  /// zero for operators without one.
  uint64_t expr_instructions = 0;
  /// Peak bytes this operator had reserved from the query's MemoryTracker
  /// (DESIGN.md §16); zero when it stayed unbudgeted.
  uint64_t peak_memory = 0;

  uint64_t rows_out() const { return work.batch_rows_produced; }
  uint64_t batches_out() const { return work.batches_produced; }
  uint64_t cumulative_ns() const { return open_ns + next_ns + close_ns; }

  void MergeFrom(const OpRuntimeProfile& other);
};

/// \brief Base class for Volcano-style physical operators.
///
/// Contract:
///  - `Open` prepares the operator; it must be callable again after `Close`
///    (Apply and GApply re-open their inner subplans once per outer row /
///    per group).
///  - `NextBatch` is the only way to pull rows: it clears `*out`, appends
///    rows, and returns true iff any were appended; false is end of stream.
///    A non-empty batch may be *partial*, but never holds more than
///    `out->capacity()` rows: an operator whose output for one input row
///    does not fit (the matches of one probe row, one group's PGQ output)
///    keeps a cursor and resumes on the next call. Streaming operators pull
///    their children at their own output capacity (ChildCursor below), so
///    a consumer that stops early — Exists pulls one 1-row batch — makes no
///    serial operator below it evaluate a row it did not need. Parallel
///    GApply runs all its groups in Open; DESIGN.md §8 lists the
///    exceptions.
///  - Pulling again after end of stream is allowed and returns false,
///    unless the source was re-armed in between (the Exchange morsel
///    spine, exchange_op.h).
///  - `Close` releases per-execution state.
class PhysOp {
 public:
  explicit PhysOp(Schema schema) : schema_(std::move(schema)) {}
  virtual ~PhysOp() = default;

  PhysOp(const PhysOp&) = delete;
  PhysOp& operator=(const PhysOp&) = delete;

  /// The three execution entry points are non-virtual: they dispatch to the
  /// protected *Impl virtuals, and when `ctx->profiling()` is on they wrap
  /// the call in a scoped timer plus rows_in accounting (see
  /// OpRuntimeProfile). With profiling off the wrapper is a single branch,
  /// plus NextBatch's booking of the batch it produced.
  Status Open(ExecContext* ctx) {
    if (!ctx->profiling()) return OpenImpl(ctx);
    return ProfiledOpen(ctx);
  }
  /// Fills `*out` with the next batch of rows; see the class contract.
  Result<bool> NextBatch(ExecContext* ctx, RowBatch* out) {
    Result<bool> produced = ctx->profiling() ? ProfiledNextBatch(ctx, out)
                                             : NextBatchImpl(ctx, out);
    if (produced.ok() && *produced) {
      profile_.work.batches_produced++;
      profile_.work.batch_rows_produced += out->size();
    }
    return produced;
  }
  Status Close(ExecContext* ctx) {
    if (!ctx->profiling()) return CloseImpl(ctx);
    return ProfiledClose(ctx);
  }

  const OpRuntimeProfile& runtime_profile() const { return profile_; }
  OpRuntimeProfile* mutable_runtime_profile() { return &profile_; }

  /// Folds the runtime profile of `other` — a structurally identical Clone
  /// of this operator tree that a parallel worker executed — into this
  /// tree, node by node. Parallel operators call it for every worker clone
  /// once the workers have been joined, so no synchronization is needed.
  void MergeTreeProfileFrom(const PhysOp& other);

  /// Optimizer cardinality estimate for this operator's output, stamped
  /// during lowering when a cost model is supplied (negative = unknown).
  /// EXPLAIN ANALYZE prints it next to the actual row count.
  double estimated_rows() const { return estimated_rows_; }
  void set_estimated_rows(double rows) { estimated_rows_ = rows; }

  /// Degree of parallelism this operator was configured with (1 for serial
  /// operators). Surfaced per node by the profiler.
  virtual size_t profile_dop() const { return 1; }

  /// Deep copy of the operator tree in its *pre-Open* configuration:
  /// children and expressions are cloned, runtime state (cursors, hash
  /// tables, materialized rows other than Values literals) is not. The
  /// clone shares only immutable inputs (base tables) with the original,
  /// so original and clone can be executed concurrently from different
  /// ExecContexts — the foundation of the parallel GApply path.
  virtual std::unique_ptr<PhysOp> Clone() const = 0;

  const Schema& output_schema() const { return schema_; }

  /// Operator name plus salient arguments, e.g. "HashJoin(l=[0], r=[1])".
  virtual std::string DebugName() const = 0;

  /// Child operators for plan printing (non-owning).
  virtual std::vector<const PhysOp*> children() const { return {}; }

  /// Indented multi-line plan rendering.
  std::string DebugString(int indent = 0) const;

 protected:
  virtual Status OpenImpl(ExecContext* ctx) = 0;
  virtual Result<bool> NextBatchImpl(ExecContext* ctx, RowBatch* out) = 0;
  virtual Status CloseImpl(ExecContext* ctx) = 0;

  /// Finishes a spill file and books its bytes into this operator's work.
  Status FinishSpillFile(SpillWriter* writer);
  /// FinishSpillFile on every writer; returns their paths in order.
  Result<std::vector<std::string>> FinishSpillFiles(
      const std::vector<std::unique_ptr<SpillWriter>>& writers);

  Schema schema_;
  OpRuntimeProfile profile_;

 private:
  Status ProfiledOpen(ExecContext* ctx);
  Result<bool> ProfiledNextBatch(ExecContext* ctx, RowBatch* out);
  Status ProfiledClose(ExecContext* ctx);

  double estimated_rows_ = -1.0;
};

using PhysOpPtr = std::unique_ptr<PhysOp>;

/// The query's work totals: every operator's `work` counters summed over
/// the (already executed) tree. Worker clones are not in the tree; their
/// work reached it through MergeTreeProfileFrom.
ExecContext::Counters SumWorkCounters(const PhysOp& root);

/// \brief Reads a child's output one row at a time, pulling it one batch at
/// a time. The cursor buffers at most one child batch; rows the caller has
/// not consumed when its own output fills wait there for the next call.
/// Each refill pulls a batch of the `capacity` the caller passes — its own
/// output capacity, per the class contract above. End of stream is not
/// latched: a drained cursor pulls its child again on every Peek, which an
/// Exchange morsel spine relies on when it re-arms its scan (exchange_op.h).
class ChildCursor {
 public:
  /// Forgets buffered rows; call before (re)opening the child.
  void Reset() {
    batch_.Clear();
    pos_ = 0;
  }
  /// The next unconsumed row, or nullptr at end of stream. The row may be
  /// moved from; it stays valid until the next Peek after Advance.
  Result<Row*> Peek(ExecContext* ctx, PhysOp* child, size_t capacity) {
    if (pos_ < batch_.size()) return &batch_[pos_];
    return Refill(ctx, child, capacity);
  }
  void Advance() { ++pos_; }

 private:
  Result<Row*> Refill(ExecContext* ctx, PhysOp* child, size_t capacity);

  RowBatch batch_;
  size_t pos_ = 0;
};

/// \brief Materialized result of executing a plan to completion.
struct QueryResult {
  Schema schema;
  std::vector<Row> rows;

  /// Tabular rendering (header + up to max_rows rows).
  std::string ToString(size_t max_rows = 50) const;
};

/// Runs root->Open / NextBatch* / Close and materializes all output rows.
/// Batches are sized by `ctx->batch_size()`.
Result<QueryResult> ExecuteToVector(PhysOp* root, ExecContext* ctx);

/// True iff the two row collections are equal as multisets (grouping
/// equality per value). Used pervasively by tests: the engine promises
/// multiset semantics, never order, unless an OrderBy/Sort is at the root.
bool SameRowMultiset(const std::vector<Row>& a, const std::vector<Row>& b);

/// True iff the two row collections are identical element by element —
/// same length, same order, grouping equality per value. This is the
/// bit-for-bit bar the engine's determinism guarantees are held to
/// (e.g. DOP N output must equal DOP 1 output exactly).
bool SameRowSequence(const std::vector<Row>& a, const std::vector<Row>& b);

/// Sorts rows into a canonical total order (by type rank, then value;
/// NULL first) so two equal multisets align row-for-row. Differential
/// harnesses use this to render the first divergent rows of a mismatch.
void SortRowsCanonical(std::vector<Row>* rows);

}  // namespace gapply

#endif  // GAPPLY_EXEC_PHYSICAL_OP_H_
