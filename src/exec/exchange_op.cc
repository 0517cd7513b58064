#include "src/exec/exchange_op.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <utility>

#include "src/common/thread_pool.h"
#include "src/exec/filter_project_ops.h"
#include "src/exec/join_ops.h"

namespace gapply {

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

TableScanOp* FindExchangeMorselSource(PhysOp* op) {
  if (auto* scan = dynamic_cast<TableScanOp*>(op)) return scan;
  // Only the order-preserving streaming operators qualify for the spine:
  // they never latch end-of-stream, so the segment can be re-pulled after
  // the scan is re-armed with the next morsel, and their output order is a
  // function of input order, so per-morsel buffers concatenate to exactly
  // the serial stream. A blocking operator (Sort, aggregation) would
  // consume the scan's initial — empty — morsel range at Open instead.
  if (dynamic_cast<FilterOp*>(op) == nullptr &&
      dynamic_cast<ProjectOp*>(op) == nullptr &&
      dynamic_cast<HashJoinOp*>(op) == nullptr &&
      dynamic_cast<LookupJoinOp*>(op) == nullptr) {
    return nullptr;
  }
  std::vector<const PhysOp*> kids = op->children();
  if (kids.empty()) return nullptr;
  // children()[0] is Filter/Project's input and a join's probe side; a
  // HashJoin's build side is drained wholesale at Open and may be any
  // subplan, and a LookupJoin reads its build table in place. The walk
  // only ever descends into operators this Exchange owns, so shedding
  // constness is safe.
  return FindExchangeMorselSource(const_cast<PhysOp*>(kids[0]));
}

ExchangeOp::ExchangeOp(PhysOpPtr child, size_t parallelism,
                       size_t morsel_rows)
    : PhysOp(child->output_schema()),
      child_(std::move(child)),
      parallelism_(std::max<size_t>(1, parallelism)),
      morsel_rows_(std::max<size_t>(1, morsel_rows)) {}

Status ExchangeOp::OpenImpl(ExecContext* ctx) {
  passthrough_ = true;
  effective_dop_ = 1;
  worker_rows_.clear();
  slots_.clear();
  current_slot_ = 0;
  slot_pos_ = 0;

  TableScanOp* scan = FindExchangeMorselSource(child_.get());
  if (scan == nullptr) {
    return Status::Internal(
        "Exchange child is not a streaming segment over a table scan: " +
        child_->DebugName());
  }
  const size_t num_morsels =
      (scan->num_rows() + morsel_rows_ - 1) / morsel_rows_;
  if (parallelism_ <= 1 || num_morsels <= 1) {
    // Degenerate: stream the child directly, no clones, no buffering.
    return child_->Open(ctx);
  }
  passthrough_ = false;
  return OpenParallel(ctx, scan);
}

Status ExchangeOp::OpenParallel(ExecContext* ctx, TableScanOp* scan) {
  const uint64_t t0 = ctx->profiling() ? NowNs() : 0;
  const size_t num_morsels =
      (scan->num_rows() + morsel_rows_ - 1) / morsel_rows_;
  const size_t dop = std::min(parallelism_, num_morsels);
  effective_dop_ = dop;
  slots_.assign(num_morsels, {});
  worker_rows_.assign(dop, 0);

  struct WorkerState {
    PhysOpPtr segment;
    TableScanOp* scan = nullptr;
    ExecContext ctx;
    Status error = Status::OK();
    // Deterministic error ordering: 0 = segment Open failed (serially that
    // precedes all morsel work), m + 1 = error while draining morsel m,
    // UINT64_MAX = Close failed.
    uint64_t error_rank = 0;
    bool failed = false;
  };
  std::vector<WorkerState> workers(dop);
  for (WorkerState& w : workers) {
    w.segment = child_->Clone();
    w.scan = FindExchangeMorselSource(w.segment.get());
    w.ctx = ctx->ForkForWorker();
  }

  // Workers claim morsel indices through a monotone cursor and abort only
  // *between* morsels, so every morsel below any claimed index runs to
  // completion — the invariant that makes smallest-failing-morsel error
  // selection reproduce the error serial execution hits first.
  std::atomic<size_t> next_morsel{0};
  std::atomic<bool> abort{false};
  std::vector<std::function<void()>> tasks;
  tasks.reserve(dop);
  for (size_t wi = 0; wi < dop; ++wi) {
    tasks.push_back([this, &workers, &next_morsel, &abort, num_morsels, wi] {
      WorkerState& w = workers[wi];
      w.scan->EnableMorselMode();
      // Open runs inside the task so per-clone build work (a HashJoin build
      // side on the spine) is itself spread across the workers.
      Status st = w.segment->Open(&w.ctx);
      if (!st.ok()) {
        w.error = std::move(st);
        w.error_rank = 0;
        w.failed = true;
        abort.store(true, std::memory_order_relaxed);
        return;
      }
      RowBatch batch(w.ctx.batch_size());
      while (!abort.load(std::memory_order_relaxed)) {
        const size_t m = next_morsel.fetch_add(1, std::memory_order_relaxed);
        if (m >= num_morsels) break;
        Status arm = w.scan->SetMorsel(m * morsel_rows_, (m + 1) * morsel_rows_);
        if (!arm.ok()) {
          w.error = std::move(arm);
          w.error_rank = m + 1;
          w.failed = true;
          abort.store(true, std::memory_order_relaxed);
          break;
        }
        std::vector<Row>& slot = slots_[m];
        while (true) {
          auto has = w.segment->NextBatch(&w.ctx, &batch);
          if (!has.ok()) {
            w.error = has.status();
            w.error_rank = m + 1;
            w.failed = true;
            abort.store(true, std::memory_order_relaxed);
            break;
          }
          if (!*has) break;
          for (Row& row : batch.rows()) slot.push_back(std::move(row));
        }
        if (w.failed) break;
        worker_rows_[wi] += slot.size();
      }
      Status close = w.segment->Close(&w.ctx);
      if (!close.ok() && !w.failed) {
        w.error = std::move(close);
        w.error_rank = UINT64_MAX;
        w.failed = true;
        abort.store(true, std::memory_order_relaxed);
      }
    });
  }
  RunTaskGroup(ctx->thread_pool(), std::move(tasks));

  if (ctx->profiling()) {
    profile_.work.exchange_partition_ns += NowNs() - t0;
    uint64_t buffered_rows = 0;
    for (const std::vector<Row>& slot : slots_) buffered_rows += slot.size();
    // The worker clones were drained from bare contexts (no profiled
    // consumer); credit their output to this Exchange so rows_in matches
    // the merged segment's rows_out.
    profile_.rows_in += buffered_rows;
  }
  for (const WorkerState& w : workers) {
    child_->MergeTreeProfileFrom(*w.segment);
  }

  const WorkerState* first_failure = nullptr;
  for (const WorkerState& w : workers) {
    if (w.failed && (first_failure == nullptr ||
                     w.error_rank < first_failure->error_rank)) {
      first_failure = &w;
    }
  }
  if (first_failure != nullptr) return first_failure->error;
  return Status::OK();
}

Result<bool> ExchangeOp::NextBatchImpl(ExecContext* ctx, RowBatch* out) {
  if (passthrough_) return child_->NextBatch(ctx, out);
  const uint64_t t0 = ctx->profiling() ? NowNs() : 0;
  out->Clear();
  // Slice ranges straight out of the per-morsel buffers, preserving the
  // serial emission order (same slot-streaming shape as parallel GApply).
  while (current_slot_ < slots_.size() && !out->full()) {
    std::vector<Row>& rows = slots_[current_slot_];
    const size_t n =
        std::min(out->capacity() - out->size(), rows.size() - slot_pos_);
    for (size_t i = 0; i < n; ++i) {
      out->Add(std::move(rows[slot_pos_ + i]));
    }
    slot_pos_ += n;
    if (slot_pos_ >= rows.size()) {
      rows.clear();
      rows.shrink_to_fit();
      ++current_slot_;
      slot_pos_ = 0;
    }
  }
  if (ctx->profiling()) profile_.work.exchange_merge_ns += NowNs() - t0;
  return !out->empty();
}

Status ExchangeOp::CloseImpl(ExecContext* ctx) {
  slots_.clear();
  if (passthrough_) return child_->Close(ctx);
  return Status::OK();
}

std::string ExchangeOp::DebugName() const {
  return "Exchange(dop=" + std::to_string(parallelism_) +
         ", morsel=" + std::to_string(morsel_rows_) + ")";
}

PhysOpPtr ExchangeOp::Clone() const {
  return std::make_unique<ExchangeOp>(child_->Clone(), parallelism_,
                                      morsel_rows_);
}

}  // namespace gapply
