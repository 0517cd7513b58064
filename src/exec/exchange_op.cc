#include "src/exec/exchange_op.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "src/common/thread_pool.h"
#include "src/exec/filter_project_ops.h"
#include "src/exec/join_ops.h"

namespace gapply {

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
  slots_.Reset(0);

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
  return OpenParallel(ctx, num_morsels);
}

Status ExchangeOp::OpenParallel(ExecContext* ctx, size_t num_morsels) {
  const uint64_t t0 = ctx->profiling() ? NowNs() : 0;
  const size_t dop = std::min(parallelism_, num_morsels);
  effective_dop_ = dop;
  slots_.Reset(num_morsels);
  worker_rows_.assign(dop, 0);

  struct WorkerState {
    PhysOpPtr segment;
    TableScanOp* scan = nullptr;
    ExecContext ctx;
    RowBatch batch;
  };
  std::vector<WorkerState> workers(dop);
  for (WorkerState& w : workers) {
    w.segment = child_->Clone();
    w.scan = FindExchangeMorselSource(w.segment.get());
    w.ctx = ctx->ForkForWorker();
    w.batch = RowBatch(w.ctx.batch_size());
  }

  // Each worker opens its clone once, drains every morsel it claims into
  // that morsel's slot, then closes the clone. Serially the segment Open
  // precedes all morsel work and its Close follows it, which is how
  // FanOutUnits ranks open and close failures against morsel failures.
  FanOutHooks hooks;
  hooks.open = [&workers](size_t w) {
    workers[w].scan->EnableMorselMode();
    // Open runs on the worker so per-clone build work (a HashJoin build
    // side on the spine) is itself spread across the workers.
    return workers[w].segment->Open(&workers[w].ctx);
  };
  hooks.close = [&workers](size_t w) {
    return workers[w].segment->Close(&workers[w].ctx);
  };
  Status st = FanOutUnits(
      ctx->thread_pool(), dop, num_morsels,
      [this, &workers](size_t wi, size_t m) -> Status {
        WorkerState& w = workers[wi];
        RETURN_NOT_OK(
            w.scan->SetMorsel(m * morsel_rows_, (m + 1) * morsel_rows_));
        std::vector<Row>& slot = slots_[m];
        while (true) {
          ASSIGN_OR_RETURN(bool has, w.segment->NextBatch(&w.ctx, &w.batch));
          if (!has) break;
          for (Row& row : w.batch.rows()) slot.push_back(std::move(row));
        }
        worker_rows_[wi] += slot.size();
        return Status::OK();
      },
      hooks);

  if (ctx->profiling()) {
    profile_.work.exchange_partition_ns += NowNs() - t0;
    // The worker clones were drained from bare contexts (no profiled
    // consumer); credit their output to this Exchange so rows_in matches
    // the merged segment's rows_out.
    profile_.rows_in += slots_.num_rows();
  }
  for (const WorkerState& w : workers) {
    child_->MergeTreeProfileFrom(*w.segment);
  }
  return st;
}

Result<bool> ExchangeOp::NextBatchImpl(ExecContext* ctx, RowBatch* out) {
  if (passthrough_) return child_->NextBatch(ctx, out);
  const uint64_t t0 = ctx->profiling() ? NowNs() : 0;
  // The per-morsel slots concatenate, in morsel order, to the serial stream.
  const bool has = slots_.Drain(out);
  if (ctx->profiling()) profile_.work.exchange_merge_ns += NowNs() - t0;
  return has;
}

Status ExchangeOp::CloseImpl(ExecContext* ctx) {
  slots_.Reset(0);
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
