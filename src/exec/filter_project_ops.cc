#include "src/exec/filter_project_ops.h"

#include <algorithm>
#include <filesystem>
#include <system_error>

namespace gapply {

FilterOp::FilterOp(PhysOpPtr child, ExprPtr predicate)
    : PhysOp(child->output_schema()),
      child_(std::move(child)),
      predicate_(std::move(predicate)) {}

Status FilterOp::OpenImpl(ExecContext* ctx) {
  child_batch_.Clear();
  if (program_ == nullptr) {
    ASSIGN_OR_RETURN(program_, ExprProgram::CompilePredicate(*predicate_));
  }
  profile_.expr_instructions = program_->num_instructions();
  return child_->Open(ctx);
}

Result<bool> FilterOp::NextBatchImpl(ExecContext* ctx, RowBatch* out) {
  out->Clear();
  if (child_batch_.capacity() != out->capacity()) {
    child_batch_ = RowBatch(out->capacity());
  }
  // Pull child batches until some row survives the predicate (or EOS). The
  // batch predicate evaluation plus the selection pass replace one virtual
  // call and one recursive Eval per input row.
  while (out->empty()) {
    ASSIGN_OR_RETURN(bool has, child_->NextBatch(ctx, &child_batch_));
    if (!has) return false;
    RETURN_NOT_OK(
        program_->EvalPredicateBatch(child_batch_, *ctx->eval(), &keep_));
    for (size_t i = 0; i < child_batch_.size(); ++i) {
      if (keep_[i]) out->Add(std::move(child_batch_[i]));
    }
  }
  return true;
}

Status FilterOp::CloseImpl(ExecContext* ctx) { return child_->Close(ctx); }

std::string FilterOp::DebugName() const {
  return "Filter(" + predicate_->ToString() + ")";
}

PhysOpPtr FilterOp::Clone() const {
  return std::make_unique<FilterOp>(child_->Clone(), predicate_->Clone());
}

ProjectOp::ProjectOp(Schema schema, PhysOpPtr child,
                     std::vector<ExprPtr> exprs)
    : PhysOp(std::move(schema)),
      child_(std::move(child)),
      exprs_(std::move(exprs)) {}

Result<PhysOpPtr> ProjectOp::Make(PhysOpPtr child, std::vector<ExprPtr> exprs,
                                  std::vector<std::string> names) {
  if (exprs.size() != names.size()) {
    return Status::InvalidArgument("Project: exprs/names size mismatch");
  }
  Schema schema;
  for (size_t i = 0; i < exprs.size(); ++i) {
    schema.AddColumn(Column(names[i], exprs[i]->type(), ""));
  }
  return PhysOpPtr(
      new ProjectOp(std::move(schema), std::move(child), std::move(exprs)));
}

Status ProjectOp::OpenImpl(ExecContext* ctx) {
  child_batch_.Clear();
  if (programs_.size() != exprs_.size()) {
    std::vector<std::unique_ptr<ExprProgram>> programs;
    for (const ExprPtr& e : exprs_) {
      ASSIGN_OR_RETURN(std::unique_ptr<ExprProgram> program,
                       ExprProgram::Compile(*e));
      programs.push_back(std::move(program));
    }
    programs_ = std::move(programs);
  }
  profile_.expr_instructions = 0;
  for (const auto& p : programs_) {
    profile_.expr_instructions += p->num_instructions();
  }
  return child_->Open(ctx);
}

Result<bool> ProjectOp::NextBatchImpl(ExecContext* ctx, RowBatch* out) {
  out->Clear();
  if (child_batch_.capacity() != out->capacity()) {
    child_batch_ = RowBatch(out->capacity());
  }
  ASSIGN_OR_RETURN(bool has, child_->NextBatch(ctx, &child_batch_));
  if (!has) return false;
  // Evaluate expression-at-a-time over the batch, then zip the columns
  // back into rows.
  columns_.resize(exprs_.size());
  for (size_t e = 0; e < exprs_.size(); ++e) {
    RETURN_NOT_OK(
        programs_[e]->EvalBatch(child_batch_, *ctx->eval(), &columns_[e]));
  }
  for (size_t i = 0; i < child_batch_.size(); ++i) {
    Row row;
    row.reserve(exprs_.size());
    for (size_t e = 0; e < exprs_.size(); ++e) {
      row.push_back(std::move(columns_[e][i]));
    }
    out->Add(std::move(row));
  }
  return true;
}

Status ProjectOp::CloseImpl(ExecContext* ctx) { return child_->Close(ctx); }

std::string ProjectOp::DebugName() const {
  std::string out = "Project(";
  for (size_t i = 0; i < exprs_.size(); ++i) {
    if (i > 0) out += ", ";
    out += exprs_[i]->ToString();
  }
  out += ")";
  return out;
}

PhysOpPtr ProjectOp::Clone() const {
  std::vector<ExprPtr> exprs;
  exprs.reserve(exprs_.size());
  for (const ExprPtr& e : exprs_) exprs.push_back(e->Clone());
  // Worker clones compile their own programs.
  return PhysOpPtr(new ProjectOp(schema_, child_->Clone(), std::move(exprs)));
}

int CompareForSort(const Value& a, const Value& b) {
  if (a.is_null() && b.is_null()) return 0;
  if (a.is_null()) return -1;
  if (b.is_null()) return 1;
  Result<int> c = Value::Compare(a, b);
  if (c.ok()) return *c;
  // Incomparable types: order by type tag for a stable total order.
  const int ta = static_cast<int>(a.type());
  const int tb = static_cast<int>(b.type());
  return ta < tb ? -1 : (ta > tb ? 1 : 0);
}

SortOp::SortOp(PhysOpPtr child, std::vector<SortKey> keys)
    : PhysOp(child->output_schema()),
      child_(std::move(child)),
      keys_(std::move(keys)) {}

int SortOp::CompareRows(const Row& a, const Row& b) const {
  for (const SortKey& k : keys_) {
    const int c = CompareForSort(a[static_cast<size_t>(k.column)],
                                 b[static_cast<size_t>(k.column)]);
    if (c != 0) return k.ascending ? c : -c;
  }
  return 0;
}

void SortOp::SortBuffer() {
  std::stable_sort(rows_.begin(), rows_.end(),
                   [this](const Row& a, const Row& b) {
                     return CompareRows(a, b) < 0;
                   });
}

Status SortOp::SpillRun(ExecContext* ctx) {
  SortBuffer();
  ASSIGN_OR_RETURN(std::string path, ctx->spill()->NewFilePath());
  ASSIGN_OR_RETURN(std::unique_ptr<SpillWriter> writer,
                   SpillWriter::Open(path));
  for (const Row& row : rows_) {
    RETURN_NOT_OK(writer->WriteRow(row));
  }
  RETURN_NOT_OK(FinishSpillFile(writer.get()));
  run_files_.push_back(path);
  rows_.clear();
  mem_.ReleaseAll();
  return Status::OK();
}

Status SortOp::OpenImpl(ExecContext* ctx) {
  rows_.clear();
  pos_ = 0;
  spilled_ = false;
  run_files_.clear();
  run_heads_.clear();
  const bool budgeted = ctx->memory() != nullptr && ctx->spill() != nullptr;
  mem_.Reset(budgeted ? ctx->memory() : nullptr);

  RETURN_NOT_OK(child_->Open(ctx));
  RowBatch batch(ctx->batch_size());
  uint64_t total_rows = 0;
  while (true) {
    ASSIGN_OR_RETURN(bool has, child_->NextBatch(ctx, &batch));
    if (!has) break;
    for (Row& row : batch.rows()) {
      if (budgeted) {
        const size_t bytes = ApproxRowBytes(row);
        if (!mem_.TryGrow(bytes)) {
          // Spill trigger: flush the buffered prefix as a sorted run. The
          // row that tripped the budget still has to be buffered (ForceGrow
          // handles the single-row-larger-than-budget edge).
          RETURN_NOT_OK(SpillRun(ctx));
          if (!mem_.TryGrow(bytes)) mem_.ForceGrow(bytes);
        }
      }
      rows_.push_back(std::move(row));
      ++total_rows;
    }
  }
  RETURN_NOT_OK(child_->Close(ctx));
  profile_.work.rows_sorted += total_rows;
  profile_.peak_memory = std::max<uint64_t>(profile_.peak_memory, mem_.peak());

  // The final buffer stays in memory as the highest-indexed run.
  SortBuffer();
  if (run_files_.empty()) return Status::OK();

  spilled_ = true;
  run_heads_.resize(run_files_.size());
  for (size_t r = 0; r < run_files_.size(); ++r) {
    ASSIGN_OR_RETURN(run_heads_[r].reader, SpillReader::Open(run_files_[r]));
    ASSIGN_OR_RETURN(bool has, run_heads_[r].reader->ReadRow(
                                   &run_heads_[r].row));
    run_heads_[r].done = !has;
  }
  return Status::OK();
}

Result<bool> SortOp::MergeNext(Row* out) {
  // Smallest head wins; ties break toward the lowest run index, and the
  // in-memory buffer (the last input segment) loses all ties — together
  // reproducing stable sort over the full input.
  int best = -1;
  for (size_t r = 0; r < run_heads_.size(); ++r) {
    if (run_heads_[r].done) continue;
    if (best < 0 ||
        CompareRows(run_heads_[r].row,
                    run_heads_[static_cast<size_t>(best)].row) < 0) {
      best = static_cast<int>(r);
    }
  }
  const bool have_mem = pos_ < rows_.size();
  if (best < 0 && !have_mem) return false;
  if (best >= 0 &&
      (!have_mem ||
       CompareRows(run_heads_[static_cast<size_t>(best)].row, rows_[pos_]) <=
           0)) {
    RunHead& head = run_heads_[static_cast<size_t>(best)];
    *out = std::move(head.row);
    ASSIGN_OR_RETURN(bool has, head.reader->ReadRow(&head.row));
    head.done = !has;
    return true;
  }
  *out = std::move(rows_[pos_++]);
  return true;
}

Result<bool> SortOp::NextBatchImpl(ExecContext*, RowBatch* out) {
  out->Clear();
  if (spilled_) {
    Row row;
    while (!out->full()) {
      ASSIGN_OR_RETURN(bool has, MergeNext(&row));
      if (!has) break;
      out->Add(std::move(row));
    }
    return !out->empty();
  }
  if (pos_ >= rows_.size()) return false;
  const size_t n = std::min(out->capacity(), rows_.size() - pos_);
  for (size_t i = 0; i < n; ++i) {
    out->Add(std::move(rows_[pos_ + i]));
  }
  pos_ += n;
  return true;
}

Status SortOp::CloseImpl(ExecContext*) {
  rows_.clear();
  run_heads_.clear();
  // Run files are deleted eagerly: a Sort inside a re-opened per-group
  // query would otherwise pile one run set per group into the query's
  // spill directory until the query finishes.
  for (const std::string& path : run_files_) {
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
  run_files_.clear();
  spilled_ = false;
  mem_.ReleaseAll();
  return Status::OK();
}

std::string SortOp::DebugName() const {
  std::string out = "Sort(";
  for (size_t i = 0; i < keys_.size(); ++i) {
    if (i > 0) out += ", ";
    out += schema_.column(static_cast<size_t>(keys_[i].column)).name;
    if (!keys_[i].ascending) out += " desc";
  }
  out += ")";
  return out;
}

PhysOpPtr SortOp::Clone() const {
  return std::make_unique<SortOp>(child_->Clone(), keys_);
}

}  // namespace gapply
