#include "src/exec/apply_ops.h"

namespace gapply {

ApplyOp::ApplyOp(PhysOpPtr outer, PhysOpPtr inner,
                 bool cache_uncorrelated_inner)
    : PhysOp(Schema::Concat(outer->output_schema(), inner->output_schema())),
      outer_(std::move(outer)),
      inner_(std::move(inner)),
      cache_inner_(cache_uncorrelated_inner) {}

Status ApplyOp::OpenImpl(ExecContext* ctx) {
  outer_rows_.Reset();
  inner_open_ = false;
  cache_valid_ = false;
  cache_.clear();
  return outer_->Open(ctx);
}

Status ApplyOp::CloseInner(ExecContext* ctx) {
  RETURN_NOT_OK(inner_->Close(ctx));
  ctx->eval()->outer_rows.pop_back();
  inner_open_ = false;
  return Status::OK();
}

Status ApplyOp::StartOuterRow(ExecContext* ctx, const Row& outer) {
  if (cache_inner_ && cache_valid_) {
    cache_pos_ = 0;
    inner_open_ = true;
    return Status::OK();
  }
  ctx->eval()->outer_rows.push_back(&outer);
  Status st = inner_->Open(ctx);
  if (!st.ok()) {
    ctx->eval()->outer_rows.pop_back();
    return st;
  }
  profile_.work.apply_invocations++;
  inner_open_ = true;
  inner_rows_.Reset();
  if (!cache_inner_) return Status::OK();
  // The inner does not depend on the outer row: evaluate it once and replay
  // it for every subsequent outer row of this execution.
  RowBatch batch(ctx->batch_size());
  while (true) {
    auto next = inner_->NextBatch(ctx, &batch);
    if (!next.ok()) {
      (void)CloseInner(ctx);
      return next.status();
    }
    if (!*next) break;
    for (Row& row : batch.rows()) cache_.push_back(std::move(row));
  }
  RETURN_NOT_OK(CloseInner(ctx));
  cache_valid_ = true;
  cache_pos_ = 0;
  inner_open_ = true;
  return Status::OK();
}

Result<const Row*> ApplyOp::NextInnerRow(ExecContext* ctx, size_t capacity) {
  if (cache_inner_) {
    return cache_pos_ < cache_.size() ? &cache_[cache_pos_++] : nullptr;
  }
  auto next = inner_rows_.Peek(ctx, inner_.get(), capacity);
  if (!next.ok()) {
    (void)CloseInner(ctx);
    return next.status();
  }
  if (*next != nullptr) inner_rows_.Advance();
  return *next;
}

Result<bool> ApplyOp::NextBatchImpl(ExecContext* ctx, RowBatch* out) {
  out->Clear();
  while (!out->full()) {
    ASSIGN_OR_RETURN(const Row* outer_row,
                     outer_rows_.Peek(ctx, outer_.get(), out->capacity()));
    if (outer_row == nullptr) break;
    if (!inner_open_) RETURN_NOT_OK(StartOuterRow(ctx, *outer_row));
    ASSIGN_OR_RETURN(const Row* inner_row, NextInnerRow(ctx, out->capacity()));
    if (inner_row == nullptr) {
      if (cache_inner_) {
        inner_open_ = false;
      } else {
        RETURN_NOT_OK(CloseInner(ctx));
      }
      outer_rows_.Advance();
      continue;
    }
    Row row;
    row.reserve(outer_row->size() + inner_row->size());
    row.insert(row.end(), outer_row->begin(), outer_row->end());
    row.insert(row.end(), inner_row->begin(), inner_row->end());
    out->Add(std::move(row));
  }
  return !out->empty();
}

Status ApplyOp::CloseImpl(ExecContext* ctx) {
  if (inner_open_ && !cache_inner_) RETURN_NOT_OK(CloseInner(ctx));
  inner_open_ = false;
  cache_.clear();
  cache_valid_ = false;
  outer_rows_.Reset();
  inner_rows_.Reset();
  return outer_->Close(ctx);
}

std::string ApplyOp::DebugName() const {
  return cache_inner_ ? "Apply(cached inner)" : "Apply";
}

PhysOpPtr ApplyOp::Clone() const {
  return std::make_unique<ApplyOp>(outer_->Clone(), inner_->Clone(),
                                   cache_inner_);
}

ExistsOp::ExistsOp(PhysOpPtr child, bool negated)
    : PhysOp(Schema()), child_(std::move(child)), negated_(negated) {}

Status ExistsOp::OpenImpl(ExecContext* ctx) {
  done_ = false;
  return child_->Open(ctx);
}

Result<bool> ExistsOp::NextBatchImpl(ExecContext* ctx, RowBatch* out) {
  out->Clear();
  if (done_) return false;
  done_ = true;
  ASSIGN_OR_RETURN(bool has, child_->NextBatch(ctx, &probe_));
  probe_.Clear();
  if (has == negated_) return false;
  out->Add(Row{});
  return true;
}

Status ExistsOp::CloseImpl(ExecContext* ctx) { return child_->Close(ctx); }

std::string ExistsOp::DebugName() const {
  return negated_ ? "NotExists" : "Exists";
}

PhysOpPtr ExistsOp::Clone() const {
  return std::make_unique<ExistsOp>(child_->Clone(), negated_);
}

Result<Schema> UnifySchemas(const std::vector<const Schema*>& schemas) {
  if (schemas.empty()) {
    return Status::InvalidArgument("union of zero branches");
  }
  const size_t arity = schemas[0]->num_columns();
  Schema out;
  for (size_t c = 0; c < arity; ++c) {
    TypeId unified = schemas[0]->column(c).type;
    for (size_t b = 1; b < schemas.size(); ++b) {
      if (schemas[b]->num_columns() != arity) {
        return Status::TypeError("union branches have different arity");
      }
      const TypeId t = schemas[b]->column(c).type;
      if (t == unified || t == TypeId::kNull) continue;
      if (unified == TypeId::kNull) {
        unified = t;
      } else if (IsNumeric(t) && IsNumeric(unified)) {
        unified = TypeId::kDouble;
      } else {
        return Status::TypeError(
            "union branch column " + std::to_string(c) +
            " has incompatible type " + TypeName(t) + " vs " +
            TypeName(unified));
      }
    }
    out.AddColumn(Column(schemas[0]->column(c).name, unified, ""));
  }
  return out;
}

UnionAllOp::UnionAllOp(Schema schema, std::vector<PhysOpPtr> children)
    : PhysOp(std::move(schema)), children_(std::move(children)) {}

Result<PhysOpPtr> UnionAllOp::Make(std::vector<PhysOpPtr> children) {
  std::vector<const Schema*> schemas;
  schemas.reserve(children.size());
  for (const PhysOpPtr& c : children) schemas.push_back(&c->output_schema());
  ASSIGN_OR_RETURN(Schema schema, UnifySchemas(schemas));
  return PhysOpPtr(new UnionAllOp(std::move(schema), std::move(children)));
}

Status UnionAllOp::OpenImpl(ExecContext* ctx) {
  current_ = 0;
  if (!children_.empty()) RETURN_NOT_OK(children_[0]->Open(ctx));
  return Status::OK();
}

Result<bool> UnionAllOp::NextBatchImpl(ExecContext* ctx, RowBatch* out) {
  out->Clear();
  // Forward the current branch's batches untouched; advance on EOS.
  while (current_ < children_.size()) {
    ASSIGN_OR_RETURN(bool has, children_[current_]->NextBatch(ctx, out));
    if (has) {
      return true;
    }
    RETURN_NOT_OK(children_[current_]->Close(ctx));
    ++current_;
    if (current_ < children_.size()) {
      RETURN_NOT_OK(children_[current_]->Open(ctx));
    }
  }
  return false;
}

Status UnionAllOp::CloseImpl(ExecContext* ctx) {
  // Children at indexes < current_ are already closed by NextBatch.
  if (current_ < children_.size()) {
    RETURN_NOT_OK(children_[current_]->Close(ctx));
    current_ = children_.size();
  }
  return Status::OK();
}

std::string UnionAllOp::DebugName() const {
  return "UnionAll(" + std::to_string(children_.size()) + " branches)";
}

PhysOpPtr UnionAllOp::Clone() const {
  std::vector<PhysOpPtr> branches;
  branches.reserve(children_.size());
  for (const PhysOpPtr& c : children_) branches.push_back(c->Clone());
  return PhysOpPtr(new UnionAllOp(schema_, std::move(branches)));
}

std::vector<const PhysOp*> UnionAllOp::children() const {
  std::vector<const PhysOp*> out;
  out.reserve(children_.size());
  for (const PhysOpPtr& c : children_) out.push_back(c.get());
  return out;
}

}  // namespace gapply
