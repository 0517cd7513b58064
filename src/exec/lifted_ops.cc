#include "src/exec/lifted_ops.h"

#include <algorithm>
#include <utility>

#include "src/exec/apply_ops.h"

namespace gapply {

namespace {

constexpr const char* kGidColumn = "__gid";

/// Appends the trailing gid column to a per-group schema.
Schema WithGidColumn(const Schema& schema) {
  Schema out = schema;
  out.AddColumn(Column(kGidColumn, TypeId::kInt64, ""));
  return out;
}

/// Materializes `columns` of group row `src`, with room for `reserve`
/// values in total.
Row SegmentRow(const Row& src, const std::vector<int>& columns,
               size_t reserve) {
  Row row;
  row.reserve(reserve);
  for (int c : columns) {
    row.push_back(c >= 0 ? src[static_cast<size_t>(c)] : Value());
  }
  return row;
}

Result<std::pair<size_t, size_t>> BoundGidRange(ExecContext* ctx,
                                                const std::string& var) {
  ASSIGN_OR_RETURN(GroupBinding binding, ctx->GetGroup(var));
  if (!binding.segmented()) {
    return Status::Internal("lifted operator over unsegmented binding of " +
                            var);
  }
  return std::make_pair(binding.first_gid, binding.end_gid);
}

std::string AggList(const std::vector<AggregateDesc>& aggs) {
  std::string out;
  for (const AggregateDesc& a : aggs) out += ", " + a.ToString();
  return out;
}

Schema AggSchema(const std::vector<AggregateDesc>& aggs) {
  Schema out;
  for (const AggregateDesc& a : aggs) {
    out.AddColumn(Column(a.output_name, a.OutputType(), ""));
  }
  return WithGidColumn(out);
}

Schema ApplySchema(const Schema& outer, const Schema& inner) {
  Schema out;
  for (size_t i = 0; i + 1 < outer.num_columns(); ++i) {
    out.AddColumn(outer.column(i));
  }
  return Schema::Concat(out, inner);
}

}  // namespace

// --- SegmentScan -------------------------------------------------------------

Status SegmentCursor::Open(ExecContext* ctx, const std::string& var,
                           size_t group_arity) {
  ASSIGN_OR_RETURN(binding_, ctx->GetGroup(var));
  if (!binding_.segmented()) {
    return Status::Internal("segmented read of unsegmented binding of " + var);
  }
  if (binding_.schema->num_columns() != group_arity) {
    return Status::Internal(
        "group variable " + var + " bound with arity " +
        std::to_string(binding_.schema->num_columns()) + ", plan expects " +
        std::to_string(group_arity));
  }
  pos_ = binding_.begin();
  gid_ = binding_.first_gid;
  return Status::OK();
}

SegmentScanOp::SegmentScanOp(std::string var_name, size_t group_arity,
                             std::vector<int> columns,
                             const Schema& schema)
    : PhysOp(WithGidColumn(schema)),
      var_name_(std::move(var_name)),
      group_arity_(group_arity),
      columns_(std::move(columns)) {}

Status SegmentScanOp::OpenImpl(ExecContext* ctx) {
  return cursor_.Open(ctx, var_name_, group_arity_);
}

Result<bool> SegmentScanOp::NextBatchImpl(ExecContext*, RowBatch* out) {
  out->Clear();
  while (!out->full() && !cursor_.done()) {
    Row row = SegmentRow(cursor_.row(), columns_, columns_.size() + 1);
    row.push_back(Value::Int(static_cast<int64_t>(cursor_.gid())));
    out->Add(std::move(row));
    cursor_.Advance();
  }
  if (out->empty()) return false;
  profile_.work.group_rows_scanned += out->size();
  return true;
}

Status SegmentScanOp::CloseImpl(ExecContext*) {
  cursor_.Close();
  return Status::OK();
}

std::string SegmentScanOp::DebugName() const {
  std::string out = "GroupScan(segmented $" + var_name_;
  bool whole_row = columns_.size() == group_arity_;
  for (size_t c = 0; c < columns_.size(); ++c) {
    if (columns_[c] != static_cast<int>(c)) whole_row = false;
  }
  if (!whole_row) {
    out += ", cols=[";
    for (size_t c = 0; c < columns_.size(); ++c) {
      if (c > 0) out += ", ";
      out += columns_[c] >= 0 ? schema_.column(c).name : "NULL";
    }
    out += "]";
  }
  return out + ")";
}

PhysOpPtr SegmentScanOp::Clone() const {
  Schema schema;
  for (size_t i = 0; i < columns_.size(); ++i) {
    schema.AddColumn(schema_.column(i));
  }
  return std::make_unique<SegmentScanOp>(var_name_, group_arity_, columns_,
                                         schema);
}

// --- SegmentAgg --------------------------------------------------------------

SegmentAggOp::SegmentAggOp(PhysOpPtr child, std::vector<AggregateDesc> aggs,
                           std::string var_name)
    : PhysOp(AggSchema(aggs)),
      child_(std::move(child)),
      aggs_(std::move(aggs)),
      var_name_(std::move(var_name)) {}

Status SegmentAggOp::OpenImpl(ExecContext* ctx) {
  ASSIGN_OR_RETURN(binding_, ctx->GetGroup(var_name_));
  if (!binding_.segmented()) {
    return Status::Internal("segmented ScalarAgg over unsegmented binding of " +
                            var_name_);
  }
  next_gid_ = binding_.first_gid;
  cursor_.Reset();
  return child_ == nullptr ? Status::OK() : child_->Open(ctx);
}

Result<bool> SegmentAggOp::NextBatchImpl(ExecContext* ctx, RowBatch* out) {
  out->Clear();
  while (!out->full() && next_gid_ < binding_.end_gid) {
    std::vector<std::unique_ptr<AggAccumulator>> accs = MakeAccumulators(aggs_);
    if (child_ == nullptr) {
      const size_t end = binding_.offsets[next_gid_ + 1];
      for (size_t i = binding_.offsets[next_gid_]; i < end; ++i) {
        RETURN_NOT_OK(
            AccumulateRow(aggs_, accs, binding_.rows[i], *ctx->eval()));
      }
      profile_.work.group_rows_scanned += end - binding_.offsets[next_gid_];
    } else {
      while (true) {
        ASSIGN_OR_RETURN(const Row* head,
                         cursor_.Peek(ctx, child_.get(), out->capacity()));
        if (head == nullptr || GidOf(*head) != next_gid_) break;
        RETURN_NOT_OK(AccumulateRow(aggs_, accs, *head, *ctx->eval()));
        cursor_.Advance();
      }
    }
    Row row;
    row.reserve(aggs_.size() + 1);
    for (const auto& acc : accs) row.push_back(acc->Finish());
    row.push_back(Value::Int(static_cast<int64_t>(next_gid_++)));
    out->Add(std::move(row));
  }
  return !out->empty();
}

Status SegmentAggOp::CloseImpl(ExecContext* ctx) {
  cursor_.Reset();
  binding_ = GroupBinding();
  return child_ == nullptr ? Status::OK() : child_->Close(ctx);
}

std::vector<const PhysOp*> SegmentAggOp::children() const {
  if (child_ == nullptr) return {};
  return {child_.get()};
}

std::string SegmentAggOp::DebugName() const {
  return "ScalarAgg(segmented" +
         std::string(child_ == nullptr ? " $" + var_name_ : "") +
         AggList(aggs_) + ")";
}

PhysOpPtr SegmentAggOp::Clone() const {
  return std::make_unique<SegmentAggOp>(
      child_ == nullptr ? nullptr : child_->Clone(), CloneAggregates(aggs_),
      var_name_);
}

// --- SegmentExists -----------------------------------------------------------

SegmentExistsOp::SegmentExistsOp(PhysOpPtr child, bool negated,
                                 std::string var_name)
    : PhysOp(WithGidColumn(Schema())),
      child_(std::move(child)),
      negated_(negated),
      var_name_(std::move(var_name)) {}

Status SegmentExistsOp::OpenImpl(ExecContext* ctx) {
  ASSIGN_OR_RETURN(auto range, BoundGidRange(ctx, var_name_));
  next_gid_ = range.first;
  end_gid_ = range.second;
  cursor_.Reset();
  return child_->Open(ctx);
}

Result<bool> SegmentExistsOp::NextBatchImpl(ExecContext* ctx, RowBatch* out) {
  out->Clear();
  while (!out->full() && next_gid_ < end_gid_) {
    bool nonempty = false;
    while (true) {
      ASSIGN_OR_RETURN(const Row* head,
                       cursor_.Peek(ctx, child_.get(), out->capacity()));
      if (head == nullptr || GidOf(*head) != next_gid_) break;
      nonempty = true;
      cursor_.Advance();
    }
    if (nonempty != negated_) {
      out->Add(Row{Value::Int(static_cast<int64_t>(next_gid_))});
    }
    ++next_gid_;
  }
  return !out->empty();
}

Status SegmentExistsOp::CloseImpl(ExecContext* ctx) {
  cursor_.Reset();
  return child_->Close(ctx);
}

std::string SegmentExistsOp::DebugName() const {
  return negated_ ? "NotExists(segmented)" : "Exists(segmented)";
}

PhysOpPtr SegmentExistsOp::Clone() const {
  return std::make_unique<SegmentExistsOp>(child_->Clone(), negated_,
                                           var_name_);
}

// --- GidApply ----------------------------------------------------------------

GidApplyOp::GidApplyOp(PhysOpPtr outer, PhysOpPtr inner)
    : PhysOp(ApplySchema(outer->output_schema(), inner->output_schema())),
      outer_(std::move(outer)),
      inner_(std::move(inner)) {}

GidApplyOp::GidApplyOp(std::string var_name, size_t group_arity,
                       std::vector<int> outer_columns,
                       const Schema& outer_schema, PhysOpPtr inner)
    : PhysOp(Schema::Concat(outer_schema, inner->output_schema())),
      inner_(std::move(inner)),
      var_name_(std::move(var_name)),
      group_arity_(group_arity),
      outer_columns_(std::move(outer_columns)) {}

Status GidApplyOp::OpenImpl(ExecContext* ctx) {
  outer_rows_.Reset();
  inner_cursor_.Reset();
  inner_rows_.clear();
  inner_loaded_ = false;
  inner_pos_ = 0;
  if (outer_ == nullptr) {
    RETURN_NOT_OK(segments_.Open(ctx, var_name_, group_arity_));
  } else {
    RETURN_NOT_OK(outer_->Open(ctx));
  }
  return inner_->Open(ctx);
}

Status GidApplyOp::LoadInner(ExecContext* ctx, size_t gid, size_t capacity) {
  if (inner_loaded_ && inner_gid_ == gid) return Status::OK();
  inner_rows_.clear();
  inner_gid_ = gid;
  inner_loaded_ = true;
  while (true) {
    ASSIGN_OR_RETURN(Row* head,
                     inner_cursor_.Peek(ctx, inner_.get(), capacity));
    if (head == nullptr || GidOf(*head) > gid) break;
    if (GidOf(*head) == gid) inner_rows_.push_back(std::move(*head));
    inner_cursor_.Advance();
  }
  return Status::OK();
}

Result<bool> GidApplyOp::NextBatchImpl(ExecContext* ctx, RowBatch* out) {
  out->Clear();
  const size_t outer_arity = schema_.num_columns() -
                             inner_->output_schema().num_columns();
  uint64_t outer_rows = 0;
  while (!out->full()) {
    // The current outer row, from the buffer or the outer child.
    const Row* o = nullptr;
    size_t gid = 0;
    if (outer_ == nullptr) {
      if (segments_.done()) break;
      o = &segments_.row();
      gid = segments_.gid();
    } else {
      ASSIGN_OR_RETURN(o, outer_rows_.Peek(ctx, outer_.get(), out->capacity()));
      if (o == nullptr) break;
      gid = GidOf(*o);
    }
    RETURN_NOT_OK(LoadInner(ctx, gid, out->capacity()));
    for (; inner_pos_ < inner_rows_.size() && !out->full(); ++inner_pos_) {
      const Row& i = inner_rows_[inner_pos_];
      Row row;
      if (outer_ == nullptr) {
        row = SegmentRow(*o, outer_columns_, outer_arity + i.size());
      } else {
        row.reserve(outer_arity + i.size());
        row.insert(row.end(), o->begin(), o->begin() + outer_arity);
      }
      row.insert(row.end(), i.begin(), i.end());
      out->Add(std::move(row));
    }
    if (inner_pos_ < inner_rows_.size()) break;  // resume mid-row
    inner_pos_ = 0;
    if (outer_ == nullptr) {
      segments_.Advance();
      ++outer_rows;
    } else {
      outer_rows_.Advance();
    }
  }
  profile_.work.group_rows_scanned += outer_rows;
  return !out->empty();
}

Status GidApplyOp::CloseImpl(ExecContext* ctx) {
  inner_rows_.clear();
  outer_rows_.Reset();
  inner_cursor_.Reset();
  segments_.Close();
  Status outer = outer_ == nullptr ? Status::OK() : outer_->Close(ctx);
  Status inner = inner_->Close(ctx);
  RETURN_NOT_OK(outer);
  return inner;
}

std::vector<const PhysOp*> GidApplyOp::children() const {
  if (outer_ == nullptr) return {inner_.get()};
  return {outer_.get(), inner_.get()};
}

std::string GidApplyOp::DebugName() const {
  if (outer_ != nullptr) return "Apply(gid merge)";
  std::string cols;
  for (size_t c = 0; c < outer_columns_.size(); ++c) {
    if (outer_columns_[c] < 0) continue;
    if (!cols.empty()) cols += ", ";
    cols += schema_.column(c).name;
  }
  return "Apply(gid merge, outer=segmented $" + var_name_ + " [" + cols + "])";
}

PhysOpPtr GidApplyOp::Clone() const {
  if (outer_ != nullptr) {
    return std::make_unique<GidApplyOp>(outer_->Clone(), inner_->Clone());
  }
  Schema outer_schema;
  for (size_t i = 0; i < outer_columns_.size(); ++i) {
    outer_schema.AddColumn(schema_.column(i));
  }
  return std::make_unique<GidApplyOp>(var_name_, group_arity_, outer_columns_,
                                      outer_schema, inner_->Clone());
}

// --- GidUnionAll -------------------------------------------------------------

GidUnionAllOp::GidUnionAllOp(Schema schema, std::vector<PhysOpPtr> branches)
    : PhysOp(std::move(schema)),
      branches_(std::move(branches)),
      cursors_(branches_.size()) {}

Result<PhysOpPtr> GidUnionAllOp::Make(std::vector<PhysOpPtr> branches) {
  std::vector<const Schema*> schemas;
  schemas.reserve(branches.size());
  for (const PhysOpPtr& b : branches) schemas.push_back(&b->output_schema());
  ASSIGN_OR_RETURN(Schema schema, UnifySchemas(schemas));
  return PhysOpPtr(new GidUnionAllOp(std::move(schema), std::move(branches)));
}

Status GidUnionAllOp::OpenImpl(ExecContext* ctx) {
  branch_ = branches_.size();
  for (size_t b = 0; b < branches_.size(); ++b) {
    cursors_[b].Reset();
    RETURN_NOT_OK(branches_[b]->Open(ctx));
  }
  return Status::OK();
}

Result<bool> GidUnionAllOp::NextBatchImpl(ExecContext* ctx, RowBatch* out) {
  out->Clear();
  while (!out->full()) {
    if (branch_ == branches_.size()) {
      // Next gid: the smallest head across the branches.
      bool any = false;
      for (size_t b = 0; b < branches_.size(); ++b) {
        ASSIGN_OR_RETURN(const Row* head, cursors_[b].Peek(
                                              ctx, branches_[b].get(),
                                              out->capacity()));
        if (head != nullptr && (!any || GidOf(*head) < gid_)) {
          gid_ = GidOf(*head);
          any = true;
        }
      }
      if (!any) break;
      branch_ = 0;
    }
    ASSIGN_OR_RETURN(Row* head, cursors_[branch_].Peek(
                                    ctx, branches_[branch_].get(),
                                    out->capacity()));
    if (head != nullptr && GidOf(*head) == gid_) {
      out->Add(std::move(*head));
      cursors_[branch_].Advance();
    } else {
      ++branch_;
    }
  }
  return !out->empty();
}

Status GidUnionAllOp::CloseImpl(ExecContext* ctx) {
  Status first = Status::OK();
  for (size_t b = 0; b < branches_.size(); ++b) {
    cursors_[b].Reset();
    Status st = branches_[b]->Close(ctx);
    if (first.ok()) first = std::move(st);
  }
  return first;
}

std::string GidUnionAllOp::DebugName() const {
  return "UnionAll(segmented, " + std::to_string(branches_.size()) +
         " branches)";
}

PhysOpPtr GidUnionAllOp::Clone() const {
  std::vector<PhysOpPtr> branches;
  branches.reserve(branches_.size());
  for (const PhysOpPtr& b : branches_) branches.push_back(b->Clone());
  return PhysOpPtr(new GidUnionAllOp(schema_, std::move(branches)));
}

std::vector<const PhysOp*> GidUnionAllOp::children() const {
  std::vector<const PhysOp*> out;
  out.reserve(branches_.size());
  for (const PhysOpPtr& b : branches_) out.push_back(b.get());
  return out;
}

}  // namespace gapply
