#include "src/exec/scan_ops.h"

#include <algorithm>

namespace gapply {

namespace {

// Shared native batch path of the three scans: range-copy
// `rows[*pos..min(end, size))` into `out`, up to its capacity.
bool ScanIntoBatch(const Row* rows, size_t size, size_t* pos, size_t end,
                   RowBatch* out) {
  out->Clear();
  end = std::min(end, size);
  if (*pos >= end) return false;
  const size_t n = std::min(out->capacity(), end - *pos);
  for (size_t i = 0; i < n; ++i) {
    out->Add(rows[*pos + i]);
  }
  *pos += n;
  return true;
}

}  // namespace

TableScanOp::TableScanOp(const Table* table, std::string alias)
    : PhysOp(alias.empty() ? table->schema()
                           : table->schema().WithQualifier(alias)),
      table_(table),
      alias_(std::move(alias)) {}

Status TableScanOp::OpenImpl(ExecContext*) {
  pos_ = 0;
  end_ = morsel_mode_ ? 0 : table_->num_rows();
  chunk_end_ = 0;
  morsel_end_ = 0;
  scan_program_.reset();
  if (!preds_.empty()) {
    ASSIGN_OR_RETURN(scan_program_, ExprProgram::CompileScanPredicates(
                                        table_->columnar(), preds_));
    profile_.expr_instructions = scan_program_->num_instructions();
  }
  return Status::OK();
}

Status TableScanOp::SetMorsel(size_t begin, size_t end) {
  if (begin > end) {
    return Status::InvalidArgument(
        "SetMorsel range is inverted: begin " + std::to_string(begin) +
        " > end " + std::to_string(end));
  }
  pos_ = std::min(begin, table_->num_rows());
  end_ = std::min(end, table_->num_rows());
  // Force the zone-map check for the new range.
  chunk_end_ = pos_;
  morsel_end_ = pos_;
  return Status::OK();
}

void TableScanOp::SkipPrunedChunks(size_t end) {
  const ColumnarTable& ct = table_->columnar();
  while (pos_ < end) {
    if (pos_ < chunk_end_) return;  // already inside a checked chunk
    if (pos_ < morsel_end_) {
      // Past the narrowed range: no later row of this chunk can match.
      pos_ = morsel_end_;
      continue;
    }
    const size_t m = pos_ / ColumnarTable::kMorselRows;
    morsel_end_ = std::min(end, (m + 1) * ColumnarTable::kMorselRows);
    chunk_end_ = morsel_end_;
    if (ct.CanPruneMorsel(m, preds_)) {
      profile_.work.morsels_pruned++;
      pos_ = chunk_end_;
      continue;
    }
    profile_.work.morsels_scanned++;
    ct.NarrowMorsel(m, preds_, &pos_, &chunk_end_);
  }
}

Result<bool> TableScanOp::NextBatchImpl(ExecContext*, RowBatch* out) {
  // No pushed predicates: the dense arrays buy nothing over the row store
  // (the streams are bit-for-bit identical), so both storage modes take the
  // row-store copy and never force the columnar mirror to materialize.
  if (preds_.empty()) {
    const std::vector<Row>& rows = table_->rows();
    if (!ScanIntoBatch(rows.data(), rows.size(), &pos_, end_, out)) {
      return false;
    }
    profile_.work.rows_scanned += out->size();
    return true;
  }
  out->Clear();
  const ColumnarTable& ct = table_->columnar();
  const size_t end = std::min(end_, ct.num_rows());
  while (out->size() < out->capacity() && pos_ < end) {
    SkipPrunedChunks(end);
    if (pos_ >= end) break;
    // Scan at most the remaining capacity's worth of input per round so
    // unselective predicates still produce ~full, never overshooting
    // batches; selective ones just loop within the call.
    const size_t stop =
        std::min(chunk_end_, pos_ + (out->capacity() - out->size()));
    selection_.clear();
    profile_.work.scan_rows_evaluated += stop - pos_;
    RETURN_NOT_OK(scan_program_->FilterRange(pos_, stop, &selection_));
    for (const uint32_t i : selection_) {
      Row row;
      ct.MaterializeRow(i, &row);
      out->Add(std::move(row));
    }
    pos_ = stop;
  }
  if (out->empty()) return false;
  profile_.work.rows_scanned += out->size();
  return true;
}

Status TableScanOp::CloseImpl(ExecContext*) { return Status::OK(); }

std::string TableScanOp::DebugName() const {
  std::string out = "TableScan(" + table_->name();
  if (!alias_.empty() && alias_ != table_->name()) out += " as " + alias_;
  if (!preds_.empty()) {
    out += ", pushdown: ";
    for (size_t i = 0; i < preds_.size(); ++i) {
      if (i > 0) out += " AND ";
      out += preds_[i].ToString(schema_);
    }
  }
  out += ")";
  return out;
}

PhysOpPtr TableScanOp::Clone() const {
  auto clone = std::make_unique<TableScanOp>(table_, alias_);
  clone->preds_ = preds_;
  return clone;
}

GroupScanOp::GroupScanOp(std::string var_name, Schema schema)
    : PhysOp(std::move(schema)), var_name_(std::move(var_name)) {}

Status GroupScanOp::OpenImpl(ExecContext* ctx) {
  ASSIGN_OR_RETURN(GroupBinding binding, ctx->GetGroup(var_name_));
  if (binding.schema->num_columns() != schema_.num_columns()) {
    return Status::Internal(
        "group variable " + var_name_ + " bound with arity " +
        std::to_string(binding.schema->num_columns()) + ", plan expects " +
        std::to_string(schema_.num_columns()));
  }
  rows_ = binding.rows;
  pos_ = binding.begin();
  end_ = binding.end();
  open_ = true;
  return Status::OK();
}

Result<bool> GroupScanOp::NextBatchImpl(ExecContext*, RowBatch* out) {
  if (!open_) return Status::Internal("GroupScan not opened");
  if (!ScanIntoBatch(rows_, end_, &pos_, end_, out)) return false;
  profile_.work.group_rows_scanned += out->size();
  return true;
}

Status GroupScanOp::CloseImpl(ExecContext*) {
  rows_ = nullptr;
  open_ = false;
  return Status::OK();
}

std::string GroupScanOp::DebugName() const {
  return "GroupScan($" + var_name_ + ")";
}

PhysOpPtr GroupScanOp::Clone() const {
  return std::make_unique<GroupScanOp>(var_name_, schema_);
}

ValuesOp::ValuesOp(Schema schema, std::vector<Row> rows)
    : PhysOp(std::move(schema)), rows_(std::move(rows)) {}

Status ValuesOp::OpenImpl(ExecContext*) {
  pos_ = 0;
  return Status::OK();
}

Result<bool> ValuesOp::NextBatchImpl(ExecContext*, RowBatch* out) {
  if (!ScanIntoBatch(rows_.data(), rows_.size(), &pos_, rows_.size(), out)) {
    return false;
  }
  return true;
}

Status ValuesOp::CloseImpl(ExecContext*) { return Status::OK(); }

std::string ValuesOp::DebugName() const {
  return "Values(" + std::to_string(rows_.size()) + " rows)";
}

PhysOpPtr ValuesOp::Clone() const {
  return std::make_unique<ValuesOp>(schema_, rows_);
}

}  // namespace gapply
