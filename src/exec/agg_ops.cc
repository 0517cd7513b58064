#include "src/exec/agg_ops.h"

#include <algorithm>
#include <functional>
#include <optional>

#include "src/common/hash_table.h"
#include "src/common/spill_file.h"
#include "src/common/thread_pool.h"

namespace gapply {

namespace {

Row ExtractKey(const Row& row, const std::vector<int>& cols) {
  Row key;
  key.reserve(cols.size());
  for (int c : cols) key.push_back(row[static_cast<size_t>(c)]);
  return key;
}

/// Hash group-by state over the shared flat table: groups in
/// first-appearance order, each with one stored key, its accumulators and
/// the input position of its first row. Input rows are hashed and
/// compared in place; a key row is copied once per group, never per row.
class GroupTable {
 public:
  GroupTable(const std::vector<int>& key_columns,
             const std::vector<AggregateDesc>& aggs)
      : key_columns_(key_columns), aggs_(aggs) {}

  size_t size() const { return keys_.size(); }

  /// Accumulates `row`, input position `pos`, into its group.
  Status Add(const Row& row, uint64_t pos, const EvalContext& eval) {
    const auto [g, inserted] = index_.FindOrInsert(
        HashRowColumns(row, key_columns_), [&](uint32_t e) {
          const Row& key = keys_[e];
          for (size_t i = 0; i < key.size(); ++i) {
            if (!row[static_cast<size_t>(key_columns_[i])].Equals(key[i])) {
              return false;
            }
          }
          return true;
        });
    if (inserted) {
      keys_.push_back(ExtractKey(row, key_columns_));
      accs_.push_back(MakeAccumulators(aggs_));
      first_pos_.push_back(pos);
    }
    return AccumulateRow(aggs_, accs_[g], row, eval);
  }

  /// Folds `other`'s groups in (exact aggregates only): a new key moves
  /// over, an existing one merges accumulators and keeps the smaller first
  /// position.
  Status MergeFrom(GroupTable* other) {
    for (uint32_t g = 0; g < other->size(); ++g) {
      const auto [e, inserted] = index_.FindOrInsert(
          other->index_.hash(g),
          [&](uint32_t c) { return RowsEqual(keys_[c], other->keys_[g]); });
      if (inserted) {
        keys_.push_back(std::move(other->keys_[g]));
        accs_.push_back(std::move(other->accs_[g]));
        first_pos_.push_back(other->first_pos_[g]);
        continue;
      }
      for (size_t a = 0; a < accs_[e].size(); ++a) {
        RETURN_NOT_OK(accs_[e][a]->Merge(*other->accs_[g][a]));
      }
      first_pos_[e] = std::min(first_pos_[e], other->first_pos_[g]);
    }
    return Status::OK();
  }

  /// Appends every group's output row (key columns, then aggregates) in
  /// first-appearance order, moving the keys out.
  void FinishAll(std::vector<Row>* out) {
    out->reserve(out->size() + size());
    for (size_t g = 0; g < size(); ++g) out->push_back(Finish(g));
  }
  /// Same, each row paired with its group's first input position.
  void FinishAll(std::vector<std::pair<uint64_t, Row>>* out) {
    out->reserve(out->size() + size());
    for (size_t g = 0; g < size(); ++g) {
      out->emplace_back(first_pos_[g], Finish(g));
    }
  }

 private:
  Row Finish(size_t g) {
    Row out = std::move(keys_[g]);
    for (const auto& acc : accs_[g]) out.push_back(acc->Finish());
    return out;
  }

  const std::vector<int>& key_columns_;
  const std::vector<AggregateDesc>& aggs_;
  HashTable index_;
  std::vector<Row> keys_;
  std::vector<std::vector<std::unique_ptr<AggAccumulator>>> accs_;
  std::vector<uint64_t> first_pos_;
};

/// Moves (first position, row) pairs into `out` ordered by position.
void EmitByFirstPos(std::vector<std::pair<uint64_t, Row>>* ordered,
                    std::vector<Row>* out) {
  std::sort(ordered->begin(), ordered->end(),
            [](const std::pair<uint64_t, Row>& a,
               const std::pair<uint64_t, Row>& b) {
              return a.first < b.first;
            });
  out->reserve(ordered->size());
  for (auto& entry : *ordered) out->push_back(std::move(entry.second));
}

std::string AggList(const std::vector<AggregateDesc>& aggs) {
  std::string out;
  for (size_t i = 0; i < aggs.size(); ++i) {
    if (i > 0) out += ", ";
    out += aggs[i].ToString();
  }
  return out;
}

}  // namespace

Schema HashGroupByOp::MakeOutputSchema(const Schema& input,
                                       const std::vector<int>& key_columns,
                                       const std::vector<AggregateDesc>& aggs) {
  Schema out;
  for (int c : key_columns) out.AddColumn(input.column(static_cast<size_t>(c)));
  for (const AggregateDesc& a : aggs) {
    out.AddColumn(Column(a.output_name, a.OutputType(), ""));
  }
  return out;
}

HashGroupByOp::HashGroupByOp(PhysOpPtr child, std::vector<int> key_columns,
                             std::vector<AggregateDesc> aggs,
                             size_t parallelism)
    : PhysOp(MakeOutputSchema(child->output_schema(), key_columns, aggs)),
      child_(std::move(child)),
      key_columns_(std::move(key_columns)),
      aggs_(std::move(aggs)),
      parallelism_(std::max<size_t>(1, parallelism)) {}

Status HashGroupByOp::OpenImpl(ExecContext* ctx) {
  output_.clear();
  pos_ = 0;
  RETURN_NOT_OK(child_->Open(ctx));

  if (ctx->memory() != nullptr && ctx->spill() != nullptr) {
    return OpenBudgeted(ctx);
  }

  if (parallelism_ > 1 && AggregateMergeIsExact(aggs_)) {
    // Candidate for parallel partial aggregation: buffer the input first
    // (the aggregate is a full pipeline breaker anyway), then pick the
    // parallel or serial path purely on input size — never on the DOP — so
    // the path choice is identical across DOPs for the same input.
    std::vector<Row> input;
    RowBatch batch(ctx->batch_size());
    while (true) {
      ASSIGN_OR_RETURN(bool has, child_->NextBatch(ctx, &batch));
      if (!has) break;
      for (Row& row : batch.rows()) input.push_back(std::move(row));
    }
    RETURN_NOT_OK(child_->Close(ctx));
    if (input.size() >= kParallelAggMinRows) {
      return AggregateParallel(ctx, input);
    }
    return AggregateBuffered(ctx, input);
  }

  GroupTable groups(key_columns_, aggs_);
  uint64_t pos = 0;
  RowBatch batch(ctx->batch_size());
  while (true) {
    ASSIGN_OR_RETURN(bool has, child_->NextBatch(ctx, &batch));
    if (!has) break;
    for (const Row& row : batch.rows()) {
      RETURN_NOT_OK(groups.Add(row, pos++, *ctx->eval()));
    }
  }
  RETURN_NOT_OK(child_->Close(ctx));
  groups.FinishAll(&output_);
  return Status::OK();
}

Status HashGroupByOp::OpenBudgeted(ExecContext* ctx) {
  mem_.Reset(ctx->memory());
  std::vector<Row> input;
  RowBatch batch(ctx->batch_size());
  bool spill = false;
  size_t batch_pos = 0;
  while (!spill) {
    ASSIGN_OR_RETURN(bool has, child_->NextBatch(ctx, &batch));
    if (!has) break;
    for (size_t i = 0; i < batch.size(); ++i) {
      Row& row = batch[i];
      if (!mem_.TryGrow(ApproxRowBytes(row))) {
        spill = true;
        batch_pos = i;
        break;
      }
      input.push_back(std::move(row));
    }
  }
  if (spill) {
    Status st = SpillPartitionAndAggregate(ctx, &input, &batch, batch_pos);
    profile_.peak_memory =
        std::max<uint64_t>(profile_.peak_memory, mem_.peak());
    mem_.ReleaseAll();
    return st;
  }
  RETURN_NOT_OK(child_->Close(ctx));
  profile_.peak_memory = std::max<uint64_t>(profile_.peak_memory, mem_.peak());
  // The input fits: same path choice as the unbudgeted open (the choice
  // depends only on input size and aggregate kinds, never on the budget).
  Status st = (parallelism_ > 1 && AggregateMergeIsExact(aggs_) &&
               input.size() >= kParallelAggMinRows)
                  ? AggregateParallel(ctx, input)
                  : AggregateBuffered(ctx, input);
  mem_.ReleaseAll();
  return st;
}

Status HashGroupByOp::SpillPartitionAndAggregate(ExecContext* ctx,
                                                 std::vector<Row>* buffered,
                                                 RowBatch* pending,
                                                 size_t pending_pos) {
  // Partition every input row by key hash, tagged with its global input
  // position: the buffered prefix first, then the batch the trigger
  // interrupted, then the rest of the child streamed straight through.
  // Unlike the join there is nothing to drop — NULL keys form groups.
  ASSIGN_OR_RETURN(std::vector<std::unique_ptr<SpillWriter>> writers,
                   OpenSpillFanout(ctx->spill()));
  uint64_t row_idx = 0;
  const auto route = [&](const Row& row) -> Status {
    const size_t part = SpillPartitionOf(HashRowColumns(row, key_columns_), 0);
    return writers[part]->WriteIndexedRow(row_idx++, row);
  };
  for (const Row& row : *buffered) RETURN_NOT_OK(route(row));
  buffered->clear();
  buffered->shrink_to_fit();
  mem_.ReleaseAll();
  for (size_t i = pending_pos; i < pending->size(); ++i) {
    RETURN_NOT_OK(route((*pending)[i]));
  }
  while (true) {
    ASSIGN_OR_RETURN(bool has, child_->NextBatch(ctx, pending));
    if (!has) break;
    for (const Row& row : pending->rows()) RETURN_NOT_OK(route(row));
  }
  RETURN_NOT_OK(child_->Close(ctx));
  ASSIGN_OR_RETURN(std::vector<std::string> paths,
                   FinishSpillFiles(writers));
  writers.clear();

  // Aggregate each partition, then restore the serial first-appearance
  // group order by sorting on the minimum tagged position per group.
  std::vector<std::pair<uint64_t, Row>> ordered;
  for (size_t p = 0; p < kSpillFanout; ++p) {
    RETURN_NOT_OK(AggregatePartition(ctx, paths[p], 0, &ordered));
  }
  EmitByFirstPos(&ordered, &output_);
  return Status::OK();
}

Status HashGroupByOp::AggregatePartition(
    ExecContext* ctx, const std::string& path, int level,
    std::vector<std::pair<uint64_t, Row>>* ordered) {
  const SpillRecords records{
      /*indexed=*/true, [this](uint64_t, const Row& r, int l) {
        return SpillPartitionOf(HashRowColumns(r, key_columns_), l);
      }};
  MemoryReservation part_mem(mem_.tracker());
  ASSIGN_OR_RETURN(
      SpillPartition part,
      LoadSpillPartition(path, level, records, &part_mem, ctx->spill()));
  if (!part.loaded) {
    ASSIGN_OR_RETURN(std::vector<std::string> sub_paths,
                     FinishSpillFiles(part.split));
    for (const std::string& sub : sub_paths) {
      RETURN_NOT_OK(AggregatePartition(ctx, sub, level + 1, ordered));
    }
    return Status::OK();
  }
  profile_.peak_memory =
      std::max<uint64_t>(profile_.peak_memory, part_mem.peak());

  // In-memory aggregation in file order (= global input order for this
  // partition's rows), tracking each group's first tagged position.
  GroupTable groups(key_columns_, aggs_);
  for (size_t i = 0; i < part.rows.size(); ++i) {
    RETURN_NOT_OK(groups.Add(part.rows[i], part.indices[i], *ctx->eval()));
  }
  groups.FinishAll(ordered);
  return Status::OK();
}

Status HashGroupByOp::AggregateBuffered(ExecContext* ctx,
                                        const std::vector<Row>& input) {
  GroupTable groups(key_columns_, aggs_);
  for (size_t i = 0; i < input.size(); ++i) {
    RETURN_NOT_OK(groups.Add(input[i], i, *ctx->eval()));
  }
  groups.FinishAll(&output_);
  return Status::OK();
}

Status HashGroupByOp::AggregateParallel(ExecContext* ctx,
                                        const std::vector<Row>& input) {
  constexpr size_t kMorselRows = 4096;
  const size_t n = input.size();
  const size_t num_morsels = (n + kMorselRows - 1) / kMorselRows;
  const size_t dop = std::min(parallelism_, num_morsels);

  // Per-worker partial state. Each worker clones the aggregate descriptors
  // (their argument expressions are evaluated concurrently) and records,
  // per group, the global row index of its first appearance in that
  // worker's morsels.
  struct Partial {
    std::vector<AggregateDesc> aggs;
    std::optional<GroupTable> groups;  // over aggs; set once partials exist
    ExecContext wctx;
  };
  std::vector<Partial> partials(dop);
  for (Partial& p : partials) {
    p.aggs = CloneAggregates(aggs_);
    p.groups.emplace(key_columns_, p.aggs);
    p.wctx = ctx->ForkForWorker();
  }

  // Morsels are contiguous row ranges, so the smallest failing morsel's
  // error (what FanOutUnits returns) is the serial error.
  RETURN_NOT_OK(FanOutUnits(
      ctx->thread_pool(), dop, num_morsels,
      [&](size_t w, size_t m) -> Status {
        Partial& p = partials[w];
        const size_t end = std::min(n, (m + 1) * kMorselRows);
        for (size_t i = m * kMorselRows; i < end; ++i) {
          RETURN_NOT_OK(p.groups->Add(input[i], i, *p.wctx.eval()));
        }
        return Status::OK();
      }));

  // Merge the partials (exact, so merge order is irrelevant), keeping the
  // minimum global first-appearance position per group, then emit in that
  // order — exactly the serial first-appearance group order.
  GroupTable merged(key_columns_, aggs_);
  for (Partial& p : partials) RETURN_NOT_OK(merged.MergeFrom(&*p.groups));
  std::vector<std::pair<uint64_t, Row>> ordered;
  merged.FinishAll(&ordered);
  EmitByFirstPos(&ordered, &output_);
  return Status::OK();
}

Result<bool> HashGroupByOp::NextBatchImpl(ExecContext*, RowBatch* out) {
  out->Clear();
  if (pos_ >= output_.size()) return false;
  const size_t n = std::min(out->capacity(), output_.size() - pos_);
  for (size_t i = 0; i < n; ++i) {
    out->Add(std::move(output_[pos_ + i]));
  }
  pos_ += n;
  return true;
}

Status HashGroupByOp::CloseImpl(ExecContext*) {
  output_.clear();
  return Status::OK();
}

std::string HashGroupByOp::DebugName() const {
  std::string keys;
  for (size_t i = 0; i < key_columns_.size(); ++i) {
    if (i > 0) keys += ",";
    keys += child_->output_schema()
                .column(static_cast<size_t>(key_columns_[i]))
                .name;
  }
  std::string out = "HashGroupBy(keys=[" + keys + "], aggs=[" +
                    AggList(aggs_) + "]";
  if (parallelism_ > 1) out += ", dop=" + std::to_string(parallelism_);
  return out + ")";
}

PhysOpPtr HashGroupByOp::Clone() const {
  return std::make_unique<HashGroupByOp>(child_->Clone(), key_columns_,
                                         CloneAggregates(aggs_), parallelism_);
}

ScalarAggOp::ScalarAggOp(PhysOpPtr child, std::vector<AggregateDesc> aggs)
    : PhysOp(HashGroupByOp::MakeOutputSchema(child->output_schema(), {},
                                             aggs)),
      child_(std::move(child)),
      aggs_(std::move(aggs)) {}

Status ScalarAggOp::OpenImpl(ExecContext* ctx) {
  emitted_ = false;
  return child_->Open(ctx);
}

Result<bool> ScalarAggOp::NextBatchImpl(ExecContext* ctx, RowBatch* out) {
  out->Clear();
  if (emitted_) return false;
  auto accs = MakeAccumulators(aggs_);
  RowBatch batch(ctx->batch_size());
  while (true) {
    ASSIGN_OR_RETURN(bool has, child_->NextBatch(ctx, &batch));
    if (!has) break;
    for (const Row& row : batch.rows()) {
      RETURN_NOT_OK(AccumulateRow(aggs_, accs, row, *ctx->eval()));
    }
  }
  Row row;
  row.reserve(accs.size());
  for (const auto& acc : accs) row.push_back(acc->Finish());
  out->Add(std::move(row));
  emitted_ = true;
  return true;
}

Status ScalarAggOp::CloseImpl(ExecContext* ctx) { return child_->Close(ctx); }

std::string ScalarAggOp::DebugName() const {
  return "ScalarAgg(" + AggList(aggs_) + ")";
}

DistinctOp::DistinctOp(PhysOpPtr child)
    : PhysOp(child->output_schema()), child_(std::move(child)) {}

Status DistinctOp::OpenImpl(ExecContext* ctx) {
  seen_.Clear();
  seen_rows_ = {};
  child_batch_.Clear();
  return child_->Open(ctx);
}

Result<bool> DistinctOp::NextBatchImpl(ExecContext* ctx, RowBatch* out) {
  out->Clear();
  if (child_batch_.capacity() != out->capacity()) {
    child_batch_ = RowBatch(out->capacity());
  }
  while (out->empty()) {
    ASSIGN_OR_RETURN(bool has, child_->NextBatch(ctx, &child_batch_));
    if (!has) return false;
    for (Row& row : child_batch_.rows()) {
      const bool first = seen_.FindOrInsert(RowHash{}(row), [&](uint32_t e) {
        return RowsEqual(seen_rows_[e], row);
      }).second;
      if (!first) continue;
      seen_rows_.push_back(row);  // the stored copy; the original moves on
      out->Add(std::move(row));
    }
  }
  return true;
}

Status DistinctOp::CloseImpl(ExecContext* ctx) {
  seen_.Clear();
  seen_rows_ = {};
  return child_->Close(ctx);
}

PhysOpPtr ScalarAggOp::Clone() const {
  return std::make_unique<ScalarAggOp>(child_->Clone(),
                                       CloneAggregates(aggs_));
}

std::string DistinctOp::DebugName() const { return "Distinct"; }

PhysOpPtr DistinctOp::Clone() const {
  return std::make_unique<DistinctOp>(child_->Clone());
}

}  // namespace gapply
