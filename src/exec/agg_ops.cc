#include "src/exec/agg_ops.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <functional>
#include <system_error>

#include "src/common/thread_pool.h"

namespace gapply {

namespace {

Row ExtractKey(const Row& row, const std::vector<int>& cols) {
  Row key;
  key.reserve(cols.size());
  for (int c : cols) key.push_back(row[static_cast<size_t>(c)]);
  return key;
}

// Grace spill geometry (mirrors HashJoinOp's): partitions per level and
// the recursion cap, past which a partition aggregates in memory
// regardless of the budget.
constexpr size_t kSpillFanout = 8;
constexpr int kMaxSpillDepth = 4;

size_t PartitionOf(const Row& key, int level) {
  return HashCombine(RowHash{}(key),
                     0x9e3779b9u * static_cast<size_t>(level + 1)) %
         kSpillFanout;
}

void RemoveFile(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
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

  // Key → accumulator set; groups_order keeps first-appearance order.
  std::unordered_map<Row, size_t, RowHash, RowEq> index;
  std::vector<Row> keys;
  std::vector<std::vector<std::unique_ptr<AggAccumulator>>> groups;

  RowBatch batch(ctx->batch_size());
  while (true) {
    ASSIGN_OR_RETURN(bool has, child_->NextBatch(ctx, &batch));
    if (!has) break;
    for (const Row& row : batch.rows()) {
      Row key = ExtractKey(row, key_columns_);
      auto [it, inserted] = index.try_emplace(key, groups.size());
      if (inserted) {
        keys.push_back(std::move(key));
        groups.push_back(MakeAccumulators(aggs_));
      }
      RETURN_NOT_OK(
          AccumulateRow(aggs_, groups[it->second], row, *ctx->eval()));
    }
  }
  RETURN_NOT_OK(child_->Close(ctx));

  output_.reserve(groups.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    Row out = keys[g];
    for (const auto& acc : groups[g]) out.push_back(acc->Finish());
    output_.push_back(std::move(out));
  }
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

Status HashGroupByOp::FinishPart(ExecContext* ctx, SpillWriter* writer) {
  RETURN_NOT_OK(writer->Finish());
  ctx->counters().spill_bytes += writer->bytes_written();
  ctx->counters().spill_partitions += 1;
  profile_.spill_bytes += writer->bytes_written();
  profile_.spill_partitions += 1;
  return Status::OK();
}

Status HashGroupByOp::SpillPartitionAndAggregate(ExecContext* ctx,
                                                 std::vector<Row>* buffered,
                                                 RowBatch* pending,
                                                 size_t pending_pos) {
  // Partition every input row by key hash, tagged with its global input
  // position: the buffered prefix first, then the batch the trigger
  // interrupted, then the rest of the child streamed straight through.
  // Unlike the join there is nothing to drop — NULL keys form groups.
  std::vector<std::unique_ptr<SpillWriter>> writers(kSpillFanout);
  for (auto& w : writers) {
    ASSIGN_OR_RETURN(std::string path, ctx->spill()->NewFilePath());
    ASSIGN_OR_RETURN(w, SpillWriter::Open(path));
  }
  uint64_t row_idx = 0;
  const auto route = [&](const Row& row) -> Status {
    const Row key = ExtractKey(row, key_columns_);
    return writers[PartitionOf(key, 0)]->WriteIndexedRow(row_idx++, row);
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
  std::vector<std::string> paths(kSpillFanout);
  for (size_t p = 0; p < kSpillFanout; ++p) {
    RETURN_NOT_OK(FinishPart(ctx, writers[p].get()));
    paths[p] = writers[p]->path();
  }
  writers.clear();

  // Aggregate each partition, then restore the serial first-appearance
  // group order by sorting on the minimum tagged position per group.
  std::vector<std::pair<uint64_t, Row>> ordered;
  for (size_t p = 0; p < kSpillFanout; ++p) {
    RETURN_NOT_OK(AggregatePartition(ctx, paths[p], 0, &ordered));
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const std::pair<uint64_t, Row>& a,
               const std::pair<uint64_t, Row>& b) {
              return a.first < b.first;
            });
  output_.reserve(ordered.size());
  for (auto& [first_pos, row] : ordered) {
    output_.push_back(std::move(row));
  }
  return Status::OK();
}

Status HashGroupByOp::AggregatePartition(
    ExecContext* ctx, const std::string& path, int level,
    std::vector<std::pair<uint64_t, Row>>* ordered) {
  // Load the partition under its own reservation; overflow below the
  // depth cap repartitions at the next salt level.
  MemoryReservation part_mem(mem_.tracker());
  std::vector<std::pair<uint64_t, Row>> rows;
  ASSIGN_OR_RETURN(std::unique_ptr<SpillReader> reader,
                   SpillReader::Open(path));
  uint64_t idx = 0;
  Row row;
  bool overflow = false;
  while (!overflow) {
    ASSIGN_OR_RETURN(bool has, reader->ReadIndexedRow(&idx, &row));
    if (!has) break;
    const size_t bytes = ApproxRowBytes(row);
    if (!part_mem.TryGrow(bytes)) {
      if (level + 1 < kMaxSpillDepth) {
        overflow = true;
      } else {
        part_mem.ForceGrow(bytes);
      }
    }
    if (!overflow) rows.emplace_back(idx, std::move(row));
  }

  if (overflow) {
    std::vector<std::unique_ptr<SpillWriter>> writers(kSpillFanout);
    for (auto& w : writers) {
      ASSIGN_OR_RETURN(std::string sub_path, ctx->spill()->NewFilePath());
      ASSIGN_OR_RETURN(w, SpillWriter::Open(sub_path));
    }
    const auto route = [&](uint64_t i, const Row& r) -> Status {
      const Row key = ExtractKey(r, key_columns_);
      return writers[PartitionOf(key, level + 1)]->WriteIndexedRow(i, r);
    };
    for (const auto& [i, r] : rows) RETURN_NOT_OK(route(i, r));
    rows.clear();
    part_mem.ReleaseAll();
    RETURN_NOT_OK(route(idx, row));
    while (true) {
      ASSIGN_OR_RETURN(bool has, reader->ReadIndexedRow(&idx, &row));
      if (!has) break;
      RETURN_NOT_OK(route(idx, row));
    }
    reader.reset();
    RemoveFile(path);
    std::vector<std::string> sub_paths(kSpillFanout);
    for (size_t p = 0; p < kSpillFanout; ++p) {
      RETURN_NOT_OK(FinishPart(ctx, writers[p].get()));
      sub_paths[p] = writers[p]->path();
    }
    writers.clear();
    for (size_t p = 0; p < kSpillFanout; ++p) {
      RETURN_NOT_OK(AggregatePartition(ctx, sub_paths[p], level + 1,
                                       ordered));
    }
    return Status::OK();
  }
  reader.reset();
  profile_.peak_memory =
      std::max<uint64_t>(profile_.peak_memory, part_mem.peak());

  // In-memory aggregation in file order (= global input order for this
  // partition's rows), tracking each group's first tagged position.
  std::unordered_map<Row, size_t, RowHash, RowEq> index;
  std::vector<Row> keys;
  std::vector<std::vector<std::unique_ptr<AggAccumulator>>> groups;
  std::vector<uint64_t> first_pos;
  for (const auto& [i, r] : rows) {
    Row key = ExtractKey(r, key_columns_);
    auto [it, inserted] = index.try_emplace(key, groups.size());
    if (inserted) {
      keys.push_back(std::move(key));
      groups.push_back(MakeAccumulators(aggs_));
      first_pos.push_back(i);
    }
    RETURN_NOT_OK(
        AccumulateRow(aggs_, groups[it->second], r, *ctx->eval()));
  }
  for (size_t g = 0; g < groups.size(); ++g) {
    Row out = std::move(keys[g]);
    for (const auto& acc : groups[g]) out.push_back(acc->Finish());
    ordered->emplace_back(first_pos[g], std::move(out));
  }
  RemoveFile(path);
  return Status::OK();
}

Status HashGroupByOp::AggregateBuffered(ExecContext* ctx,
                                        const std::vector<Row>& input) {
  std::unordered_map<Row, size_t, RowHash, RowEq> index;
  std::vector<Row> keys;
  std::vector<std::vector<std::unique_ptr<AggAccumulator>>> groups;
  for (const Row& row : input) {
    Row key = ExtractKey(row, key_columns_);
    auto [it, inserted] = index.try_emplace(key, groups.size());
    if (inserted) {
      keys.push_back(std::move(key));
      groups.push_back(MakeAccumulators(aggs_));
    }
    RETURN_NOT_OK(
        AccumulateRow(aggs_, groups[it->second], row, *ctx->eval()));
  }
  output_.reserve(groups.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    Row out = keys[g];
    for (const auto& acc : groups[g]) out.push_back(acc->Finish());
    output_.push_back(std::move(out));
  }
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
    std::unordered_map<Row, size_t, RowHash, RowEq> index;
    std::vector<Row> keys;
    std::vector<std::vector<std::unique_ptr<AggAccumulator>>> groups;
    std::vector<uint64_t> first_pos;
    std::vector<AggregateDesc> aggs;
    ExecContext wctx;
    Status error = Status::OK();
    uint64_t error_pos = 0;
    bool failed = false;
  };
  std::vector<Partial> partials(dop);
  for (Partial& p : partials) {
    p.aggs = CloneAggregates(aggs_);
    p.wctx = ctx->ForkForWorker();
  }

  // Workers claim morsels through a monotone shared cursor and abort only
  // between morsels, so every morsel before any claimed one runs to
  // completion — which makes "smallest failing row index" the error serial
  // execution would hit first.
  std::atomic<size_t> next_morsel{0};
  std::atomic<bool> abort{false};
  std::vector<std::function<void()>> tasks;
  tasks.reserve(dop);
  for (size_t w = 0; w < dop; ++w) {
    tasks.push_back([&, w] {
      Partial& p = partials[w];
      while (!abort.load(std::memory_order_relaxed)) {
        const size_t m = next_morsel.fetch_add(1, std::memory_order_relaxed);
        if (m >= num_morsels) break;
        const size_t begin = m * kMorselRows;
        const size_t end = std::min(n, begin + kMorselRows);
        for (size_t i = begin; i < end; ++i) {
          const Row& row = input[i];
          Row key = ExtractKey(row, key_columns_);
          auto [it, inserted] = p.index.try_emplace(key, p.groups.size());
          if (inserted) {
            p.keys.push_back(std::move(key));
            p.groups.push_back(MakeAccumulators(p.aggs));
            p.first_pos.push_back(i);
          }
          Status st = AccumulateRow(p.aggs, p.groups[it->second], row,
                                           *p.wctx.eval());
          if (!st.ok()) {
            p.error = std::move(st);
            p.error_pos = i;
            p.failed = true;
            abort.store(true, std::memory_order_relaxed);
            return;
          }
        }
      }
    });
  }
  RunTaskGroup(ctx->thread_pool(), std::move(tasks));

  for (Partial& p : partials) {
    ctx->counters().MergeFrom(p.wctx.counters());
  }
  const Partial* first_failure = nullptr;
  for (const Partial& p : partials) {
    if (p.failed && (first_failure == nullptr ||
                     p.error_pos < first_failure->error_pos)) {
      first_failure = &p;
    }
  }
  if (first_failure != nullptr) return first_failure->error;

  // Merge the partials (exact, so merge order is irrelevant), keeping the
  // minimum global first-appearance position per group, then emit in that
  // order — exactly the serial first-appearance group order.
  struct Merged {
    size_t partial;
    size_t group;
    uint64_t first_pos;
  };
  std::unordered_map<Row, size_t, RowHash, RowEq> index;
  std::vector<Merged> merged;
  for (size_t w = 0; w < partials.size(); ++w) {
    Partial& p = partials[w];
    for (size_t g = 0; g < p.keys.size(); ++g) {
      auto [it, inserted] = index.try_emplace(p.keys[g], merged.size());
      if (inserted) {
        merged.push_back({w, g, p.first_pos[g]});
        continue;
      }
      Merged& m = merged[it->second];
      Partial& owner = partials[m.partial];
      for (size_t a = 0; a < aggs_.size(); ++a) {
        RETURN_NOT_OK(owner.groups[m.group][a]->Merge(*p.groups[g][a]));
      }
      m.first_pos = std::min(m.first_pos, p.first_pos[g]);
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const Merged& a, const Merged& b) {
              return a.first_pos < b.first_pos;
            });
  output_.reserve(merged.size());
  for (const Merged& m : merged) {
    Partial& p = partials[m.partial];
    Row out = std::move(p.keys[m.group]);
    for (const auto& acc : p.groups[m.group]) out.push_back(acc->Finish());
    output_.push_back(std::move(out));
  }
  return Status::OK();
}

Result<bool> HashGroupByOp::NextBatchImpl(ExecContext* ctx, RowBatch* out) {
  out->Clear();
  if (pos_ >= output_.size()) return false;
  const size_t n = std::min(out->capacity(), output_.size() - pos_);
  for (size_t i = 0; i < n; ++i) {
    out->Add(std::move(output_[pos_ + i]));
  }
  pos_ += n;
  RecordBatch(ctx, n);
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

StreamGroupByOp::StreamGroupByOp(PhysOpPtr child, std::vector<int> key_columns,
                                 std::vector<AggregateDesc> aggs)
    : PhysOp(HashGroupByOp::MakeOutputSchema(child->output_schema(),
                                             key_columns, aggs)),
      child_(std::move(child)),
      key_columns_(std::move(key_columns)),
      aggs_(std::move(aggs)) {}

Status StreamGroupByOp::OpenImpl(ExecContext* ctx) {
  in_group_ = false;
  input_.Reset();
  return child_->Open(ctx);
}

Status StreamGroupByOp::StartGroup(const Row& row) {
  accs_ = MakeAccumulators(aggs_);
  current_key_ = ExtractKey(row, key_columns_);
  in_group_ = true;
  return Status::OK();
}

Status StreamGroupByOp::Accumulate(ExecContext* ctx, const Row& row) {
  return AccumulateRow(aggs_, accs_, row, *ctx->eval());
}

Row StreamGroupByOp::FinishGroup() {
  Row out = current_key_;
  for (const auto& acc : accs_) out.push_back(acc->Finish());
  in_group_ = false;
  return out;
}

bool StreamGroupByOp::SameKeyAsCurrent(const Row& row) const {
  for (size_t i = 0; i < key_columns_.size(); ++i) {
    if (!row[static_cast<size_t>(key_columns_[i])].Equals(current_key_[i])) {
      return false;
    }
  }
  return true;
}

Result<bool> StreamGroupByOp::NextBatchImpl(ExecContext* ctx, RowBatch* out) {
  out->Clear();
  while (!out->full()) {
    ASSIGN_OR_RETURN(const Row* next,
                     input_.Peek(ctx, child_.get(), out->capacity()));
    if (next == nullptr) {
      if (in_group_) out->Add(FinishGroup());
      break;
    }
    input_.Advance();
    const Row& row = *next;
    if (!in_group_) {
      RETURN_NOT_OK(StartGroup(row));
      RETURN_NOT_OK(Accumulate(ctx, row));
    } else if (SameKeyAsCurrent(row)) {
      RETURN_NOT_OK(Accumulate(ctx, row));
    } else {
      // Group boundary: emit the finished group, then start the new one.
      out->Add(FinishGroup());
      RETURN_NOT_OK(StartGroup(row));
      RETURN_NOT_OK(Accumulate(ctx, row));
    }
  }
  if (out->empty()) return false;
  RecordBatch(ctx, out->size());
  return true;
}

Status StreamGroupByOp::CloseImpl(ExecContext* ctx) {
  accs_.clear();
  input_.Reset();
  return child_->Close(ctx);
}

PhysOpPtr HashGroupByOp::Clone() const {
  return std::make_unique<HashGroupByOp>(child_->Clone(), key_columns_,
                                         CloneAggregates(aggs_), parallelism_);
}

std::string StreamGroupByOp::DebugName() const {
  return "StreamGroupBy(aggs=[" + AggList(aggs_) + "])";
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
  RecordBatch(ctx, 1);
  return true;
}

Status ScalarAggOp::CloseImpl(ExecContext* ctx) { return child_->Close(ctx); }

PhysOpPtr StreamGroupByOp::Clone() const {
  return std::make_unique<StreamGroupByOp>(child_->Clone(), key_columns_,
                                           CloneAggregates(aggs_));
}

std::string ScalarAggOp::DebugName() const {
  return "ScalarAgg(" + AggList(aggs_) + ")";
}

DistinctOp::DistinctOp(PhysOpPtr child)
    : PhysOp(child->output_schema()), child_(std::move(child)) {}

Status DistinctOp::OpenImpl(ExecContext* ctx) {
  seen_.clear();
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
      // try_emplace copies the row into the key slot, so moving the
      // original afterwards is safe.
      if (seen_.try_emplace(row, true).second) out->Add(std::move(row));
    }
  }
  RecordBatch(ctx, out->size());
  return true;
}

Status DistinctOp::CloseImpl(ExecContext* ctx) {
  seen_.clear();
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
