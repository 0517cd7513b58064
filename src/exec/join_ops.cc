#include "src/exec/join_ops.h"

#include <algorithm>
#include <tuple>

#include "src/common/thread_pool.h"
#include "src/exec/exchange_op.h"
#include "src/exec/scan_ops.h"

namespace gapply {

namespace {

// Concatenates left ++ right into out.
void ConcatRows(const Row& left, const Row& right, Row* out) {
  out->clear();
  out->reserve(left.size() + right.size());
  out->insert(out->end(), left.begin(), left.end());
  out->insert(out->end(), right.begin(), right.end());
}

// True iff a's `a_cols` equal b's `b_cols` pairwise (Value::Equals).
bool KeysEqual(const Row& a, const std::vector<int>& a_cols, const Row& b,
               const std::vector<int>& b_cols) {
  for (size_t k = 0; k < a_cols.size(); ++k) {
    if (!a[static_cast<size_t>(a_cols[k])].Equals(
            b[static_cast<size_t>(b_cols[k])])) {
      return false;
    }
  }
  return true;
}

std::string KeyList(const Schema& schema, const std::vector<int>& cols) {
  std::string out = "[";
  for (size_t i = 0; i < cols.size(); ++i) {
    if (i > 0) out += ",";
    out += schema.column(static_cast<size_t>(cols[i])).name;
  }
  out += "]";
  return out;
}

}  // namespace

HashJoinOp::HashJoinOp(PhysOpPtr left, PhysOpPtr right,
                       std::vector<int> left_keys, std::vector<int> right_keys,
                       ExprPtr residual, size_t parallelism, bool null_safe)
    : PhysOp(Schema::Concat(left->output_schema(), right->output_schema())),
      left_(std::move(left)),
      right_(std::move(right)),
      left_keys_(std::move(left_keys)),
      right_keys_(std::move(right_keys)),
      residual_(std::move(residual)),
      parallelism_(std::max<size_t>(1, parallelism)),
      null_safe_(null_safe) {}

bool HashJoinOp::Keyless(const Row& row,
                         const std::vector<int>& keys) const {
  if (null_safe_) return false;
  for (int c : keys) {
    if (row[static_cast<size_t>(c)].is_null()) return true;
  }
  return false;
}

void HashJoinOp::Insert(BuildTable* t, const Row& row, size_t hash) const {
  t->table.InsertRow(hash, [&](uint32_t first) {
    return KeysEqual(row, right_keys_, *t->rows[first], right_keys_);
  });
  t->rows.push_back(&row);
}

uint32_t HashJoinOp::FirstMatch(const BuildTable& t, const Row& probe,
                                size_t hash) const {
  const uint32_t entry = t.table.Find(hash, [&](uint32_t e) {
    return KeysEqual(probe, left_keys_, *t.rows[t.table.FirstRow(e)],
                     right_keys_);
  });
  return entry == HashTable::kNone ? HashTable::kNone
                                   : t.table.FirstRow(entry);
}

void HashJoinOp::BuildParallel(ExecContext* ctx) {
  // Phase 1: workers claim fixed-size chunks of the build rows, hash each
  // row's key once and route it to shard hash % nshards (keyless rows to
  // none).
  constexpr size_t kChunkRows = 8192;
  const size_t n = build_rows_.size();
  const size_t num_chunks = (n + kChunkRows - 1) / kChunkRows;
  const size_t nshards = parallelism_;
  std::vector<size_t> hashes(n);
  std::vector<uint32_t> shard_of(n);
  const auto hash_chunk = [&](size_t, size_t c) {
    const size_t end = std::min(n, (c + 1) * kChunkRows);
    for (size_t i = c * kChunkRows; i < end; ++i) {
      if (Keyless(build_rows_[i], right_keys_)) {
        shard_of[i] = HashTable::kNone;
        continue;
      }
      hashes[i] = HashRowColumns(build_rows_[i], right_keys_);
      shard_of[i] = static_cast<uint32_t>(hashes[i] % nshards);
    }
    return Status::OK();
  };
  // Neither phase can fail.
  (void)FanOutUnits(ctx->thread_pool(), parallelism_, num_chunks, hash_chunk);

  // Phase 2: one unit per shard inserts that shard's rows in global row
  // order, reproducing the serial per-key insertion sequence.
  tables_.resize(nshards);
  const auto build_shard = [&](size_t, size_t s) {
    for (size_t i = 0; i < n; ++i) {
      if (shard_of[i] == s) Insert(&tables_[s], build_rows_[i], hashes[i]);
    }
    return Status::OK();
  };
  (void)FanOutUnits(ctx->thread_pool(), nshards, nshards, build_shard);
}

Status HashJoinOp::OpenImpl(ExecContext* ctx) {
  tables_.clear();
  build_rows_.clear();
  probe_.Reset();
  have_matches_ = false;
  spilled_ = false;
  output_runs_.clear();
  run_heads_.clear();
  const bool budgeted = ctx->memory() != nullptr && ctx->spill() != nullptr;
  mem_.Reset(budgeted ? ctx->memory() : nullptr);
  // A join on an Exchange morsel spine cannot take the Grace path: it
  // drains the probe side during Open, but a morsel-mode probe scan has no
  // morsel armed until the worker loop starts, and a spilled join latches
  // end-of-stream instead of following the per-morsel re-pulls. Pin the
  // build in memory instead — still booked (ForceGrow), so co-resident
  // spillable operators see the pressure and spill sooner.
  bool spillable = budgeted;
  if (budgeted) {
    TableScanOp* probe_scan = FindExchangeMorselSource(left_.get());
    if (probe_scan != nullptr && probe_scan->morsel_mode()) spillable = false;
  }

  // Build phase over the right child, pulled batch-at-a-time.
  RETURN_NOT_OK(right_->Open(ctx));
  RowBatch batch(ctx->batch_size());
  bool spill = false;
  size_t batch_pos = 0;
  while (!spill) {
    ASSIGN_OR_RETURN(bool has, right_->NextBatch(ctx, &batch));
    if (!has) break;
    for (size_t i = 0; i < batch.size(); ++i) {
      Row& row = batch[i];
      if (budgeted) {
        const size_t bytes = ApproxRowBytes(row);
        if (!mem_.TryGrow(bytes)) {
          if (spillable) {
            // Switch to the Grace path. Rows from this one onward stay in
            // the batch; SpillBuildAndJoin flushes the buffered prefix
            // first, then the batch remainder, then streams the rest of the
            // child — so the flush order equals the child's row order.
            spill = true;
            batch_pos = i;
            break;
          }
          mem_.ForceGrow(bytes);
        }
      }
      build_rows_.push_back(std::move(row));
    }
  }
  if (spill) {
    Status st = SpillBuildAndJoin(ctx, &batch, batch_pos);
    profile_.peak_memory =
        std::max<uint64_t>(profile_.peak_memory, mem_.peak());
    return st;
  }
  RETURN_NOT_OK(right_->Close(ctx));
  if (budgeted) {
    profile_.peak_memory =
        std::max<uint64_t>(profile_.peak_memory, mem_.peak());
  }
  if (build_rows_.size() >= HashTable::kNone) {
    return Status::NotImplemented("hash join build of 2^32 rows or more");
  }
  // Index only now that build_rows_ stopped growing (the vector may have
  // reallocated during the loop).
  if (parallelism_ > 1 && build_rows_.size() >= kParallelBuildMinRows) {
    BuildParallel(ctx);
  } else {
    tables_.resize(1);
    for (const Row& build_row : build_rows_) {
      if (Keyless(build_row, right_keys_)) continue;
      Insert(&tables_[0], build_row, HashRowColumns(build_row, right_keys_));
    }
  }
  return left_->Open(ctx);
}

Status HashJoinOp::SpillBuildAndJoin(ExecContext* ctx, RowBatch* pending,
                                     size_t pending_pos) {
  // 1. Partition the build side at level 0: the buffered prefix first (in
  // arrival order), then the batch the trigger interrupted, then the rest
  // of the right child streamed straight through. Keyless rows (NULL key
  // under equi-join semantics) can never match and are dropped here, just
  // as the in-memory build skips them at insertion.
  ASSIGN_OR_RETURN(std::vector<std::unique_ptr<SpillWriter>> writers,
                   OpenSpillFanout(ctx->spill()));
  const auto route_build = [&](const Row& row) -> Status {
    if (Keyless(row, right_keys_)) return Status::OK();
    const size_t part = SpillPartitionOf(HashRowColumns(row, right_keys_), 0);
    return writers[part]->WriteRow(row);
  };
  for (const Row& row : build_rows_) RETURN_NOT_OK(route_build(row));
  build_rows_.clear();
  build_rows_.shrink_to_fit();
  mem_.ReleaseAll();
  for (size_t i = pending_pos; i < pending->size(); ++i) {
    RETURN_NOT_OK(route_build((*pending)[i]));
  }
  while (true) {
    ASSIGN_OR_RETURN(bool has, right_->NextBatch(ctx, pending));
    if (!has) break;
    for (const Row& row : pending->rows()) RETURN_NOT_OK(route_build(row));
  }
  RETURN_NOT_OK(right_->Close(ctx));
  ASSIGN_OR_RETURN(std::vector<std::string> build_paths,
                   FinishSpillFiles(writers));

  // 2. Partition the probe side, each row tagged with its global probe
  // index so step 4 can merge the per-partition outputs back into the
  // exact in-memory probe order.
  ASSIGN_OR_RETURN(writers, OpenSpillFanout(ctx->spill()));
  RETURN_NOT_OK(left_->Open(ctx));
  uint64_t probe_idx = 0;
  while (true) {
    ASSIGN_OR_RETURN(bool has, left_->NextBatch(ctx, pending));
    if (!has) break;
    for (const Row& row : pending->rows()) {
      const uint64_t idx = probe_idx++;
      if (Keyless(row, left_keys_)) continue;
      const size_t part = SpillPartitionOf(HashRowColumns(row, left_keys_), 0);
      RETURN_NOT_OK(writers[part]->WriteIndexedRow(idx, row));
    }
  }
  ASSIGN_OR_RETURN(std::vector<std::string> probe_paths,
                   FinishSpillFiles(writers));
  writers.clear();

  // 3. Join every partition pair into index-tagged output runs.
  for (size_t p = 0; p < kSpillFanout; ++p) {
    RETURN_NOT_OK(JoinPartition(ctx, build_paths[p], probe_paths[p], 0));
  }

  // 4. Prime the k-way merge. Probe-index sets across runs are disjoint,
  // so popping the smallest head index reproduces the probe order.
  run_heads_.resize(output_runs_.size());
  for (size_t r = 0; r < output_runs_.size(); ++r) {
    ASSIGN_OR_RETURN(run_heads_[r].reader,
                     SpillReader::Open(output_runs_[r]));
    ASSIGN_OR_RETURN(bool has, run_heads_[r].reader->ReadIndexedRow(
                                   &run_heads_[r].idx, &run_heads_[r].row));
    run_heads_[r].done = !has;
  }
  spilled_ = true;
  return Status::OK();
}

Status HashJoinOp::JoinPartition(ExecContext* ctx,
                                 const std::string& build_path,
                                 const std::string& probe_path, int level) {
  const SpillRecords records{
      /*indexed=*/false, [this](uint64_t, const Row& r, int l) {
        return SpillPartitionOf(HashRowColumns(r, right_keys_), l);
      }};
  MemoryReservation part_mem(mem_.tracker());
  ASSIGN_OR_RETURN(SpillPartition build,
                   LoadSpillPartition(build_path, level, records, &part_mem,
                                      ctx->spill()));
  if (build.loaded) {
    profile_.peak_memory =
        std::max<uint64_t>(profile_.peak_memory, part_mem.peak());
    RETURN_NOT_OK(JoinLoadedPartition(ctx, build.rows, probe_path));
    RemoveSpillFile(probe_path);
    return Status::OK();
  }
  ASSIGN_OR_RETURN(std::vector<std::string> build_paths,
                   FinishSpillFiles(build.split));

  // The build partition split: repartition the probe side with the same
  // salt, so build sub-partition p still meets probe sub-partition p.
  ASSIGN_OR_RETURN(std::vector<std::unique_ptr<SpillWriter>> writers,
                   OpenSpillFanout(ctx->spill()));
  ASSIGN_OR_RETURN(std::unique_ptr<SpillReader> probe_reader,
                   SpillReader::Open(probe_path));
  uint64_t idx = 0;
  Row row;
  while (true) {
    ASSIGN_OR_RETURN(bool has, probe_reader->ReadIndexedRow(&idx, &row));
    if (!has) break;
    const size_t part =
        SpillPartitionOf(HashRowColumns(row, left_keys_), level + 1);
    RETURN_NOT_OK(writers[part]->WriteIndexedRow(idx, row));
  }
  probe_reader.reset();
  ASSIGN_OR_RETURN(std::vector<std::string> probe_paths,
                   FinishSpillFiles(writers));
  writers.clear();
  RemoveSpillFile(probe_path);

  for (size_t p = 0; p < kSpillFanout; ++p) {
    RETURN_NOT_OK(
        JoinPartition(ctx, build_paths[p], probe_paths[p], level + 1));
  }
  return Status::OK();
}

Status HashJoinOp::JoinLoadedPartition(ExecContext* ctx,
                                       const std::vector<Row>& build,
                                       const std::string& probe_path) {
  // Per-key insertion order equals the serial build's (the partition file
  // preserves build arrival order and every key lives in exactly one
  // partition), so matches chain in the same order. Keyless rows were
  // dropped when the sides were partitioned.
  BuildTable table;
  for (const Row& build_row : build) {
    Insert(&table, build_row, HashRowColumns(build_row, right_keys_));
  }

  ASSIGN_OR_RETURN(std::unique_ptr<SpillReader> probe,
                   SpillReader::Open(probe_path));
  ASSIGN_OR_RETURN(std::string out_path, ctx->spill()->NewFilePath());
  ASSIGN_OR_RETURN(std::unique_ptr<SpillWriter> out_writer,
                   SpillWriter::Open(out_path));
  uint64_t idx = 0;
  Row probe_row;
  Row joined;
  while (true) {
    ASSIGN_OR_RETURN(bool has, probe->ReadIndexedRow(&idx, &probe_row));
    if (!has) break;
    for (uint32_t r = FirstMatch(table, probe_row,
                                 HashRowColumns(probe_row, left_keys_));
         r != HashTable::kNone; r = table.table.NextRow(r)) {
      ConcatRows(probe_row, *table.rows[r], &joined);
      if (residual_ != nullptr) {
        ASSIGN_OR_RETURN(bool pass,
                         EvalPredicate(*residual_, joined, *ctx->eval()));
        if (!pass) continue;
      }
      RETURN_NOT_OK(out_writer->WriteIndexedRow(idx, joined));
    }
  }
  const bool keep = out_writer->rows_written() > 0;
  RETURN_NOT_OK(FinishSpillFile(out_writer.get()));
  if (keep) {
    output_runs_.push_back(out_path);
  } else {
    RemoveSpillFile(out_path);
  }
  return Status::OK();
}

Result<bool> HashJoinOp::SpillNext(Row* out) {
  int best = -1;
  for (size_t r = 0; r < run_heads_.size(); ++r) {
    if (run_heads_[r].done) continue;
    if (best < 0 ||
        run_heads_[r].idx < run_heads_[static_cast<size_t>(best)].idx) {
      best = static_cast<int>(r);
    }
  }
  if (best < 0) return false;
  RunHead& head = run_heads_[static_cast<size_t>(best)];
  *out = std::move(head.row);
  ASSIGN_OR_RETURN(bool has, head.reader->ReadIndexedRow(&head.idx,
                                                         &head.row));
  head.done = !has;
  return true;
}

Result<bool> HashJoinOp::NextBatchImpl(ExecContext* ctx, RowBatch* out) {
  out->Clear();
  if (spilled_) {
    Row row;
    while (!out->full()) {
      ASSIGN_OR_RETURN(bool has, SpillNext(&row));
      if (!has) break;
      out->Add(std::move(row));
    }
    return !out->empty();
  }
  Row joined;
  while (!out->full()) {
    ASSIGN_OR_RETURN(const Row* left_row,
                     probe_.Peek(ctx, left_.get(), out->capacity()));
    if (left_row == nullptr) break;
    if (!have_matches_) {
      if (Keyless(*left_row, left_keys_)) {
        probe_.Advance();
        continue;
      }
      const size_t hash = HashRowColumns(*left_row, left_keys_);
      match_table_ = &tables_[hash % tables_.size()];
      match_row_ = FirstMatch(*match_table_, *left_row, hash);
      have_matches_ = true;
    }
    for (; match_row_ != HashTable::kNone && !out->full();
         match_row_ = match_table_->table.NextRow(match_row_)) {
      ConcatRows(*left_row, *match_table_->rows[match_row_], &joined);
      if (residual_ != nullptr) {
        ASSIGN_OR_RETURN(bool pass,
                         EvalPredicate(*residual_, joined, *ctx->eval()));
        if (!pass) continue;
      }
      out->Add(std::move(joined));
    }
    if (match_row_ != HashTable::kNone) break;  // resume mid-row
    have_matches_ = false;
    probe_.Advance();
  }
  return !out->empty();
}

Status HashJoinOp::CloseImpl(ExecContext* ctx) {
  tables_.clear();
  build_rows_.clear();
  probe_.Reset();
  have_matches_ = false;
  run_heads_.clear();
  for (const std::string& path : output_runs_) RemoveSpillFile(path);
  output_runs_.clear();
  spilled_ = false;
  mem_.ReleaseAll();
  return left_->Close(ctx);
}

std::string HashJoinOp::DebugName() const {
  std::string out = "HashJoin(l=" +
                    KeyList(left_->output_schema(), left_keys_) +
                    ", r=" + KeyList(right_->output_schema(), right_keys_);
  if (residual_ != nullptr) out += ", residual=" + residual_->ToString();
  if (parallelism_ > 1) out += ", dop=" + std::to_string(parallelism_);
  if (null_safe_) out += ", null-safe";
  out += ")";
  return out;
}

LookupJoinOp::LookupJoinOp(PhysOpPtr left, std::unique_ptr<TableScanOp> right,
                           int left_key, int right_key, ExprPtr residual,
                           bool null_safe)
    : PhysOp(Schema::Concat(left->output_schema(), right->output_schema())),
      left_(std::move(left)),
      right_(std::move(right)),
      left_key_(left_key),
      right_key_(right_key),
      residual_(std::move(residual)),
      null_safe_(null_safe) {}

Status LookupJoinOp::OpenImpl(ExecContext* ctx) {
  probe_.Reset();
  have_matches_ = false;
  pending_ = 0;
  build_program_.reset();
  const ColumnarTable& build = right_->table()->columnar();
  if (!build.ColumnSorted(static_cast<size_t>(right_key_))) {
    return Status::Internal("LookupJoin build key " +
                            KeyList(right_->output_schema(), {right_key_}) +
                            " is not sorted");
  }
  build_keys_ = &build.column(static_cast<size_t>(right_key_)).ints();
  if (!right_->pushed_predicates().empty()) {
    ASSIGN_OR_RETURN(build_program_,
                     ExprProgram::CompileScanPredicates(
                         build, right_->pushed_predicates()));
    profile_.expr_instructions = build_program_->num_instructions();
  }
  return left_->Open(ctx);
}

Status LookupJoinOp::LookUp(const Value& key) {
  pending_ = 0;
  const int64_t* first = build_keys_->data();
  const int64_t* last = first + build_keys_->size();
  const int64_t* lb = last;
  const int64_t* ub = last;
  // The probe key column is typed int64, so the key is an int64 or NULL. A
  // sorted column holds no NULL, so a NULL key matches nothing, even
  // null-safe.
  if (key.type() == TypeId::kInt64) {
    std::tie(lb, ub) = std::equal_range(first, last, key.int_val());
  }
  run_begin_ = static_cast<size_t>(lb - first);
  const size_t run_end = static_cast<size_t>(ub - first);
  if (build_program_ == nullptr) {
    pending_ = run_end - run_begin_;
  } else if (run_end > run_begin_) {
    selection_.clear();
    profile_.work.scan_rows_evaluated += run_end - run_begin_;
    RETURN_NOT_OK(build_program_->FilterRange(run_begin_, run_end,
                                              &selection_));
    pending_ = selection_.size();
  }
  profile_.work.rows_scanned += pending_;
  return Status::OK();
}

Result<bool> LookupJoinOp::NextBatchImpl(ExecContext* ctx, RowBatch* out) {
  out->Clear();
  const std::vector<Row>& build_rows = right_->table()->rows();
  Row joined;
  while (!out->full()) {
    ASSIGN_OR_RETURN(const Row* left_row,
                     probe_.Peek(ctx, left_.get(), out->capacity()));
    if (left_row == nullptr) break;
    if (!have_matches_) {
      RETURN_NOT_OK(LookUp((*left_row)[static_cast<size_t>(left_key_)]));
      have_matches_ = true;
    }
    for (; pending_ > 0 && !out->full(); --pending_) {
      ConcatRows(*left_row, build_rows[MatchAt(pending_ - 1)], &joined);
      if (residual_ != nullptr) {
        ASSIGN_OR_RETURN(bool pass,
                         EvalPredicate(*residual_, joined, *ctx->eval()));
        if (!pass) continue;
      }
      out->Add(std::move(joined));
    }
    if (pending_ > 0) break;  // resume mid-row
    have_matches_ = false;
    probe_.Advance();
  }
  return !out->empty();
}

Status LookupJoinOp::CloseImpl(ExecContext* ctx) {
  probe_.Reset();
  have_matches_ = false;
  pending_ = 0;
  build_program_.reset();
  return left_->Close(ctx);
}

std::string LookupJoinOp::DebugName() const {
  std::string out =
      "LookupJoin(l=" + KeyList(left_->output_schema(), {left_key_}) +
      ", r=" + KeyList(right_->output_schema(), {right_key_});
  if (residual_ != nullptr) out += ", residual=" + residual_->ToString();
  if (null_safe_) out += ", null-safe";
  out += ")";
  return out;
}

PhysOpPtr LookupJoinOp::Clone() const {
  auto right = std::unique_ptr<TableScanOp>(
      static_cast<TableScanOp*>(right_->Clone().release()));
  return std::make_unique<LookupJoinOp>(
      left_->Clone(), std::move(right), left_key_, right_key_,
      residual_ == nullptr ? nullptr : residual_->Clone(), null_safe_);
}

NestedLoopJoinOp::NestedLoopJoinOp(PhysOpPtr left, PhysOpPtr right,
                                   ExprPtr predicate)
    : PhysOp(Schema::Concat(left->output_schema(), right->output_schema())),
      left_(std::move(left)),
      right_(std::move(right)),
      predicate_(std::move(predicate)) {}

Status NestedLoopJoinOp::OpenImpl(ExecContext* ctx) {
  right_rows_.clear();
  left_rows_.Reset();
  right_pos_ = 0;
  RETURN_NOT_OK(right_->Open(ctx));
  RowBatch batch(ctx->batch_size());
  while (true) {
    ASSIGN_OR_RETURN(bool has, right_->NextBatch(ctx, &batch));
    if (!has) break;
    for (Row& row : batch.rows()) {
      right_rows_.push_back(std::move(row));
    }
  }
  RETURN_NOT_OK(right_->Close(ctx));
  return left_->Open(ctx);
}

Result<bool> NestedLoopJoinOp::NextBatchImpl(ExecContext* ctx,
                                             RowBatch* out) {
  out->Clear();
  Row joined;
  while (!out->full()) {
    ASSIGN_OR_RETURN(const Row* left_row,
                     left_rows_.Peek(ctx, left_.get(), out->capacity()));
    if (left_row == nullptr) break;
    for (; right_pos_ < right_rows_.size() && !out->full(); ++right_pos_) {
      ConcatRows(*left_row, right_rows_[right_pos_], &joined);
      if (predicate_ != nullptr) {
        ASSIGN_OR_RETURN(bool pass,
                         EvalPredicate(*predicate_, joined, *ctx->eval()));
        if (!pass) continue;
      }
      out->Add(std::move(joined));
    }
    if (right_pos_ < right_rows_.size()) break;  // resume mid-row
    left_rows_.Advance();
    right_pos_ = 0;
  }
  return !out->empty();
}

Status NestedLoopJoinOp::CloseImpl(ExecContext* ctx) {
  right_rows_.clear();
  left_rows_.Reset();
  return left_->Close(ctx);
}

PhysOpPtr HashJoinOp::Clone() const {
  return std::make_unique<HashJoinOp>(
      left_->Clone(), right_->Clone(), left_keys_, right_keys_,
      residual_ == nullptr ? nullptr : residual_->Clone(), parallelism_,
      null_safe_);
}

std::string NestedLoopJoinOp::DebugName() const {
  return "NestedLoopJoin(" +
         (predicate_ == nullptr ? std::string("true")
                                : predicate_->ToString()) +
         ")";
}

PhysOpPtr NestedLoopJoinOp::Clone() const {
  return std::make_unique<NestedLoopJoinOp>(
      left_->Clone(), right_->Clone(),
      predicate_ == nullptr ? nullptr : predicate_->Clone());
}

}  // namespace gapply
