#include "src/exec/gapply_op.h"

#include <algorithm>
#include <functional>
#include <iterator>
#include <limits>
#include <utility>

#include "src/common/hash_table.h"
#include "src/common/thread_pool.h"
#include "src/exec/filter_project_ops.h"
#include "src/exec/lifted_ops.h"

namespace gapply {

namespace {

Schema MakeGApplySchema(const Schema& outer,
                        const std::vector<int>& grouping_columns,
                        const Schema& pgq, bool lifted) {
  Schema out;
  for (int c : grouping_columns) {
    out.AddColumn(outer.column(static_cast<size_t>(c)));
  }
  const size_t n = pgq.num_columns() - (lifted ? 1 : 0);
  for (size_t i = 0; i < n; ++i) out.AddColumn(pgq.column(i));
  return out;
}

Row ExtractKey(const Row& row, const std::vector<int>& cols) {
  Row key;
  key.reserve(cols.size());
  for (int c : cols) key.push_back(row[static_cast<size_t>(c)]);
  return key;
}

/// Lifted units per worker at DOP > 1: enough that one slow gid range
/// does not leave the other workers idle, few enough that each lifted
/// execution still covers many groups.
constexpr size_t kLiftedUnitsPerWorker = 4;

// Spill partitioning is by gid, so every group's members land in exactly
// one file per level.
size_t PartitionOfGid(uint64_t gid, int level) {
  return SpillPartitionOf(std::hash<uint64_t>{}(gid), level);
}

/// Clusters `rows` by gid with a stable counting scatter, in place: row i
/// has gid `gids[i]`, and `counts[g]` rows have gid g. On return gid g's
/// rows sit at `rows[(*offsets)[g], (*offsets)[g + 1])` in their original
/// order. Each gids entry becomes its row's destination (its gid's next
/// free slot, taken in row order), and following the permutation's cycles
/// moves every row there, so no second row array is allocated.
Status ScatterByGid(std::vector<Row>* rows, std::vector<uint32_t> gids,
                    std::vector<size_t> counts, std::vector<size_t>* offsets) {
  if (rows->size() > std::numeric_limits<uint32_t>::max()) {
    return Status::NotImplemented("GApply partition of more than 2^32 rows");
  }
  offsets->assign(counts.size() + 1, 0);
  for (size_t g = 0; g < counts.size(); ++g) {
    (*offsets)[g + 1] = (*offsets)[g] + counts[g];
    counts[g] = (*offsets)[g];
  }
  for (uint32_t& slot : gids) slot = static_cast<uint32_t>(counts[slot]++);
  for (size_t i = 0; i < rows->size(); ++i) {
    while (gids[i] != i) {
      const size_t dest = gids[i];
      std::swap((*rows)[i], (*rows)[dest]);
      std::swap(gids[i], gids[dest]);
    }
  }
  return Status::OK();
}

}  // namespace

const char* PartitionModeName(PartitionMode mode) {
  return mode == PartitionMode::kSort ? "sort" : "hash";
}

GApplyOp::GApplyOp(PhysOpPtr outer, std::vector<int> grouping_columns,
                   std::string var_name, PhysOpPtr pgq, PartitionMode mode,
                   size_t parallelism, bool lifted)
    : PhysOp(MakeGApplySchema(outer->output_schema(), grouping_columns,
                              pgq->output_schema(), lifted)),
      outer_(std::move(outer)),
      grouping_columns_(std::move(grouping_columns)),
      var_name_(std::move(var_name)),
      pgq_(std::move(pgq)),
      mode_(mode),
      parallelism_(std::max<size_t>(1, parallelism)),
      lifted_(lifted) {}

std::vector<const PhysOp*> GApplyOp::children() const {
  return {outer_.get(), pgq_.get()};
}

Status GApplyOp::Partition(ExecContext* ctx) {
  num_groups_ = 0;
  group_keys_.clear();
  members_.clear();
  offsets_.clear();
  spilled_ = false;
  spill_writers_.clear();
  spill_paths_.clear();
  const bool budgeted =
      ctx->memory() != nullptr && ctx->spill() != nullptr;
  mem_.Reset(budgeted ? ctx->memory() : nullptr);

  RETURN_NOT_OK(outer_->Open(ctx));
  RowBatch batch(ctx->batch_size());
  if (mode_ == PartitionMode::kHash) {
    RETURN_NOT_OK(PartitionByHash(ctx, &batch));
    return outer_->Close(ctx);
  }

  while (true) {
    ASSIGN_OR_RETURN(bool has, outer_->NextBatch(ctx, &batch));
    if (!has) break;
    for (Row& row : batch.rows()) members_.push_back(std::move(row));
  }
  RETURN_NOT_OK(outer_->Close(ctx));

  // A stable sort on the grouping columns leaves the input gid-clustered
  // in place: equal keys are adjacent and keep their input order. A group
  // boundary is a row that differs from its predecessor on some grouping
  // column — compared on the raw row. A group's key is read off its first
  // row.
  profile_.work.rows_sorted += members_.size();
  std::stable_sort(members_.begin(), members_.end(),
                   [this](const Row& a, const Row& b) {
                     for (int c : grouping_columns_) {
                       const int cmp =
                           CompareForSort(a[static_cast<size_t>(c)],
                                          b[static_cast<size_t>(c)]);
                       if (cmp != 0) return cmp < 0;
                     }
                     return false;
                   });
  const auto same_group = [this](const Row& a, const Row& b) {
    for (int c : grouping_columns_) {
      if (!a[static_cast<size_t>(c)].Equals(b[static_cast<size_t>(c)])) {
        return false;
      }
    }
    return true;
  };
  for (size_t i = 0; i < members_.size(); ++i) {
    if (i == 0 || !same_group(members_[i - 1], members_[i])) {
      offsets_.push_back(i);
    }
  }
  num_groups_ = offsets_.size();
  offsets_.push_back(members_.size());
  return Status::OK();
}

Status GApplyOp::PartitionByHash(ExecContext* ctx, RowBatch* batch) {
  // Pass 1 assigns gids straight off the outer child, batch at a time: key
  // hashes are precomputed per batch, then each row is matched against the
  // shared flat table (gid = entry id) by comparing its grouping columns in
  // place with those of its group's first row — no key is materialized
  // until a spill needs one.
  const bool budgeted = mem_.tracker() != nullptr;
  HashTable index;
  std::vector<Row> input;
  std::vector<uint32_t> gids;
  std::vector<size_t> counts;
  std::vector<size_t> first_row;  // input position of each gid's first row
  std::vector<size_t> hashes;
  const auto row_matches_group = [&](const Row& row, size_t gid) {
    for (size_t i = 0; i < grouping_columns_.size(); ++i) {
      const size_t c = static_cast<size_t>(grouping_columns_[i]);
      const Value& key =
          spilled_ ? group_keys_[gid][i] : input[first_row[gid]][c];
      if (!row[c].Equals(key)) return false;
    }
    return true;
  };
  while (true) {
    ASSIGN_OR_RETURN(bool has, outer_->NextBatch(ctx, batch));
    if (!has) break;
    profile_.work.rows_hash_partitioned += batch->size();
    hashes.resize(batch->size());
    for (size_t i = 0; i < batch->size(); ++i) {
      hashes[i] = HashRowColumns((*batch)[i], grouping_columns_);
    }
    for (size_t i = 0; i < batch->size(); ++i) {
      Row& r = (*batch)[i];
      // A buffered row costs its own bytes plus its gids slot.
      if (!spilled_ && budgeted &&
          !mem_.TryGrow(ApproxRowBytes(r) + sizeof(uint32_t))) {
        RETURN_NOT_OK(StartMemberSpill(ctx, &input, &gids, first_row));
      }
      const auto [gid, inserted] = index.FindOrInsert(
          hashes[i], [&](uint32_t cand) { return row_matches_group(r, cand); });
      if (inserted) {
        ++num_groups_;
        if (spilled_) {
          group_keys_.push_back(ExtractKey(r, grouping_columns_));
        } else {
          first_row.push_back(input.size());
          counts.push_back(0);
        }
      }
      if (spilled_) {
        RETURN_NOT_OK(
            spill_writers_[PartitionOfGid(gid, 0)]->WriteIndexedRow(gid, r));
      } else {
        ++counts[gid];
        gids.push_back(static_cast<uint32_t>(gid));
        input.push_back(std::move(r));
      }
    }
  }
  if (spilled_) {
    ASSIGN_OR_RETURN(spill_paths_, FinishSpillFiles(spill_writers_));
    spill_writers_.clear();
    return Status::OK();
  }

  // Pass 2: a stable counting scatter into gid order.
  RETURN_NOT_OK(
      ScatterByGid(&input, std::move(gids), std::move(counts), &offsets_));
  members_ = std::move(input);
  return Status::OK();
}

void GApplyOp::PlanUnits(size_t dop) {
  unit_bounds_.clear();
  if (!lifted_) return;
  // One lifted execution covers every group of the buffer. Serially that
  // is one unit; in parallel, contiguous gid ranges of about equal row
  // counts, a few per worker so a skewed range does not idle the others.
  const size_t groups = buffer_groups();
  unit_bounds_.push_back(0);
  if (dop > 1 && groups > 1) {
    const size_t target =
        std::max<size_t>(1, members_.size() / (dop * kLiftedUnitsPerWorker));
    for (size_t g = 1; g < groups; ++g) {
      if (offsets_[g] - offsets_[unit_bounds_.back()] >= target) {
        unit_bounds_.push_back(g);
      }
    }
  }
  if (groups > 0) {
    unit_bounds_.push_back(groups);
    profile_.work.pgq_executions++;
  }
}

GroupBinding GApplyOp::UnitBinding(size_t u) const {
  GroupBinding binding;
  binding.schema = &outer_->output_schema();
  if (lifted_) {
    binding.rows = members_.data();
    binding.num_rows = members_.size();
    binding.offsets = offsets_.data();
    binding.first_gid = unit_bounds_[u];
    binding.end_gid = unit_bounds_[u + 1];
  } else {
    binding.rows = members_.data() + offsets_[u];
    binding.num_rows = offsets_[u + 1] - offsets_[u];
  }
  return binding;
}

size_t GApplyOp::RowGid(size_t unit, const Row& pgq_row) const {
  return lifted_ ? GidOf(pgq_row) : unit;
}

Row GApplyOp::PrefixedRow(size_t gid, Row pgq_row) const {
  const size_t n = pgq_row.size() - (lifted_ ? 1 : 0);
  Row full;
  full.reserve(grouping_columns_.size() + n);
  const Row& first = members_[offsets_[gid]];
  for (int c : grouping_columns_) full.push_back(first[static_cast<size_t>(c)]);
  full.insert(full.end(), std::make_move_iterator(pgq_row.begin()),
              std::make_move_iterator(pgq_row.begin() +
                                      static_cast<std::ptrdiff_t>(n)));
  return full;
}

Status GApplyOp::OpenUnit(ExecContext* ctx) {
  ctx->BindGroup(var_name_, UnitBinding(current_unit_));
  Status st = pgq_->Open(ctx);
  if (!st.ok()) {
    (void)ctx->UnbindGroup(var_name_);
    return st;
  }
  unit_open_ = true;
  if (ctx->profiling()) unit_open_ns_ = NowNs();
  pgq_rows_.Reset();
  if (!lifted_) profile_.work.pgq_executions++;
  return Status::OK();
}

Status GApplyOp::CloseUnit(ExecContext* ctx) {
  if (ctx->profiling()) profile_.work.gapply_pgq_ns += NowNs() - unit_open_ns_;
  RETURN_NOT_OK(pgq_->Close(ctx));
  RETURN_NOT_OK(ctx->UnbindGroup(var_name_));
  unit_open_ = false;
  return Status::OK();
}

Status GApplyOp::ExecuteBound(PhysOp* pgq, ExecContext* ctx, size_t unit,
                              uint64_t* pgq_executions) {
  ctx->BindGroup(var_name_, UnitBinding(unit));
  Status st = pgq->Open(ctx);
  if (!st.ok()) {
    (void)ctx->UnbindGroup(var_name_);
    return st;
  }
  if (!lifted_) ++*pgq_executions;
  RowBatch batch(ctx->batch_size());
  while (true) {
    auto next = pgq->NextBatch(ctx, &batch);
    if (!next.ok()) {
      (void)pgq->Close(ctx);
      (void)ctx->UnbindGroup(var_name_);
      return next.status();
    }
    if (!*next) break;
    for (Row& pgq_row : batch.rows()) {
      const size_t gid = RowGid(unit, pgq_row);
      unit_outputs_[spilled_ ? buffer_gids_[gid] : unit].push_back(
          PrefixedRow(gid, std::move(pgq_row)));
    }
  }
  st = pgq->Close(ctx);
  Status unbind = ctx->UnbindGroup(var_name_);
  RETURN_NOT_OK(st);
  return unbind;
}

Status GApplyOp::ExecuteUnitsParallel(ExecContext* ctx) {
  const size_t units = num_units();
  const size_t dop = std::min(parallelism_, units);

  struct WorkerState {
    PhysOpPtr pgq;
    ExecContext ctx;
    size_t units_claimed = 0;
    uint64_t pgq_executions = 0;
    uint64_t busy_start_ns = 0;  // profiling only
    uint64_t busy_ns = 0;
  };
  std::vector<WorkerState> workers(dop);
  for (WorkerState& w : workers) {
    w.pgq = pgq_->Clone();
    w.ctx = ctx->ForkForWorker();
  }

  // Each unit's output goes to its own slot in unit_outputs_, so the
  // stream order is independent of scheduling, and FanOutUnits surfaces
  // the smallest failing unit's error — the one serial execution hits.
  FanOutHooks hooks;
  if (ctx->profiling()) {
    hooks.open = [&workers](size_t w) {
      workers[w].busy_start_ns = NowNs();
      return Status::OK();
    };
    hooks.close = [&workers](size_t w) {
      workers[w].busy_ns = NowNs() - workers[w].busy_start_ns;
      return Status::OK();
    };
  }
  Status st = FanOutUnits(
      ctx->thread_pool(), dop, units,
      [this, &workers](size_t w, size_t u) {
        WorkerState& ws = workers[w];
        ws.units_claimed++;
        return ExecuteBound(ws.pgq.get(), &ws.ctx, u, &ws.pgq_executions);
      },
      hooks);

  // The clones' work reaches the tree through the template PGQ.
  for (const WorkerState& w : workers) {
    profile_.work.pgq_executions += w.pgq_executions;
    if (w.units_claimed > 0) pgq_->MergeTreeProfileFrom(*w.pgq);
  }
  if (ctx->profiling()) {
    // The clones' output had no profiled consumer (workers drain them from
    // a bare context); credit it to this operator so rows_in stays equal to
    // the children's merged rows_out.
    profile_.rows_in += unit_outputs_.num_rows();
    // Per-worker attribution: only a worker that actually claimed a unit
    // reports itself. A worker that lost every race to the unit cursor
    // must be skipped entirely — folding it in as a zero would collapse
    // the min-busy attribution to 0 (see Counters::MergeFrom).
    for (const WorkerState& w : workers) {
      if (w.units_claimed == 0) continue;
      ExecContext::Counters busy;
      busy.gapply_workers = 1;
      busy.gapply_worker_busy_ns = busy.gapply_worker_busy_min_ns =
          busy.gapply_worker_busy_max_ns = w.busy_ns;
      profile_.work.MergeFrom(busy);
    }
  }
  return st;
}

Status GApplyOp::StartMemberSpill(ExecContext* ctx, std::vector<Row>* input,
                                  std::vector<uint32_t>* gids,
                                  const std::vector<size_t>& first_row) {
  ASSIGN_OR_RETURN(spill_writers_, OpenSpillFanout(ctx->spill()));
  // Group keys stay in memory; the member rows they were read from go.
  for (size_t pos : first_row) {
    group_keys_.push_back(ExtractKey((*input)[pos], grouping_columns_));
  }
  // Flush the buffered member rows in input order: each gid's rows stay in
  // outer input order within its partition file, which is all the
  // per-partition scatter in phase 2 relies on.
  for (size_t i = 0; i < input->size(); ++i) {
    const uint32_t gid = (*gids)[i];
    RETURN_NOT_OK(spill_writers_[PartitionOfGid(gid, 0)]->WriteIndexedRow(
        gid, (*input)[i]));
  }
  *input = std::vector<Row>();
  *gids = std::vector<uint32_t>();
  mem_.ReleaseAll();
  spilled_ = true;
  return Status::OK();
}

Status GApplyOp::ExecuteSpilledPartition(ExecContext* ctx,
                                         const std::string& path, int level) {
  const SpillRecords records{
      /*indexed=*/true,
      [](uint64_t gid, const Row&, int l) { return PartitionOfGid(gid, l); }};
  MemoryReservation part_mem(mem_.tracker());
  ASSIGN_OR_RETURN(
      SpillPartition part,
      LoadSpillPartition(path, level, records, &part_mem, ctx->spill()));
  if (!part.loaded) {
    ASSIGN_OR_RETURN(std::vector<std::string> sub_paths,
                     FinishSpillFiles(part.split));
    for (const std::string& sub : sub_paths) {
      RETURN_NOT_OK(ExecuteSpilledPartition(ctx, sub, level + 1));
    }
    return Status::OK();
  }
  profile_.peak_memory =
      std::max<uint64_t>(profile_.peak_memory, part_mem.peak());

  // The partition becomes the partition buffer: buffer gid i is its i-th
  // smallest gid, and the scatter keeps each gid's rows in file order
  // (= outer input order). Its units then run as in memory, serially;
  // their outputs land in per-gid slots, drained in gid order by the
  // buffered-output path.
  std::vector<uint32_t> gids(part.indices.begin(), part.indices.end());
  buffer_gids_ = gids;
  std::sort(buffer_gids_.begin(), buffer_gids_.end());
  buffer_gids_.erase(std::unique(buffer_gids_.begin(), buffer_gids_.end()),
                     buffer_gids_.end());
  std::vector<size_t> counts(buffer_gids_.size(), 0);
  for (uint32_t& g : gids) {
    g = static_cast<uint32_t>(
        std::lower_bound(buffer_gids_.begin(), buffer_gids_.end(), g) -
        buffer_gids_.begin());
    ++counts[g];
  }
  RETURN_NOT_OK(
      ScatterByGid(&part.rows, std::move(gids), std::move(counts), &offsets_));
  members_ = std::move(part.rows);
  PlanUnits(/*dop=*/1);
  for (size_t u = 0; u < num_units(); ++u) {
    RETURN_NOT_OK(
        ExecuteBound(pgq_.get(), ctx, u, &profile_.work.pgq_executions));
  }
  members_.clear();
  offsets_.clear();
  buffer_gids_.clear();
  return Status::OK();
}

Status GApplyOp::OpenImpl(ExecContext* ctx) {
  current_unit_ = 0;
  unit_open_ = false;
  buffered_exec_ = false;
  unit_outputs_.Reset(0);

  // Phase timers run only under profiling (DESIGN.md §12).
  const bool timed = ctx->profiling();
  const uint64_t t0 = timed ? NowNs() : 0;
  RETURN_NOT_OK(Partition(ctx));
  if (timed) profile_.work.gapply_partition_ns += NowNs() - t0;

  if (spilled_) {
    // Spilled phase 2 runs one partition at a time, serially, into per-gid
    // output slots — the buffered drain below emits them in gid order.
    buffered_exec_ = true;
    unit_outputs_.Reset(num_groups_);
    const uint64_t t1 = timed ? NowNs() : 0;
    Status st = Status::OK();
    for (const std::string& path : spill_paths_) {
      st = ExecuteSpilledPartition(ctx, path, 0);
      if (!st.ok()) break;
    }
    spill_paths_.clear();
    profile_.peak_memory =
        std::max<uint64_t>(profile_.peak_memory, mem_.peak());
    mem_.ReleaseAll();
    if (timed) profile_.work.gapply_pgq_ns += NowNs() - t1;
    return st;
  }

  PlanUnits(parallelism_);
  if (parallelism_ > 1 && num_units() > 1) {
    buffered_exec_ = true;
    unit_outputs_.Reset(num_units());
    const uint64_t t1 = timed ? NowNs() : 0;
    Status st = ExecuteUnitsParallel(ctx);
    if (timed) profile_.work.gapply_pgq_ns += NowNs() - t1;
    RETURN_NOT_OK(st);
  }
  return Status::OK();
}

Result<bool> GApplyOp::NextBatchImpl(ExecContext* ctx, RowBatch* out) {
  // Parallel and spilled phase 2 buffered their output in unit (gid)
  // order, which is the serial emission order.
  if (buffered_exec_) return unit_outputs_.Drain(out);
  out->Clear();

  // Serial phase 2: pull the open unit's PGQ rows and emit them
  // key-prefixed, rolling over unit boundaries until the batch fills. PGQ
  // rows that do not fit wait in pgq_rows_ for the next call.
  while (current_unit_ < num_units() && !out->full()) {
    if (!unit_open_) RETURN_NOT_OK(OpenUnit(ctx));
    auto next = pgq_rows_.Peek(ctx, pgq_.get(), out->capacity());
    if (!next.ok()) {
      (void)CloseUnit(ctx);
      return next.status();
    }
    if (*next == nullptr) {
      RETURN_NOT_OK(CloseUnit(ctx));
      ++current_unit_;
      continue;
    }
    const size_t gid = RowGid(current_unit_, **next);
    out->Add(PrefixedRow(gid, std::move(**next)));
    pgq_rows_.Advance();
  }
  return !out->empty();
}

Status GApplyOp::CloseImpl(ExecContext* ctx) {
  if (unit_open_) RETURN_NOT_OK(CloseUnit(ctx));
  pgq_rows_.Reset();
  num_groups_ = 0;
  group_keys_.clear();
  members_.clear();
  offsets_.clear();
  buffer_gids_.clear();
  unit_bounds_.clear();
  unit_outputs_.Reset(0);
  spill_writers_.clear();
  for (const std::string& path : spill_paths_) RemoveSpillFile(path);
  spill_paths_.clear();
  spilled_ = false;
  mem_.ReleaseAll();
  return Status::OK();
}

std::string GApplyOp::DebugName() const {
  std::string cols;
  for (size_t i = 0; i < grouping_columns_.size(); ++i) {
    if (i > 0) cols += ",";
    cols += outer_->output_schema()
                .column(static_cast<size_t>(grouping_columns_[i]))
                .name;
  }
  std::string out = "GApply(gcols=[" + cols + "], var=$" + var_name_ +
                    ", partition=" + PartitionModeName(mode_);
  if (parallelism_ > 1) {
    out += ", parallelism=" + std::to_string(parallelism_);
  }
  if (lifted_) out += ", lifted";
  return out + ")";
}

PhysOpPtr GApplyOp::Clone() const {
  return std::make_unique<GApplyOp>(outer_->Clone(), grouping_columns_,
                                    var_name_, pgq_->Clone(), mode_,
                                    parallelism_, lifted_);
}

}  // namespace gapply
