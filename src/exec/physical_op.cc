#include "src/exec/physical_op.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <unordered_map>

#include "src/common/spill_file.h"
#include "src/common/string_util.h"

namespace gapply {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

/// Runs `impl`, the entry point of `op`, with `op` on top of the profiler
/// consumer stack, adding its wall time to `*ns`.
template <typename Impl>
auto ProfiledCall(ExecContext* ctx, PhysOp* op, uint64_t* ns, Impl impl) {
  ctx->profiler_consumers().push_back(op);
  const uint64_t t0 = NowNs();
  auto result = impl();
  *ns += NowNs() - t0;
  ctx->profiler_consumers().pop_back();
  return result;
}

}  // namespace

void OpRuntimeProfile::MergeFrom(const OpRuntimeProfile& other) {
  work.MergeFrom(other.work);
  opens += other.opens;
  batch_calls += other.batch_calls;
  rows_in += other.rows_in;
  open_ns += other.open_ns;
  next_ns += other.next_ns;
  close_ns += other.close_ns;
  peak_memory = std::max(peak_memory, other.peak_memory);
  // Worker clones compile the same expressions: keep the per-clone
  // instruction count rather than summing it.
  expr_instructions = std::max(expr_instructions, other.expr_instructions);
  workers_merged += other.workers_merged == 0 ? 1 : other.workers_merged;
}

void PhysOp::MergeTreeProfileFrom(const PhysOp& other) {
  profile_.MergeFrom(other.profile_);
  const std::vector<const PhysOp*> mine = children();
  const std::vector<const PhysOp*> theirs = other.children();
  const size_t n = std::min(mine.size(), theirs.size());
  for (size_t i = 0; i < n; ++i) {
    // children() hands out const views of operators this node owns and
    // mutates freely elsewhere; shedding constness on our own children to
    // fold the clone's numbers in is safe.
    const_cast<PhysOp*>(mine[i])->MergeTreeProfileFrom(*theirs[i]);
  }
}

ExecContext::Counters SumWorkCounters(const PhysOp& root) {
  ExecContext::Counters total = root.runtime_profile().work;
  for (const PhysOp* child : root.children()) {
    total.MergeFrom(SumWorkCounters(*child));
  }
  return total;
}

Status PhysOp::ProfiledOpen(ExecContext* ctx) {
  profile_.opens++;
  return ProfiledCall(ctx, this, &profile_.open_ns,
                      [&] { return OpenImpl(ctx); });
}

Result<bool> PhysOp::ProfiledNextBatch(ExecContext* ctx, RowBatch* out) {
  profile_.batch_calls++;
  const std::vector<PhysOp*>& consumers = ctx->profiler_consumers();
  PhysOp* consumer = consumers.empty() ? nullptr : consumers.back();
  Result<bool> produced = ProfiledCall(
      ctx, this, &profile_.next_ns, [&] { return NextBatchImpl(ctx, out); });
  if (produced.ok() && *produced && consumer != nullptr) {
    consumer->profile_.rows_in += out->size();
  }
  return produced;
}

Status PhysOp::ProfiledClose(ExecContext* ctx) {
  return ProfiledCall(ctx, this, &profile_.close_ns,
                      [&] { return CloseImpl(ctx); });
}

Status PhysOp::FinishSpillFile(SpillWriter* writer) {
  RETURN_NOT_OK(writer->Finish());
  profile_.work.spill_bytes += writer->bytes_written();
  profile_.work.spill_partitions += 1;
  return Status::OK();
}

Result<std::vector<std::string>> PhysOp::FinishSpillFiles(
    const std::vector<std::unique_ptr<SpillWriter>>& writers) {
  std::vector<std::string> paths;
  for (const auto& w : writers) {
    RETURN_NOT_OK(FinishSpillFile(w.get()));
    paths.push_back(w->path());
  }
  return paths;
}

std::string PhysOp::DebugString(int indent) const {
  std::string out = Repeat("  ", indent) + DebugName() + "\n";
  for (const PhysOp* child : children()) {
    out += child->DebugString(indent + 1);
  }
  return out;
}

std::string QueryResult::ToString(size_t max_rows) const {
  std::string out;
  for (size_t i = 0; i < schema.num_columns(); ++i) {
    if (i > 0) out += " | ";
    out += schema.column(i).name;
  }
  out += "\n";
  size_t shown = 0;
  for (const Row& row : rows) {
    if (shown++ >= max_rows) {
      out += "... (" + std::to_string(rows.size() - max_rows) + " more)\n";
      break;
    }
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += " | ";
      out += row[i].ToString();
    }
    out += "\n";
  }
  return out;
}

Result<Row*> ChildCursor::Refill(ExecContext* ctx, PhysOp* child,
                                 size_t capacity) {
  if (batch_.capacity() != capacity) batch_ = RowBatch(capacity);
  pos_ = 0;
  ASSIGN_OR_RETURN(bool has, child->NextBatch(ctx, &batch_));
  if (!has) {
    batch_.Clear();
    return nullptr;
  }
  return &batch_[0];
}

Result<QueryResult> ExecuteToVector(PhysOp* root, ExecContext* ctx) {
  QueryResult result;
  result.schema = root->output_schema();
  RETURN_NOT_OK(root->Open(ctx));
  RowBatch batch(ctx->batch_size());
  while (true) {
    auto next = root->NextBatch(ctx, &batch);
    if (!next.ok()) {
      // Best effort close; surface the execution error.
      (void)root->Close(ctx);
      return next.status();
    }
    if (!*next) break;
    for (Row& row : batch.rows()) {
      result.rows.push_back(std::move(row));
    }
  }
  RETURN_NOT_OK(root->Close(ctx));
  return result;
}

bool SameRowMultiset(const std::vector<Row>& a, const std::vector<Row>& b) {
  if (a.size() != b.size()) return false;
  std::unordered_map<Row, int, RowHash, RowEq> counts;
  for (const Row& row : a) counts[row]++;
  for (const Row& row : b) {
    auto it = counts.find(row);
    if (it == counts.end() || it->second == 0) return false;
    --it->second;
  }
  return true;
}

bool SameRowSequence(const std::vector<Row>& a, const std::vector<Row>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!RowsEqual(a[i], b[i])) return false;
  }
  return true;
}

namespace {

int TypeRank(TypeId type) {
  switch (type) {
    case TypeId::kNull:
      return 0;
    case TypeId::kBool:
      return 1;
    case TypeId::kInt64:
    case TypeId::kDouble:
      return 2;  // numerics share a rank so 2 and 2.0 sort adjacently
    case TypeId::kString:
      return 3;
  }
  return 4;
}

// Total order over arbitrary values: NULL first, then by type family, then
// by value (Value::Compare within a family). Any deterministic total order
// works here; it only has to agree with grouping equality.
bool ValueCanonicalLess(const Value& a, const Value& b) {
  const int ra = TypeRank(a.type());
  const int rb = TypeRank(b.type());
  if (ra != rb) return ra < rb;
  if (a.is_null()) return false;  // both NULL
  if (a.type() == TypeId::kBool && b.type() == TypeId::kBool) {
    return !a.bool_val() && b.bool_val();
  }
  Result<int> cmp = Value::Compare(a, b);
  if (!cmp.ok()) return false;
  return *cmp < 0;
}

}  // namespace

void SortRowsCanonical(std::vector<Row>* rows) {
  std::sort(rows->begin(), rows->end(), [](const Row& a, const Row& b) {
    const size_t n = std::min(a.size(), b.size());
    for (size_t i = 0; i < n; ++i) {
      if (ValueCanonicalLess(a[i], b[i])) return true;
      if (ValueCanonicalLess(b[i], a[i])) return false;
    }
    return a.size() < b.size();
  });
}

}  // namespace gapply
