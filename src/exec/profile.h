#ifndef GAPPLY_EXEC_PROFILE_H_
#define GAPPLY_EXEC_PROFILE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/json.h"
#include "src/common/result.h"
#include "src/exec/physical_op.h"

namespace gapply {

/// \brief Immutable snapshot of one operator's runtime profile, taken after
/// execution with `ExecContext::profiling()` on.
///
/// `profile` holds the raw counters accumulated by the PhysOp entry points
/// (all time fields *cumulative*, i.e. inclusive of children). `self_ns` is
/// derived here as cumulative minus the children's cumulative, clamped at
/// zero: a subtree that merged parallel worker clones reports summed worker
/// busy time, which can legitimately exceed the parent's wall-clock span.
struct ProfileNode {
  std::string name;            // PhysOp::DebugName()
  size_t dop = 1;              // PhysOp::profile_dop()
  double estimated_rows = -1;  // optimizer estimate; negative = unknown
  OpRuntimeProfile profile;
  uint64_t self_ns = 0;
  std::vector<ProfileNode> children;
};

/// Walks the (already executed) operator tree and snapshots every node's
/// runtime profile, deriving per-node self time.
ProfileNode CollectProfile(const PhysOp& root);

struct ProfileRenderOptions {
  /// When false, every wall-clock-derived field (times, phases, worker
  /// counts, call counts) is suppressed and only the deterministic fields
  /// (operator name, rows, estimates, DOP) are printed — the stable subset
  /// golden-file tests pin down.
  bool show_timings = true;
};

/// Renders the snapshot as an indented annotated plan tree, e.g.
///   GApply(...) rows=120 est=100 dop=8  [total=12.345ms self=1.204ms ...]
///     phases: partition=2.101ms per_group_query=9.870ms
std::string RenderProfileText(const ProfileNode& node,
                              const ProfileRenderOptions& options = {});

/// Converts the snapshot to the shared per-operator JSON schema used by
/// EXPLAIN (ANALYZE, FORMAT JSON), tools/gapply_profile, and every bench's
/// BENCH_*.json "profiles" section:
///   {"op": ..., "dop": ..., "estimated_rows": ...?, "rows_out": ...,
///    "rows_in": ..., "batches_out": ..., "opens": ..., "batch_calls": ...,
///    "workers_merged": ..., "total_ns": ...,
///    "self_ns": ..., "open_ns": ..., "next_ns": ..., "close_ns": ...,
///    "phases": {...}, "children": [...]}
JsonValue ProfileToJson(const ProfileNode& node);

/// CollectProfile + ProfileToJson in one call, for bench emission.
JsonValue CollectProfileJson(const PhysOp& root);

/// Checks the structural counter invariants a correct profile must satisfy
/// after a *successful* execution:
///   - every node's rows_in equals the sum of its children's rows_out (the
///     two are measured independently: rows_out in the child's own wrapper,
///     rows_in credited by the child to the consumer on the profiler stack);
///   - cumulative time >= derived self time;
///   - cumulative time >= the children's summed cumulative time, unless the
///     node or a child folded in parallel worker clones (workers_merged > 0),
///     whose summed busy time may exceed the parent's wall-clock span.
/// Used by tests and as a gapply_fuzz oracle on every profiled case.
Status ValidateProfile(const ProfileNode& root);

}  // namespace gapply

#endif  // GAPPLY_EXEC_PROFILE_H_
