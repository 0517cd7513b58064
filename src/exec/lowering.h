#ifndef GAPPLY_EXEC_LOWERING_H_
#define GAPPLY_EXEC_LOWERING_H_

#include <optional>

#include "src/exec/physical_op.h"
#include "src/optimizer/cost_model.h"
#include "src/plan/logical_plan.h"

namespace gapply {

/// Knobs for logical→physical translation.
struct LoweringOptions {
  /// Overrides the partition mode of every GApply (benches use this to
  /// compare sort- vs hash-partitioning on identical plans).
  std::optional<PartitionMode> force_partition_mode;

  /// Lowers every GApply's PGQ per group, also where a loop-lifted form
  /// exists (DESIGN.md §17). Tests and the fuzzer use this for the
  /// per-group reference that lifted execution must reproduce bit for bit;
  /// no session sets it.
  bool per_group_gapply = false;

  /// Degree of parallelism for every GApply's per-group execution phase.
  /// 0 means "engine default" (Database substitutes its session setting,
  /// `SET parallelism = N`); 1 is serial; N > 1 runs groups on N workers.
  size_t gapply_parallelism = 0;

  /// Degree of parallelism for plan-wide morsel-driven execution: Exchange
  /// operators inserted over streaming scan segments, parallel hash-join
  /// build, and parallel hash aggregation. 0 means "engine default" (the
  /// same `SET parallelism = N` session setting); 1 disables all three.
  size_t exchange_parallelism = 0;

  /// Cardinality gate for Exchange insertion: segments whose base table has
  /// fewer rows than this stay serial (fan-out overhead dominates on small
  /// scans). The base-table row count is the one cardinality lowering knows
  /// exactly, so the gate needs no estimator.
  size_t exchange_min_rows = 8192;

  /// Rows per morsel for inserted Exchanges
  /// (ExchangeOp::kDefaultMorselRows).
  size_t exchange_morsel_rows = 8192;

  /// Storage read path for TableScan: columnar (dense arrays, zone-map
  /// morsel pruning, and pushdown of `col <op> const` Filter conjuncts into
  /// the scan) vs. the row store. Unset means "engine default" (Database
  /// substitutes its session setting, `SET storage = columnar|row`);
  /// standalone LowerPlan calls resolve unset to columnar.
  std::optional<bool> columnar_storage;

  /// When set, every lowered operator is stamped with the cost model's
  /// cardinality estimate for its logical source node
  /// (PhysOp::set_estimated_rows), so EXPLAIN ANALYZE can print estimated
  /// vs. actual rows. Nodes the estimator cannot price (e.g. a GroupScan
  /// outside its group environment) are left unstamped. Non-owning; must
  /// outlive the LowerPlan call.
  const CostModel* cost_model = nullptr;

  /// Token-aware DOP resolution for admission control (DESIGN.md §15):
  /// clamps both parallelism knobs to `tokens` concurrency tokens, the
  /// grant this query received from the engine's AdmissionController.
  /// Callers resolve the session defaults (0 → SET parallelism) *before*
  /// clamping so the grant bounds actual workers, not the sentinel.
  void ClampParallelism(size_t tokens) {
    if (tokens == 0) tokens = 1;
    if (gapply_parallelism > tokens) gapply_parallelism = tokens;
    if (exchange_parallelism > tokens) exchange_parallelism = tokens;
  }
};

/// Translates a logical plan into an executable physical plan. The logical
/// plan retains ownership of its expressions (they are cloned), so it can be
/// lowered repeatedly.
Result<PhysOpPtr> LowerPlan(const LogicalOp& plan,
                            const LoweringOptions& options = {});

}  // namespace gapply

#endif  // GAPPLY_EXEC_LOWERING_H_
