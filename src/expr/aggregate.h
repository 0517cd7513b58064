#ifndef GAPPLY_EXPR_AGGREGATE_H_
#define GAPPLY_EXPR_AGGREGATE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/common/value.h"
#include "src/expr/expr.h"

namespace gapply {

/// SQL aggregate functions supported by groupby / scalar aggregation.
enum class AggKind { kCountStar, kCount, kSum, kAvg, kMin, kMax };

const char* AggKindName(AggKind kind);

/// \brief One aggregate computed by a GroupBy or ScalarAggregate operator.
struct AggregateDesc {
  AggKind kind = AggKind::kCountStar;
  ExprPtr arg;  // nullptr for count(*)
  bool distinct = false;
  std::string output_name;

  AggregateDesc() = default;
  AggregateDesc(AggKind kind_in, ExprPtr arg_in, std::string output_name_in,
                bool distinct_in = false)
      : kind(kind_in),
        arg(std::move(arg_in)),
        distinct(distinct_in),
        output_name(std::move(output_name_in)) {}

  AggregateDesc Clone() const;

  /// Output column type. COUNT → int64; AVG → double; SUM/MIN/MAX → the
  /// argument's type (SUM of int64 stays int64).
  TypeId OutputType() const;

  /// "sum(distinct x)" style rendering for plan printing.
  std::string ToString() const;
};

/// Element-wise AggregateDesc::Clone over a descriptor list (operator and
/// lowering code copy aggregate lists when duplicating plans).
std::vector<AggregateDesc> CloneAggregates(
    const std::vector<AggregateDesc>& aggs);

/// \brief Streaming accumulator for one aggregate over one group.
///
/// SQL semantics: NULL inputs are ignored (except count(*)); on empty input
/// COUNT yields 0 and the others yield NULL — the reason scalar aggregation
/// never has emptyOnEmpty in the paper's analysis (§4.1).
class AggAccumulator {
 public:
  virtual ~AggAccumulator() = default;
  virtual Status Add(const Value& v) = 0;
  virtual Value Finish() const = 0;

  /// Folds `other` (an accumulator of the same dynamic type, fed a disjoint
  /// row partition) into this one. Only the kinds for which the merge is
  /// *exact* — bit-for-bit equal to feeding all rows into one accumulator in
  /// any order — implement it: count(*), count, min, max, and sum over
  /// integer inputs. The default errors; callers gate parallel partial
  /// aggregation on `AggregateMergeIsExact` so it is never reached.
  virtual Status Merge(const AggAccumulator& other);
};

/// True iff every descriptor can be computed by merging per-partition
/// partial accumulators with results bit-for-bit identical to a single
/// serial pass: no DISTINCT (partitions may share values), no AVG and no
/// SUM over doubles (floating-point addition is not associative, so
/// re-associating partial sums changes low bits).
bool AggregateMergeIsExact(const std::vector<AggregateDesc>& aggs);

/// Creates an accumulator; `distinct` wraps it so duplicate inputs (grouping
/// equality) are counted once.
std::unique_ptr<AggAccumulator> CreateAccumulator(AggKind kind, bool distinct);

/// Convenience helpers for building descriptors.
AggregateDesc CountStar(std::string name = "count");
AggregateDesc Count(ExprPtr arg, std::string name = "count",
                    bool distinct = false);
AggregateDesc Sum(ExprPtr arg, std::string name = "sum");
AggregateDesc Avg(ExprPtr arg, std::string name = "avg");
AggregateDesc Min(ExprPtr arg, std::string name = "min");
AggregateDesc Max(ExprPtr arg, std::string name = "max");

/// One fresh accumulator per descriptor.
std::vector<std::unique_ptr<AggAccumulator>> MakeAccumulators(
    const std::vector<AggregateDesc>& aggs);

/// Feeds one input row to `accs` (parallel to `aggs`): count(*) counts the
/// row, every other aggregate its evaluated argument.
Status AccumulateRow(const std::vector<AggregateDesc>& aggs,
                     const std::vector<std::unique_ptr<AggAccumulator>>& accs,
                     const Row& row, const EvalContext& ctx);

/// Evaluates `aggs` over `rows` (one group) in one pass; returns one output
/// value per descriptor. Used by the executor and as the reference
/// implementation in property tests.
Result<Row> ComputeAggregates(const std::vector<AggregateDesc>& aggs,
                              const std::vector<Row>& rows,
                              const EvalContext& ctx);

}  // namespace gapply

#endif  // GAPPLY_EXPR_AGGREGATE_H_
