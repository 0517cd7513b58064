#ifndef GAPPLY_PLAN_PLAN_UTILS_H_
#define GAPPLY_PLAN_PLAN_UTILS_H_

#include "src/plan/logical_plan.h"

namespace gapply {

/// True iff `inner`, used as the inner child of an Apply, actually depends
/// on that Apply's current outer row — i.e. some expression in the subtree
/// holds a correlated reference whose depth resolves to this Apply.
///
/// When false, the inner's result is identical for every outer row and a
/// single evaluation can be cached for the whole Apply execution (the
/// situation in the paper's group-selection queries, where the EXISTS probe
/// ranges over the group, not the row).
bool ApplyInnerIsCorrelated(const LogicalOp& inner);

/// True iff `e` holds a correlated reference (to any enclosing row).
bool HasCorrelatedRef(const Expr& e);

}  // namespace gapply

#endif  // GAPPLY_PLAN_PLAN_UTILS_H_
