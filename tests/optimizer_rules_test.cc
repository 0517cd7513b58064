#include <gtest/gtest.h>

#include <algorithm>

#include "src/exec/lowering.h"
#include "src/optimizer/optimizer.h"
#include "src/plan/builder.h"
#include "src/tpch/tpch_gen.h"
#include "tests/test_util.h"

namespace gapply {
namespace {

/// Fixture providing TPC-H data + helpers to run a plan before/after a
/// single rule and assert semantic equivalence.
class RuleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tpch::TpchConfig config;
    config.scale_factor = 0.001;  // 10 suppliers, 200 parts, 800 partsupp
    ASSERT_TRUE(tpch::Generate(config, &catalog_).ok());
    ASSERT_TRUE(stats_.AnalyzeAll(catalog_).ok());
  }

  QueryResult Execute(const LogicalOp& plan) {
    Result<PhysOpPtr> phys = LowerPlan(plan);
    EXPECT_TRUE(phys.ok()) << phys.status().ToString();
    ExecContext ctx;
    Result<QueryResult> r = ExecuteToVector(phys->get(), &ctx);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? std::move(r).value() : QueryResult{};
  }

  /// Optimizes a clone of `plan` with `options`; asserts the result is
  /// multiset-equal to the original; returns the optimized plan.
  LogicalOpPtr CheckEquivalent(const LogicalOp& plan,
                               Optimizer::Options options,
                               std::vector<std::string>* fired = nullptr) {
    Optimizer optimizer(&catalog_, &stats_, options);
    Result<LogicalOpPtr> optimized = optimizer.Optimize(plan.Clone());
    EXPECT_TRUE(optimized.ok()) << optimized.status().ToString();
    if (!optimized.ok()) return nullptr;
    if (fired != nullptr) *fired = optimizer.fired_rules();
    QueryResult before = Execute(plan);
    QueryResult after = Execute(**optimized);
    EXPECT_TRUE(SameRowMultiset(before.rows, after.rows))
        << "rule broke semantics.\nBefore:\n"
        << plan.DebugString() << "After:\n"
        << (*optimized)->DebugString();
    return std::move(*optimized);
  }

  /// The Q2-style outer query: partsupp ⋈ part.
  PlanBuilder PartsuppPart() {
    return PlanBuilder::Scan(catalog_, "partsupp")
        .Join(PlanBuilder::Scan(catalog_, "part"), {"ps_partkey"},
              {"p_partkey"});
  }

  LogicalOpPtr Build(PlanBuilder b) {
    auto r = std::move(b).Build();
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? std::move(r).value() : nullptr;
  }

  static bool Fired(const std::vector<std::string>& fired,
                    const std::string& rule) {
    return std::find(fired.begin(), fired.end(), rule) != fired.end();
  }

  Catalog catalog_;
  StatsManager stats_;
};

Optimizer::Options Only(bool Optimizer::Options::* flag) {
  Optimizer::Options o = Optimizer::Options::AllDisabled();
  o.*flag = true;
  return o;
}

TEST_F(RuleTest, PushSelectIntoPgq) {
  auto outer = PartsuppPart();
  const Schema gs = outer.schema();
  auto plan = Build(
      std::move(outer)
          .GApply({"ps_suppkey"}, "g",
                  PlanBuilder::GroupScan("g", gs).ScalarAgg(
                      {{AggKind::kAvg, "p_retailprice", "avg_p", false},
                       {AggKind::kCountStar, "", "cnt", false}}))
          // Predicate on a PGQ output column (avg_p), not on the gcol.
          .Select([](const Schema& s) {
            return Gt(Col(s, "avg_p"), Lit(950.0));
          }));
  ASSERT_NE(plan, nullptr);

  std::vector<std::string> fired;
  LogicalOpPtr optimized = CheckEquivalent(
      *plan, Only(&Optimizer::Options::push_select_into_pgq), &fired);
  ASSERT_NE(optimized, nullptr);
  EXPECT_TRUE(Fired(fired, "PushSelectIntoPGQ")) << optimized->DebugString();
  // The Select should now live inside the per-group query.
  EXPECT_EQ(optimized->type(), LogicalOpType::kGApply);
}

TEST_F(RuleTest, PushSelectIntoPgqDoesNotFireOnGroupingColumnPredicate) {
  auto outer = PartsuppPart();
  const Schema gs = outer.schema();
  auto plan = Build(std::move(outer)
                        .GApply({"ps_suppkey"}, "g",
                                PlanBuilder::GroupScan("g", gs).ScalarAgg(
                                    {{AggKind::kCountStar, "", "c", false}}))
                        .Select([](const Schema& s) {
                          return Gt(Col(s, "ps_suppkey"), Lit(int64_t{5}));
                        }));
  std::vector<std::string> fired;
  CheckEquivalent(*plan, Only(&Optimizer::Options::push_select_into_pgq),
                  &fired);
  EXPECT_FALSE(Fired(fired, "PushSelectIntoPGQ"));
}

TEST_F(RuleTest, PushProjectIntoPgq) {
  auto outer = PartsuppPart();
  const Schema gs = outer.schema();
  // PGQ returns the whole group; the outer projection keeps the gcol plus
  // two group columns → the projection moves inside. (Column 0 is the
  // grouping-column copy; an unqualified name would be ambiguous with the
  // PGQ's pass-through of the same column.)
  auto plan = Build(std::move(outer)
                        .GApply({"ps_suppkey"}, "g",
                                PlanBuilder::GroupScan("g", gs))
                        .ProjectExprs(
                            [](const Schema& s) {
                              std::vector<ExprPtr> e;
                              e.push_back(Col(s, 0));
                              e.push_back(Col(s, "p_name"));
                              e.push_back(Col(s, "p_retailprice"));
                              return e;
                            },
                            {"ps_suppkey", "p_name", "p_retailprice"}));
  std::vector<std::string> fired;
  LogicalOpPtr optimized = CheckEquivalent(
      *plan, Only(&Optimizer::Options::push_project_into_pgq), &fired);
  ASSERT_NE(optimized, nullptr);
  EXPECT_TRUE(Fired(fired, "PushProjectIntoPGQ"));
}

TEST_F(RuleTest, ProjectionBeforeGApplyPrunesOuterColumns) {
  auto outer = PartsuppPart();
  const Schema gs = outer.schema();  // 10 columns
  // PGQ touches only p_retailprice; gcol is ps_suppkey → 8 columns prunable.
  auto plan = Build(
      std::move(outer).GApply(
          {"ps_suppkey"}, "g",
          PlanBuilder::GroupScan("g", gs).ScalarAgg(
              {{AggKind::kAvg, "p_retailprice", "avg_p", false}})));
  std::vector<std::string> fired;
  LogicalOpPtr optimized = CheckEquivalent(
      *plan, Only(&Optimizer::Options::projection_before_gapply), &fired);
  ASSERT_NE(optimized, nullptr);
  EXPECT_TRUE(Fired(fired, "ProjectionBeforeGApply"));
  ASSERT_EQ(optimized->type(), LogicalOpType::kGApply);
  const auto* ga = static_cast<const LogicalGApply*>(optimized.get());
  EXPECT_EQ(ga->outer()->output_schema().num_columns(), 2u)
      << optimized->DebugString();
  EXPECT_EQ(ga->outer()->type(), LogicalOpType::kProject);
}

TEST_F(RuleTest, SelectionBeforeGApplyPushesCoveringRange) {
  // Figure 3: for each supplier, parts of brand A priced above the average
  // price of parts of brand B. Covering range: brand=A OR brand=B.
  auto outer = PartsuppPart();
  const Schema gs = outer.schema();

  auto avg_b = PlanBuilder::GroupScan("g", gs)
                   .Select([](const Schema& s) {
                     return Eq(Col(s, "p_brand"), Lit("Brand#22"));
                   })
                   .ScalarAgg({{AggKind::kAvg, "p_retailprice", "avg_b",
                                false}});
  auto pgq = PlanBuilder::GroupScan("g", gs)
                 .Select([](const Schema& s) {
                   return Eq(Col(s, "p_brand"), Lit("Brand#11"));
                 })
                 .Apply(std::move(avg_b))
                 .Select([](const Schema& s) {
                   return Gt(Col(s, "p_retailprice"), Col(s, "avg_b"));
                 })
                 .Project({"p_name", "p_retailprice"});
  auto plan =
      Build(std::move(outer).GApply({"ps_suppkey"}, "g", std::move(pgq)));
  ASSERT_NE(plan, nullptr);

  std::vector<std::string> fired;
  LogicalOpPtr optimized = CheckEquivalent(
      *plan, Only(&Optimizer::Options::selection_before_gapply), &fired);
  ASSERT_NE(optimized, nullptr);
  EXPECT_TRUE(Fired(fired, "SelectionBeforeGApply"))
      << optimized->DebugString();
  // The outer side must now contain the disjunctive brand filter.
  const std::string s = optimized->DebugString();
  EXPECT_NE(s.find("Brand#11"), std::string::npos);
  EXPECT_NE(s.find("or"), std::string::npos);
}

TEST_F(RuleTest, SelectionBeforeGApplyBlockedWithoutEmptyOnEmpty) {
  // PGQ = count over brand-A rows: not emptyOnEmpty (count of an empty
  // group is a row), so Theorem 1 does not license the push.
  auto outer = PartsuppPart();
  const Schema gs = outer.schema();
  auto pgq = PlanBuilder::GroupScan("g", gs)
                 .Select([](const Schema& s) {
                   return Eq(Col(s, "p_brand"), Lit("Brand#11"));
                 })
                 .ScalarAgg({{AggKind::kCountStar, "", "c", false}});
  auto plan =
      Build(std::move(outer).GApply({"ps_suppkey"}, "g", std::move(pgq)));
  std::vector<std::string> fired;
  CheckEquivalent(*plan, Only(&Optimizer::Options::selection_before_gapply),
                  &fired);
  EXPECT_FALSE(Fired(fired, "SelectionBeforeGApply"));
}

TEST_F(RuleTest, SelectionEliminatedFromPgqAfterPush) {
  // Single-branch case: PGQ = σ_brandA(g) (identity otherwise). After the
  // push the per-group selection is gone and the outer has it.
  auto outer = PartsuppPart();
  const Schema gs = outer.schema();
  auto pgq = PlanBuilder::GroupScan("g", gs).Select([](const Schema& s) {
    return Eq(Col(s, "p_brand"), Lit("Brand#11"));
  });
  auto plan =
      Build(std::move(outer).GApply({"ps_suppkey"}, "g", std::move(pgq)));
  std::vector<std::string> fired;
  LogicalOpPtr optimized = CheckEquivalent(
      *plan, Only(&Optimizer::Options::selection_before_gapply), &fired);
  ASSERT_NE(optimized, nullptr);
  EXPECT_TRUE(Fired(fired, "SelectionBeforeGApply"));
  ASSERT_EQ(optimized->type(), LogicalOpType::kGApply);
  const auto* ga = static_cast<const LogicalGApply*>(optimized.get());
  // PGQ reduced to the bare group scan; outer gained the selection.
  EXPECT_EQ(ga->pgq()->type(), LogicalOpType::kGroupScan)
      << optimized->DebugString();
  EXPECT_EQ(ga->outer()->type(), LogicalOpType::kSelect);
}

TEST_F(RuleTest, GApplyToGroupByAggregateVariant) {
  auto outer = PartsuppPart();
  const Schema gs = outer.schema();
  auto plan = Build(std::move(outer).GApply(
      {"ps_suppkey"}, "g",
      PlanBuilder::GroupScan("g", gs).ScalarAgg(
          {{AggKind::kAvg, "p_retailprice", "avg_p", false},
           {AggKind::kMax, "p_size", "max_size", false}})));
  std::vector<std::string> fired;
  LogicalOpPtr optimized = CheckEquivalent(
      *plan, Only(&Optimizer::Options::gapply_to_groupby), &fired);
  ASSERT_NE(optimized, nullptr);
  EXPECT_TRUE(Fired(fired, "GApplyToGroupBy"));
  EXPECT_EQ(optimized->type(), LogicalOpType::kGroupBy);
}

TEST_F(RuleTest, GApplyToGroupByGroupbyVariant) {
  // PGQ groups the group by p_size: GApply(C) + GroupBy(B) = GroupBy(C∪B).
  auto outer = PartsuppPart();
  const Schema gs = outer.schema();
  auto plan = Build(std::move(outer).GApply(
      {"ps_suppkey"}, "g",
      PlanBuilder::GroupScan("g", gs).GroupBy(
          {"p_size"}, {{AggKind::kAvg, "p_retailprice", "a", false}})));
  std::vector<std::string> fired;
  LogicalOpPtr optimized = CheckEquivalent(
      *plan, Only(&Optimizer::Options::gapply_to_groupby), &fired);
  ASSERT_NE(optimized, nullptr);
  EXPECT_TRUE(Fired(fired, "GApplyToGroupBy"));
  ASSERT_EQ(optimized->type(), LogicalOpType::kGroupBy);
  EXPECT_EQ(static_cast<const LogicalGroupBy*>(optimized.get())
                ->keys()
                .size(),
            2u);
}

// Builds the paper's §4.2 exists query: suppliers supplying some part with
// p_retailprice > cutoff, returning whole groups.
LogicalOpPtr ExistsSelectionPlan(PlanBuilder outer, double cutoff) {
  const Schema gs = outer.schema();
  auto probe = PlanBuilder::GroupScan("g", gs)
                   .Select([&](const Schema& s) {
                     return Gt(Col(s, "p_retailprice"), Lit(cutoff));
                   })
                   .Exists();
  auto pgq = PlanBuilder::GroupScan("g", gs).Apply(std::move(probe));
  auto r = std::move(outer).GApply({"ps_suppkey"}, "g", std::move(pgq))
               .Build();
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? std::move(r).value() : nullptr;
}

TEST_F(RuleTest, GroupSelectionExistsFiresWhenForced) {
  auto plan = ExistsSelectionPlan(PartsuppPart(), 1090.0);
  ASSERT_NE(plan, nullptr);
  Optimizer::Options o = Only(&Optimizer::Options::group_selection_exists);
  o.cost_gate = false;
  std::vector<std::string> fired;
  LogicalOpPtr optimized = CheckEquivalent(*plan, o, &fired);
  ASSERT_NE(optimized, nullptr);
  EXPECT_TRUE(Fired(fired, "GroupSelectionExists"));
  // Rewrite shape: Project(Join(Distinct(π(σ(T))), T)).
  ASSERT_EQ(optimized->type(), LogicalOpType::kProject)
      << optimized->DebugString();
  EXPECT_EQ(optimized->child(0)->type(), LogicalOpType::kJoin);
}

TEST_F(RuleTest, GroupSelectionExistsCostGateRejectsUnselectivePredicate) {
  // Nearly every supplier has a part above 900 (min retail price ≈ 901):
  // reconstructing groups via an extra join cannot win.
  auto plan = ExistsSelectionPlan(PartsuppPart(), 100.0);
  ASSERT_NE(plan, nullptr);
  Optimizer::Options o = Only(&Optimizer::Options::group_selection_exists);
  o.cost_gate = true;
  std::vector<std::string> fired;
  CheckEquivalent(*plan, o, &fired);
  EXPECT_FALSE(Fired(fired, "GroupSelectionExists"));
}

TEST_F(RuleTest, GroupSelectionAggregate) {
  // §4.2: suppliers whose avg part price exceeds a cutoff, returning whole
  // groups.
  auto outer = PartsuppPart();
  const Schema gs = outer.schema();
  auto probe = PlanBuilder::GroupScan("g", gs)
                   .ScalarAgg({{AggKind::kAvg, "p_retailprice", "avg_p",
                                false}})
                   .Select([](const Schema& s) {
                     return Gt(Col(s, "avg_p"), Lit(1000.0));
                   })
                   .Exists();
  auto pgq = PlanBuilder::GroupScan("g", gs).Apply(std::move(probe));
  auto plan =
      Build(std::move(outer).GApply({"ps_suppkey"}, "g", std::move(pgq)));
  ASSERT_NE(plan, nullptr);

  Optimizer::Options o =
      Only(&Optimizer::Options::group_selection_aggregate);
  o.cost_gate = false;
  std::vector<std::string> fired;
  LogicalOpPtr optimized = CheckEquivalent(*plan, o, &fired);
  ASSERT_NE(optimized, nullptr);
  EXPECT_TRUE(Fired(fired, "GroupSelectionAggregate"));
  const std::string s = optimized->DebugString();
  EXPECT_NE(s.find("GroupBy"), std::string::npos);
  EXPECT_EQ(s.find("GApply"), std::string::npos);
}

TEST_F(RuleTest, InvariantGroupingPushesGApplyBelowFkJoin) {
  // Figure 7: group over partsupp ⋈ supplier (FK join on ps_suppkey); the
  // PGQ needs only partsupp columns plus a pass-through of s_name.
  auto outer =
      PlanBuilder::Scan(catalog_, "partsupp")
          .Join(PlanBuilder::Scan(catalog_, "supplier"), {"ps_suppkey"},
                {"s_suppkey"});
  const Schema gs = outer.schema();
  auto pgq = PlanBuilder::GroupScan("g", gs)
                 .Select([](const Schema& s) {
                   return Gt(Col(s, "ps_availqty"), Lit(int64_t{5000}));
                 })
                 .Project({"s_name", "ps_availqty"});
  auto plan =
      Build(std::move(outer).GApply({"ps_suppkey"}, "g", std::move(pgq)));
  ASSERT_NE(plan, nullptr);

  std::vector<std::string> fired;
  LogicalOpPtr optimized = CheckEquivalent(
      *plan, Only(&Optimizer::Options::invariant_grouping), &fired);
  ASSERT_NE(optimized, nullptr);
  EXPECT_TRUE(Fired(fired, "InvariantGrouping")) << plan->DebugString();
  // Shape: Project(Join(GApply(partsupp, ...), supplier)).
  ASSERT_EQ(optimized->type(), LogicalOpType::kProject);
  const LogicalOp* join = optimized->child(0);
  ASSERT_EQ(join->type(), LogicalOpType::kJoin);
  EXPECT_EQ(join->child(0)->type(), LogicalOpType::kGApply);
}

TEST_F(RuleTest, InvariantGroupingRequiresForeignKeyJoin) {
  // Join on a non-key column pair: no FK, rule must not fire.
  auto outer = PlanBuilder::Scan(catalog_, "partsupp")
                   .Join(PlanBuilder::Scan(catalog_, "part"),
                         {"ps_availqty"}, {"p_size"});
  const Schema gs = outer.schema();
  auto pgq = PlanBuilder::GroupScan("g", gs)
                 .Select([](const Schema& s) {
                   return Gt(Col(s, "ps_supplycost"), Lit(10.0));
                 })
                 .Project({"ps_partkey"});
  auto plan =
      Build(std::move(outer).GApply({"ps_availqty"}, "g", std::move(pgq)));
  std::vector<std::string> fired;
  CheckEquivalent(*plan, Only(&Optimizer::Options::invariant_grouping),
                  &fired);
  EXPECT_FALSE(Fired(fired, "InvariantGrouping"));
}

TEST_F(RuleTest, InvariantGroupingRequiresEvalColumnsOnLeft) {
  // The PGQ filters on s_acctbal (right side): gp-eval not at n → no push.
  auto outer =
      PlanBuilder::Scan(catalog_, "partsupp")
          .Join(PlanBuilder::Scan(catalog_, "supplier"), {"ps_suppkey"},
                {"s_suppkey"});
  const Schema gs = outer.schema();
  auto pgq = PlanBuilder::GroupScan("g", gs)
                 .Select([](const Schema& s) {
                   return Gt(Col(s, "s_acctbal"), Lit(0.0));
                 })
                 .Project({"ps_availqty"});
  auto plan =
      Build(std::move(outer).GApply({"ps_suppkey"}, "g", std::move(pgq)));
  std::vector<std::string> fired;
  CheckEquivalent(*plan, Only(&Optimizer::Options::invariant_grouping),
                  &fired);
  EXPECT_FALSE(Fired(fired, "InvariantGrouping"));
}

TEST_F(RuleTest, FullOptimizerPreservesSemanticsOnPaperQ2) {
  // Q2: per supplier, count parts priced above/below the group average.
  auto outer = PartsuppPart();
  const Schema gs = outer.schema();
  auto make_branch = [&](bool above) {
    auto avg = PlanBuilder::GroupScan("g", gs).ScalarAgg(
        {{AggKind::kAvg, "p_retailprice", "avg_p", false}});
    return PlanBuilder::GroupScan("g", gs)
        .Apply(std::move(avg))
        .Select([&](const Schema& s) {
          return above ? Ge(Col(s, "p_retailprice"), Col(s, "avg_p"))
                       : Lt(Col(s, "p_retailprice"), Col(s, "avg_p"));
        })
        .ScalarAgg({{AggKind::kCountStar, "", "c", false}})
        .ProjectExprs(
            [&](const Schema& s) {
              std::vector<ExprPtr> e;
              if (above) {
                e.push_back(Col(s, "c"));
                e.push_back(Lit(Value::Null()));
              } else {
                e.push_back(Lit(Value::Null()));
                e.push_back(Col(s, "c"));
              }
              return e;
            },
            {"count_above", "count_below"});
  };
  std::vector<PlanBuilder> branches;
  branches.push_back(make_branch(true));
  branches.push_back(make_branch(false));
  auto plan = Build(std::move(outer).GApply(
      {"ps_suppkey"}, "g", PlanBuilder::UnionAll(std::move(branches))));
  ASSERT_NE(plan, nullptr);

  Optimizer::Options all;  // everything on, cost-gated
  std::vector<std::string> fired;
  LogicalOpPtr optimized = CheckEquivalent(*plan, all, &fired);
  ASSERT_NE(optimized, nullptr);
  // The projection rule should fire (Q2 touches few of the 10 columns).
  EXPECT_TRUE(Fired(fired, "ProjectionBeforeGApply")) << plan->DebugString();
}

TEST_F(RuleTest, OptimizerTerminatesOnAllTestPlans) {
  // Degenerate: optimize an already-optimized plan again; no rule may fire.
  auto outer = PartsuppPart();
  const Schema gs = outer.schema();
  auto plan = Build(std::move(outer).GApply(
      {"ps_suppkey"}, "g",
      PlanBuilder::GroupScan("g", gs).ScalarAgg(
          {{AggKind::kAvg, "p_retailprice", "a", false}})));
  Optimizer::Options all;
  Optimizer first(&catalog_, &stats_, all);
  ASSIGN_OR_FAIL(LogicalOpPtr optimized, first.Optimize(plan->Clone()));
  Optimizer second(&catalog_, &stats_, all);
  ASSIGN_OR_FAIL(LogicalOpPtr again, second.Optimize(optimized->Clone()));
  EXPECT_TRUE(second.fired_rules().empty())
      << "rules refired on a fixed point: " << again->DebugString();
}

TEST_F(RuleTest, ClassicPushdownMovesSelectionBelowJoin) {
  auto plan = Build(PartsuppPart().Select([](const Schema& s) {
    return Gt(Col(s, "p_retailprice"), Lit(1000.0));
  }));
  std::vector<std::string> fired;
  LogicalOpPtr optimized = CheckEquivalent(
      *plan, Only(&Optimizer::Options::classic_pushdown), &fired);
  ASSERT_NE(optimized, nullptr);
  EXPECT_TRUE(Fired(fired, "PushSelectBelowJoin"));
  ASSERT_EQ(optimized->type(), LogicalOpType::kJoin);
  EXPECT_EQ(optimized->child(1)->type(), LogicalOpType::kSelect);
}

// ---------------------------------------------------------------------------
// Rule composition. Rules never fire in isolation in a real optimization:
// each rewrite hands the next rule a plan it did not anticipate, and the
// precondition analyses (empty-on-empty, gp-strong, FK metadata) must be
// recomputed against that rewritten plan, not remembered from the original.
// These tests stack rules pairwise and assert both semantics and the
// fire/no-fire decisions the re-checked preconditions imply.
// ---------------------------------------------------------------------------

class RuleCompositionTest : public RuleTest {
 protected:
  /// A Figure-3-flavored plan that gives most rules something to chew on:
  /// selective PGQ branches (SelectionBeforeGApply / PushSelectIntoPGQ),
  /// narrow column use over a 10-column outer (ProjectionBeforeGApply),
  /// a join under the GApply (classic pushdown, InvariantGrouping
  /// candidates), and a post-GApply selection.
  LogicalOpPtr RichPlan() {
    auto outer = PartsuppPart();
    const Schema gs = outer.schema();
    auto avg_b = PlanBuilder::GroupScan("g", gs)
                     .Select([](const Schema& s) {
                       return Eq(Col(s, "p_brand"), Lit("Brand#22"));
                     })
                     .ScalarAgg(
                         {{AggKind::kAvg, "p_retailprice", "avg_b", false}});
    auto pgq = PlanBuilder::GroupScan("g", gs)
                   .Select([](const Schema& s) {
                     return Eq(Col(s, "p_brand"), Lit("Brand#11"));
                   })
                   .Apply(std::move(avg_b))
                   .Select([](const Schema& s) {
                     return Gt(Col(s, "p_retailprice"), Col(s, "avg_b"));
                   })
                   .Project({"p_name", "p_retailprice"});
    return Build(std::move(outer)
                     .GApply({"ps_suppkey"}, "g", std::move(pgq))
                     .Select([](const Schema& s) {
                       return Gt(Col(s, "p_retailprice"), Lit(905.0));
                     }));
  }

  static Optimizer::Options OnlyToggle(
      const Optimizer::Options::Toggle& toggle) {
    Optimizer::Options o = Optimizer::Options::AllDisabled();
    o.*(toggle.flag) = true;
    o.cost_gate = false;  // composition coverage, not cost policy
    return o;
  }
};

TEST_F(RuleCompositionTest, EveryOrderedRulePairPreservesSemantics) {
  // Apply rule A to a fixpoint, then rule B to A's output — every ordered
  // pair. B runs on plans A rewrote, so B's preconditions are exercised
  // against shapes the original plan never had.
  auto plan = RichPlan();
  ASSERT_NE(plan, nullptr);
  const QueryResult expected = Execute(*plan);
  ASSERT_FALSE(expected.rows.empty());

  const auto& toggles = Optimizer::Options::RuleToggles();
  ASSERT_GE(toggles.size(), 9u);
  for (const auto& a : toggles) {
    Optimizer first(&catalog_, &stats_, OnlyToggle(a));
    ASSIGN_OR_FAIL(LogicalOpPtr after_a, first.Optimize(plan->Clone()));
    for (const auto& b : toggles) {
      Optimizer second(&catalog_, &stats_, OnlyToggle(b));
      ASSIGN_OR_FAIL(LogicalOpPtr after_ab,
                     second.Optimize(after_a->Clone()));
      const QueryResult got = Execute(*after_ab);
      EXPECT_TRUE(SameRowMultiset(got.rows, expected.rows))
          << a.name << " then " << b.name << " broke semantics.\nAfter "
          << a.name << ":\n" << after_a->DebugString() << "After " << b.name
          << ":\n" << after_ab->DebugString();
    }
  }
}

TEST_F(RuleCompositionTest, EveryRulePairTogetherPreservesSemantics) {
  // Both rules enabled in one optimizer: the rule loop interleaves them to
  // a joint fixpoint, re-running the analyses between firings.
  auto plan = RichPlan();
  ASSERT_NE(plan, nullptr);
  const QueryResult expected = Execute(*plan);

  const auto& toggles = Optimizer::Options::RuleToggles();
  for (size_t i = 0; i < toggles.size(); ++i) {
    for (size_t j = i + 1; j < toggles.size(); ++j) {
      Optimizer::Options o = OnlyToggle(toggles[i]);
      o.*(toggles[j].flag) = true;
      Optimizer optimizer(&catalog_, &stats_, o);
      ASSIGN_OR_FAIL(LogicalOpPtr optimized,
                     optimizer.Optimize(plan->Clone()));
      const QueryResult got = Execute(*optimized);
      EXPECT_TRUE(SameRowMultiset(got.rows, expected.rows))
          << toggles[i].name << " + " << toggles[j].name
          << " broke semantics.\nResult:\n" << optimized->DebugString();
    }
  }
}

TEST_F(RuleCompositionTest, SelectionThenGApplyToGroupByStacks) {
  // The PGQ is σ_brand(GroupBy): empty-on-empty, so SelectionBeforeGApply
  // may hoist the brand filter; the residual GApply(GroupBy) then collapses
  // via GApplyToGroupBy. The second rewrite is only licensed because
  // gp-strong/eval analyses are recomputed on the hoisted plan.
  auto outer = PartsuppPart();
  const Schema gs = outer.schema();
  auto pgq = PlanBuilder::GroupScan("g", gs)
                 .Select([](const Schema& s) {
                   return Eq(Col(s, "p_brand"), Lit("Brand#11"));
                 })
                 .GroupBy({"p_size"},
                          {{AggKind::kAvg, "p_retailprice", "a", false}});
  auto plan =
      Build(std::move(outer).GApply({"ps_suppkey"}, "g", std::move(pgq)));
  ASSERT_NE(plan, nullptr);

  Optimizer::Options o = Optimizer::Options::AllDisabled();
  o.selection_before_gapply = true;
  o.gapply_to_groupby = true;
  o.cost_gate = false;
  std::vector<std::string> fired;
  LogicalOpPtr optimized = CheckEquivalent(*plan, o, &fired);
  ASSERT_NE(optimized, nullptr);
  EXPECT_TRUE(Fired(fired, "SelectionBeforeGApply"))
      << optimized->DebugString();
  EXPECT_TRUE(Fired(fired, "GApplyToGroupBy")) << optimized->DebugString();
  EXPECT_EQ(optimized->DebugString().find("GApply"), std::string::npos)
      << optimized->DebugString();
}

TEST_F(RuleCompositionTest, PushSelectThenSelectionBlockedByEmptyOnEmpty) {
  // PushSelectIntoPGQ moves σ_{c>0} inside, so the PGQ becomes
  // Select(ScalarAgg(...)): a leading selection SelectionBeforeGApply would
  // love to hoist — but the re-checked Theorem-1 precondition sees the
  // count underneath (a row on empty groups) and must keep blocking it.
  auto outer = PartsuppPart();
  const Schema gs = outer.schema();
  auto pgq = PlanBuilder::GroupScan("g", gs)
                 .Select([](const Schema& s) {
                   return Eq(Col(s, "p_brand"), Lit("Brand#11"));
                 })
                 .ScalarAgg({{AggKind::kCountStar, "", "c", false}});
  auto plan = Build(std::move(outer)
                        .GApply({"ps_suppkey"}, "g", std::move(pgq))
                        .Select([](const Schema& s) {
                          return Gt(Col(s, "c"), Lit(int64_t{0}));
                        }));
  ASSERT_NE(plan, nullptr);

  Optimizer::Options o = Optimizer::Options::AllDisabled();
  o.push_select_into_pgq = true;
  o.selection_before_gapply = true;
  o.cost_gate = false;
  std::vector<std::string> fired;
  LogicalOpPtr optimized = CheckEquivalent(*plan, o, &fired);
  ASSERT_NE(optimized, nullptr);
  EXPECT_TRUE(Fired(fired, "PushSelectIntoPGQ")) << optimized->DebugString();
  EXPECT_FALSE(Fired(fired, "SelectionBeforeGApply"))
      << optimized->DebugString();
}

}  // namespace
}  // namespace gapply
