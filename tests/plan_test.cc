#include <gtest/gtest.h>

#include <map>

#include "src/exec/lowering.h"
#include "src/plan/builder.h"
#include "src/plan/logical_plan.h"
#include "src/tpch/tpch_gen.h"
#include "tests/test_util.h"

namespace gapply {
namespace {

class PlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tpch::TpchConfig config;
    config.scale_factor = 0.001;  // 10 suppliers, 200 parts, 800 partsupp
    ASSERT_TRUE(tpch::Generate(config, &catalog_).ok());
  }

  QueryResult Execute(const LogicalOp& plan,
                      const LoweringOptions& opts = {}) {
    Result<PhysOpPtr> phys = LowerPlan(plan, opts);
    EXPECT_TRUE(phys.ok()) << phys.status().ToString();
    ExecContext ctx;
    Result<QueryResult> r = ExecuteToVector(phys->get(), &ctx);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? std::move(r).value() : QueryResult{};
  }

  Catalog catalog_;
};

TEST_F(PlanTest, ScanSelectProjectRoundTrip) {
  auto plan = PlanBuilder::Scan(catalog_, "part")
                  .Select([](const Schema& s) {
                    return Gt(Col(s, "p_retailprice"), Lit(1000.0));
                  })
                  .Project({"p_partkey", "p_name"})
                  .Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ((*plan)->output_schema().num_columns(), 2u);

  QueryResult r = Execute(**plan);
  size_t expected = 0;
  for (const Row& row : catalog_.FindTable("part")->rows()) {
    if (row[5].double_val() > 1000.0) ++expected;
  }
  EXPECT_GT(expected, 0u);
  EXPECT_EQ(r.rows.size(), expected);
}

TEST_F(PlanTest, BuilderLatchesFirstError) {
  auto plan = PlanBuilder::Scan(catalog_, "part")
                  .Project({"no_such_column"})
                  .Distinct()
                  .Build();
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kNotFound);

  auto plan2 = PlanBuilder::Scan(catalog_, "no_such_table").Build();
  EXPECT_FALSE(plan2.ok());
}

TEST_F(PlanTest, JoinMatchesManualCount) {
  auto plan = PlanBuilder::Scan(catalog_, "partsupp")
                  .Join(PlanBuilder::Scan(catalog_, "part"), {"ps_partkey"},
                        {"p_partkey"})
                  .Build();
  ASSERT_TRUE(plan.ok());
  QueryResult r = Execute(**plan);
  // Every partsupp row matches exactly one part.
  EXPECT_EQ(r.rows.size(), catalog_.FindTable("partsupp")->num_rows());
}

TEST_F(PlanTest, GroupByAggregates) {
  auto plan =
      PlanBuilder::Scan(catalog_, "partsupp")
          .GroupBy({"ps_suppkey"},
                   {{AggKind::kCountStar, "", "cnt", false},
                    {AggKind::kSum, "ps_availqty", "total_qty", false}})
          .Build();
  ASSERT_TRUE(plan.ok());
  QueryResult r = Execute(**plan);
  EXPECT_EQ(r.rows.size(), 10u);  // 10 suppliers, each supplies something
  int64_t total = 0;
  for (const Row& row : r.rows) total += row[1].int_val();
  EXPECT_EQ(total, 800);  // count(*) across groups covers every partsupp row
}

// The paper's query Q1 (§2) as a logical plan:
//   For each supplier: all (p_name, p_retailprice) pairs, plus the average
//   retail price, via a union-all per-group query under GApply.
TEST_F(PlanTest, PaperQ1ViaGApply) {
  auto outer = PlanBuilder::Scan(catalog_, "partsupp")
                   .Join(PlanBuilder::Scan(catalog_, "part"), {"ps_partkey"},
                         {"p_partkey"});
  const Schema group_schema = outer.schema();

  auto branch1 = PlanBuilder::GroupScan("g", group_schema)
                     .ProjectExprs(
                         [](const Schema& s) {
                           std::vector<ExprPtr> e;
                           e.push_back(Col(s, "p_name"));
                           e.push_back(Col(s, "p_retailprice"));
                           e.push_back(Lit(Value::Null()));
                           return e;
                         },
                         {"p_name", "p_retailprice", "avg_price"});
  auto branch2 =
      PlanBuilder::GroupScan("g", group_schema)
          .ScalarAgg({{AggKind::kAvg, "p_retailprice", "a", false}})
          .ProjectExprs(
              [](const Schema& s) {
                std::vector<ExprPtr> e;
                e.push_back(Lit(Value::Null()));
                e.push_back(Lit(Value::Null()));
                e.push_back(Col(s, "a"));
                return e;
              },
              {"p_name", "p_retailprice", "avg_price"});

  std::vector<PlanBuilder> branches;
  branches.push_back(std::move(branch1));
  branches.push_back(std::move(branch2));
  auto pgq = PlanBuilder::UnionAll(std::move(branches));

  auto plan = std::move(outer)
                  .GApply({"ps_suppkey"}, "g", std::move(pgq))
                  .Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  QueryResult r = Execute(**plan);
  // 800 partsupp rows + one avg row per supplier (10 suppliers).
  EXPECT_EQ(r.rows.size(), 810u);

  // Validate one supplier's average against direct computation.
  std::map<int64_t, std::pair<double, int>> sums;
  {
    const Table* partsupp = catalog_.FindTable("partsupp");
    for (const Row& ps : partsupp->rows()) {
      const int64_t sk = ps[1].int_val();
      const double price = tpch::RetailPrice(ps[0].int_val());
      sums[sk].first += price;
      sums[sk].second += 1;
    }
  }
  for (const Row& row : r.rows) {
    if (!row[3].is_null()) {  // the avg row for this supplier
      const int64_t sk = row[0].int_val();
      const double expect = sums[sk].first / sums[sk].second;
      EXPECT_NEAR(row[3].double_val(), expect, 1e-9) << "supplier " << sk;
    }
  }
}

TEST_F(PlanTest, CloneProducesEquivalentPlan) {
  auto outer = PlanBuilder::Scan(catalog_, "partsupp")
                   .Join(PlanBuilder::Scan(catalog_, "part"), {"ps_partkey"},
                         {"p_partkey"});
  const Schema gs = outer.schema();
  auto pgq = PlanBuilder::GroupScan("g", gs).ScalarAgg(
      {{AggKind::kAvg, "p_retailprice", "a", false}});
  auto plan =
      std::move(outer).GApply({"ps_suppkey"}, "g", std::move(pgq)).Build();
  ASSERT_TRUE(plan.ok());

  LogicalOpPtr clone = (*plan)->Clone();
  EXPECT_EQ(clone->DebugString(), (*plan)->DebugString());
  QueryResult r1 = Execute(**plan);
  QueryResult r2 = Execute(*clone);
  EXPECT_TRUE(SameRowMultiset(r1.rows, r2.rows));
}

TEST_F(PlanTest, DebugStringShowsPgqSection) {
  auto outer = PlanBuilder::Scan(catalog_, "partsupp");
  const Schema gs = outer.schema();
  auto pgq = PlanBuilder::GroupScan("g", gs).ScalarAgg(
      {{AggKind::kCountStar, "", "cnt", false}});
  auto plan =
      std::move(outer).GApply({"ps_suppkey"}, "g", std::move(pgq)).Build();
  ASSERT_TRUE(plan.ok());
  const std::string s = (*plan)->DebugString();
  EXPECT_NE(s.find("GApply"), std::string::npos);
  EXPECT_NE(s.find("[per-group query]"), std::string::npos);
  EXPECT_NE(s.find("GroupScan($g)"), std::string::npos);
}

TEST_F(PlanTest, LoweringHonorsForcedPartitionMode) {
  auto outer = PlanBuilder::Scan(catalog_, "partsupp");
  const Schema gs = outer.schema();
  auto pgq = PlanBuilder::GroupScan("g", gs).ScalarAgg(
      {{AggKind::kCountStar, "", "cnt", false}});
  auto plan = std::move(outer)
                  .GApply({"ps_suppkey"}, "g", std::move(pgq),
                          PartitionMode::kHash)
                  .Build();
  ASSERT_TRUE(plan.ok());
  LoweringOptions opts;
  opts.force_partition_mode = PartitionMode::kSort;
  Result<PhysOpPtr> phys = LowerPlan(**plan, opts);
  ASSERT_TRUE(phys.ok());
  EXPECT_NE((*phys)->DebugName().find("partition=sort"), std::string::npos);
}

}  // namespace
}  // namespace gapply
