#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "src/tpch/tpch_gen.h"

namespace gapply {
namespace {

TEST(TpchGenTest, BuildsAllTablesWithExpectedCounts) {
  Catalog catalog;
  tpch::TpchConfig config;
  config.scale_factor = 0.002;  // 20 suppliers, 400 parts, 1600 partsupp
  ASSERT_TRUE(tpch::Generate(config, &catalog).ok());

  EXPECT_EQ(catalog.FindTable("region")->num_rows(), 5u);
  EXPECT_EQ(catalog.FindTable("nation")->num_rows(), 25u);
  EXPECT_EQ(catalog.FindTable("supplier")->num_rows(), 20u);
  EXPECT_EQ(catalog.FindTable("part")->num_rows(), 400u);
  EXPECT_EQ(catalog.FindTable("partsupp")->num_rows(), 1600u);
}

TEST(TpchGenTest, DeterministicInSeed) {
  tpch::TpchConfig config;
  config.scale_factor = 0.001;
  Catalog a, b;
  ASSERT_TRUE(tpch::Generate(config, &a).ok());
  ASSERT_TRUE(tpch::Generate(config, &b).ok());
  const auto& rows_a = a.FindTable("part")->rows();
  const auto& rows_b = b.FindTable("part")->rows();
  ASSERT_EQ(rows_a.size(), rows_b.size());
  for (size_t i = 0; i < rows_a.size(); ++i) {
    EXPECT_TRUE(RowsEqual(rows_a[i], rows_b[i]));
  }
}

TEST(TpchGenTest, PartsuppReferentialIntegrityAndUniqueness) {
  Catalog catalog;
  tpch::TpchConfig config;
  config.scale_factor = 0.001;
  ASSERT_TRUE(tpch::Generate(config, &catalog).ok());

  const int64_t num_suppliers = config.NumSuppliers();
  const int64_t num_parts = config.NumParts();
  std::set<std::pair<int64_t, int64_t>> seen;
  for (const Row& row : catalog.FindTable("partsupp")->rows()) {
    const int64_t pk = row[0].int_val();
    const int64_t sk = row[1].int_val();
    EXPECT_GE(pk, 1);
    EXPECT_LE(pk, num_parts);
    EXPECT_GE(sk, 1);
    EXPECT_LE(sk, num_suppliers);
    EXPECT_TRUE(seen.insert({pk, sk}).second)
        << "duplicate (partkey, suppkey): " << pk << "," << sk;
  }
}

TEST(TpchGenTest, RetailPriceFollowsFormula) {
  Catalog catalog;
  tpch::TpchConfig config;
  config.scale_factor = 0.001;
  ASSERT_TRUE(tpch::Generate(config, &catalog).ok());
  for (const Row& row : catalog.FindTable("part")->rows()) {
    EXPECT_DOUBLE_EQ(row[5].double_val(),
                     tpch::RetailPrice(row[0].int_val()));
  }
}

TEST(TpchGenTest, ForeignKeysRegistered) {
  Catalog catalog;
  ASSERT_TRUE(tpch::Generate(tpch::TpchConfig{0.001, 7}, &catalog).ok());
  EXPECT_TRUE(catalog.IsForeignKeyJoin("partsupp", {"ps_partkey"}, "part",
                                       {"p_partkey"}));
  EXPECT_TRUE(catalog.IsForeignKeyJoin("partsupp", {"ps_suppkey"}, "supplier",
                                       {"s_suppkey"}));
  EXPECT_TRUE(catalog.IsForeignKeyJoin("supplier", {"s_nationkey"}, "nation",
                                       {"n_nationkey"}));
  EXPECT_FALSE(catalog.IsForeignKeyJoin("part", {"p_partkey"}, "partsupp",
                                        {"ps_partkey"}));
}

TEST(TpchGenTest, BrandDomainAndSizes) {
  Catalog catalog;
  ASSERT_TRUE(tpch::Generate(tpch::TpchConfig{0.001, 7}, &catalog).ok());
  for (const Row& row : catalog.FindTable("part")->rows()) {
    const std::string brand(row[3].str_val());
    ASSERT_EQ(brand.substr(0, 6), "Brand#");
    const int v = std::stoi(brand.substr(6));
    EXPECT_GE(v, 11);
    EXPECT_LE(v, 55);
    const int64_t size = row[4].int_val();
    EXPECT_GE(size, 1);
    EXPECT_LE(size, 50);
  }
}

}  // namespace
}  // namespace gapply
