// The shared flat hash table (src/common/hash_table.h) and the operators
// built on it. Unit tests pass their own hashes so they can force
// collisions; the operator tests compare HashJoin, HashGroupBy and
// Distinct output *sequences* against plain std:: loops at every DOP,
// batch size and memory budget.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/hash_table.h"
#include "src/common/memory_tracker.h"
#include "src/common/rng.h"
#include "src/common/spill_file.h"
#include "src/exec/agg_ops.h"
#include "src/exec/join_ops.h"
#include "src/exec/scan_ops.h"
#include "src/expr/aggregate.h"
#include "src/expr/expr.h"
#include "tests/differential_util.h"
#include "tests/test_util.h"

namespace gapply {
namespace {

// Inserts `keys` in order as join build rows; returns each key's chain,
// walked from its first row.
std::map<int, std::vector<uint32_t>> BuildChains(
    const std::vector<int>& keys, const std::function<size_t(int)>& hash,
    HashTable* table) {
  for (size_t i = 0; i < keys.size(); ++i) {
    const uint32_t row = table->InsertRow(
        hash(keys[i]), [&](uint32_t first) { return keys[first] == keys[i]; });
    EXPECT_EQ(row, i);
  }
  std::map<int, std::vector<uint32_t>> chains;
  for (int key : keys) {
    if (chains.count(key) > 0) continue;
    const uint32_t entry = table->Find(
        hash(key), [&](uint32_t e) { return keys[table->FirstRow(e)] == key; });
    EXPECT_NE(entry, HashTable::kNone) << key;
    if (entry == HashTable::kNone) continue;
    std::vector<uint32_t>& chain = chains[key];
    for (uint32_t r = table->FirstRow(entry); r != HashTable::kNone;
         r = table->NextRow(r)) {
      chain.push_back(r);
    }
  }
  return chains;
}

// The chains a std:: loop expects: each key's row ids, newest first.
std::map<int, std::vector<uint32_t>> ReferenceChains(
    const std::vector<int>& keys) {
  std::map<int, std::vector<uint32_t>> chains;
  for (size_t i = keys.size(); i-- > 0;) {
    chains[keys[i]].push_back(static_cast<uint32_t>(i));
  }
  return chains;
}

TEST(HashTableTest, EmptyTableFindsNothing) {
  HashTable table;
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.Find(7, [](uint32_t) { return true; }), HashTable::kNone);
}

TEST(HashTableTest, EntriesAreDenseInFirstInsertionOrder) {
  HashTable table;
  const std::vector<int> keys = {5, 3, 5, 9, 3, 1};
  std::vector<int> stored;
  std::vector<uint32_t> ids;
  for (int k : keys) {
    const auto [e, inserted] = table.FindOrInsert(
        std::hash<int>{}(k), [&](uint32_t c) { return stored[c] == k; });
    if (inserted) stored.push_back(k);
    ids.push_back(e);
  }
  EXPECT_EQ(ids, (std::vector<uint32_t>{0, 1, 0, 2, 1, 3}));
  EXPECT_EQ(stored, (std::vector<int>{5, 3, 9, 1}));
  EXPECT_EQ(table.size(), 4u);
  EXPECT_EQ(table.hash(2), std::hash<int>{}(9));
}

TEST(HashTableTest, GrowthAcrossResizeKeepsLiveChains) {
  // 20,000 rows over 3,000 keys: the slot array doubles many times while
  // chains are live, and every chain must survive intact.
  Rng rng(11);
  std::vector<int> keys;
  for (int i = 0; i < 20000; ++i) {
    keys.push_back(static_cast<int>(rng.UniformInt(0, 2999)));
  }
  HashTable table;
  const auto chains = BuildChains(
      keys, [](int k) { return HashRowColumns({Value::Int(k)}, {0}); },
      &table);
  EXPECT_EQ(chains, ReferenceChains(keys));
  EXPECT_EQ(table.size(), chains.size());
}

TEST(HashTableTest, AllEqualKeysKeepChainOrder) {
  const std::vector<int> keys(5000, 42);
  HashTable table;
  const auto chains =
      BuildChains(keys, [](int k) { return std::hash<int>{}(k); }, &table);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(chains, ReferenceChains(keys));
}

TEST(HashTableTest, ForcedCollisionsAreResolvedByEquality) {
  // Every key hashes to one value, then to values that agree only in their
  // low 32 bits (the slot tag): equality alone must tell keys apart,
  // across growth.
  const std::vector<std::function<size_t(int)>> hashes = {
      [](int) { return size_t{0x1234}; },
      [](int k) { return (static_cast<size_t>(k) << 32) | 0x1234u; },
  };
  for (const auto& hash : hashes) {
    std::vector<int> keys;
    for (int i = 0; i < 600; ++i) keys.push_back(i % 150);
    HashTable table;
    const auto chains = BuildChains(keys, hash, &table);
    EXPECT_EQ(table.size(), 150u);
    EXPECT_EQ(chains, ReferenceChains(keys));
    EXPECT_EQ(table.Find(hash(1000),
                         [&](uint32_t e) {
                           return keys[table.FirstRow(e)] == 1000;
                         }),
              HashTable::kNone);
  }
}

TEST(HashTableTest, IntAndDoubleKeysOfEqualValueShareAnEntry) {
  // 2 equals 2.0 under grouping semantics, and their row hashes agree.
  const std::vector<Row> keys = {{Value::Int(2)}, {Value::Double(2.0)},
                                 {Value::Double(2.5)}, {Value::Null()},
                                 {Value::Null()}};
  HashTable table;
  std::vector<uint32_t> ids;
  std::vector<const Row*> stored;
  for (const Row& k : keys) {
    const auto [e, inserted] = table.FindOrInsert(
        HashRowColumns(k, {0}),
        [&](uint32_t c) { return RowsEqual(*stored[c], k); });
    if (inserted) stored.push_back(&k);
    ids.push_back(e);
  }
  EXPECT_EQ(ids, (std::vector<uint32_t>{0, 0, 1, 2, 2}));
}

// --- operators on the table, against std:: loop references ---------------

// Rows (k, v) with NULLs in both columns: k in [1, num_keys].
std::vector<Row> KeyedRows(uint64_t seed, int n, int num_keys) {
  Rng rng(seed);
  std::vector<Row> rows;
  for (int i = 0; i < n; ++i) {
    Row row;
    row.push_back(rng.Bernoulli(0.05)
                      ? Value::Null()
                      : Value::Int(rng.UniformInt(1, num_keys)));
    row.push_back(rng.Bernoulli(0.1) ? Value::Null()
                                     : Value::Int(rng.UniformInt(0, 50)));
    rows.push_back(std::move(row));
  }
  return rows;
}

Schema KeyedSchema(const std::string& table) {
  return Schema({{"k", TypeId::kInt64, table}, {"v", TypeId::kInt64, table}});
}

Row Concat(const Row& a, const Row& b) {
  Row out = a;
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

bool KeyEq(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  return a.int_val() == b.int_val();
}

struct Config {
  size_t dop;
  size_t batch;
  size_t budget;  // 0 = unlimited
  std::string Label() const {
    return "dop=" + std::to_string(dop) + " batch=" + std::to_string(batch) +
           " budget=" + std::to_string(budget);
  }
};

std::vector<Config> Configs() {
  std::vector<Config> out;
  for (size_t dop : {size_t{1}, size_t{4}}) {
    for (size_t batch : {size_t{1}, size_t{1024}}) {
      for (size_t budget : {size_t{0}, size_t{64}}) {
        out.push_back({dop, batch, budget});
      }
    }
  }
  return out;
}

std::vector<Row> Execute(PhysOp* plan, const Config& config,
                         ExecContext::Counters* counters = nullptr) {
  ExecContext ctx;
  ctx.set_batch_size(config.batch);
  MemoryTracker memory(config.budget);
  SpillManager spill("hash-table-test");
  if (config.budget > 0) {
    ctx.set_memory(&memory);
    ctx.set_spill(&spill);
  }
  Result<QueryResult> r = ExecuteToVector(plan, &ctx);
  EXPECT_TRUE(r.ok()) << config.Label() << ": " << r.status().ToString();
  if (counters != nullptr) *counters = SumWorkCounters(*plan);
  return r.ok() ? std::move(r->rows) : std::vector<Row>{};
}

class HashTableOperatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // The build side is large enough for HashJoin's parallel build and
    // the input for HashGroupBy's parallel partial aggregation.
    build_rows_ = KeyedRows(1, 5000, 700);
    probe_rows_ = KeyedRows(2, 900, 800);
    build_ = tutil::MakeTable("b", KeyedSchema("b"), build_rows_);
    probe_ = tutil::MakeTable("p", KeyedSchema("p"), probe_rows_);
  }

  PhysOpPtr Join(size_t dop, bool null_safe) const {
    return std::make_unique<HashJoinOp>(
        std::make_unique<TableScanOp>(probe_.get()),
        std::make_unique<TableScanOp>(build_.get()), std::vector<int>{0},
        std::vector<int>{0}, nullptr, dop, null_safe);
  }

  std::vector<Row> build_rows_;
  std::vector<Row> probe_rows_;
  std::unique_ptr<Table> build_;
  std::unique_ptr<Table> probe_;
};

TEST_F(HashTableOperatorTest, HashJoinMatchesReferenceSequence) {
  for (bool null_safe : {false, true}) {
    // Per probe row, matches in reverse build order; a NULL key matches
    // only under null-safe equality.
    std::vector<Row> expected;
    for (const Row& p : probe_rows_) {
      if (p[0].is_null() && !null_safe) continue;
      for (size_t i = build_rows_.size(); i-- > 0;) {
        if (KeyEq(p[0], build_rows_[i][0])) {
          expected.push_back(Concat(p, build_rows_[i]));
        }
      }
    }
    for (const Config& c : Configs()) {
      PhysOpPtr plan = Join(c.dop, null_safe);
      ExecContext::Counters counters;
      tutil::ExpectSameSequence(
          Execute(plan.get(), c, &counters), expected,
          c.Label() + (null_safe ? " null-safe" : ""));
      if (c.budget > 0) {
        EXPECT_GT(counters.spill_bytes, 0u) << c.Label();
      }
    }
  }
}

TEST_F(HashTableOperatorTest, HashJoinMatchesIntKeysToEqualDoubles) {
  auto doubles = tutil::MakeTable(
      "d", Schema({{"dk", TypeId::kDouble, "d"}}),
      {{Value::Double(2.0)}, {Value::Double(2.5)}, {Value::Double(3.0)}});
  auto ints = tutil::MakeTable(
      "i", Schema({{"ik", TypeId::kInt64, "i"}}),
      {{Value::Int(3)}, {Value::Int(2)}, {Value::Int(4)}});
  HashJoinOp join(std::make_unique<TableScanOp>(ints.get()),
                  std::make_unique<TableScanOp>(doubles.get()), {0}, {0});
  tutil::ExpectSameSequence(
      Execute(&join, {1, 1024, 0}),
      {{Value::Int(3), Value::Double(3.0)},
       {Value::Int(2), Value::Double(2.0)}},
      "int x double");
}

TEST_F(HashTableOperatorTest, HashGroupByMatchesReferenceSequence) {
  // Groups in first-appearance order (NULL is a group): count(*), sum(v),
  // min(v), max(v) — all exact, so DOP 4 takes the parallel path.
  struct Agg {
    int64_t count = 0;
    std::optional<int64_t> sum, min, max;
  };
  std::vector<Value> order;
  std::vector<Agg> aggs;
  for (const Row& r : build_rows_) {
    size_t g = 0;
    while (g < order.size() && !KeyEq(order[g], r[0])) ++g;
    if (g == order.size()) {
      order.push_back(r[0]);
      aggs.emplace_back();
    }
    Agg& a = aggs[g];
    ++a.count;
    if (r[1].is_null()) continue;
    const int64_t v = r[1].int_val();
    a.sum = a.sum.value_or(0) + v;
    a.min = a.min ? std::min(*a.min, v) : v;
    a.max = a.max ? std::max(*a.max, v) : v;
  }
  const auto opt = [](const std::optional<int64_t>& v) {
    return v ? Value::Int(*v) : Value::Null();
  };
  std::vector<Row> expected;
  for (size_t g = 0; g < order.size(); ++g) {
    expected.push_back({order[g], Value::Int(aggs[g].count), opt(aggs[g].sum),
                        opt(aggs[g].min), opt(aggs[g].max)});
  }
  for (const Config& c : Configs()) {
    auto scan = std::make_unique<TableScanOp>(build_.get());
    const Schema s = scan->output_schema();
    std::vector<AggregateDesc> descs;
    descs.push_back(CountStar("cnt"));
    descs.push_back(Sum(Col(s, "v"), "sum_v"));
    descs.push_back(Min(Col(s, "v"), "min_v"));
    descs.push_back(Max(Col(s, "v"), "max_v"));
    HashGroupByOp plan(std::move(scan), {0}, std::move(descs), c.dop);
    ExecContext::Counters counters;
    tutil::ExpectSameSequence(Execute(&plan, c, &counters), expected,
                              c.Label());
    if (c.budget > 0) {
      EXPECT_GT(counters.spill_bytes, 0u) << c.Label();
    }
  }
}

TEST_F(HashTableOperatorTest, CountDistinctMatchesReference) {
  // count(distinct v) per k: the DISTINCT-aggregate set ignores NULL v.
  std::vector<Value> order;
  std::vector<std::vector<int64_t>> seen;
  for (const Row& r : build_rows_) {
    size_t g = 0;
    while (g < order.size() && !KeyEq(order[g], r[0])) ++g;
    if (g == order.size()) {
      order.push_back(r[0]);
      seen.emplace_back();
    }
    if (r[1].is_null()) continue;
    std::vector<int64_t>& vs = seen[g];
    if (std::find(vs.begin(), vs.end(), r[1].int_val()) == vs.end()) {
      vs.push_back(r[1].int_val());
    }
  }
  std::vector<Row> expected;
  for (size_t g = 0; g < order.size(); ++g) {
    expected.push_back(
        {order[g], Value::Int(static_cast<int64_t>(seen[g].size()))});
  }
  for (const Config& c : Configs()) {
    auto scan = std::make_unique<TableScanOp>(build_.get());
    const Schema s = scan->output_schema();
    std::vector<AggregateDesc> descs;
    descs.push_back(Count(Col(s, "v"), "cd", /*distinct=*/true));
    HashGroupByOp plan(std::move(scan), {0}, std::move(descs), c.dop);
    tutil::ExpectSameSequence(Execute(&plan, c), expected, c.Label());
  }
}

TEST_F(HashTableOperatorTest, DistinctMatchesReferenceSequence) {
  // First occurrences of whole (k, v) rows, NULL equal to NULL.
  const auto opt = [](const Value& v) {
    return v.is_null() ? std::nullopt : std::optional<int64_t>(v.int_val());
  };
  std::set<std::pair<std::optional<int64_t>, std::optional<int64_t>>> seen;
  std::vector<Row> expected;
  for (const Row& r : build_rows_) {
    if (seen.insert({opt(r[0]), opt(r[1])}).second) expected.push_back(r);
  }
  for (const Config& c : Configs()) {
    DistinctOp plan(std::make_unique<TableScanOp>(build_.get()));
    tutil::ExpectSameSequence(Execute(&plan, c), expected, c.Label());
  }
}

}  // namespace
}  // namespace gapply
