#include "src/fuzz/data_gen.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "src/storage/schema.h"
#include "src/storage/table.h"

namespace gapply::fuzz {

namespace {

/// Picks a row-count class. Small sizes are over-represented on purpose:
/// empty inputs, single rows, and single groups are where groupwise
/// rewrites historically go wrong.
size_t PickFactRows(Rng* rng, std::vector<std::string>* features) {
  const int cls = static_cast<int>(rng->UniformInt(0, 9));
  switch (cls) {
    case 0:
      features->push_back("empty-fact");
      return 0;
    case 1:
      features->push_back("single-row-fact");
      return 1;
    case 2:
      return 2;
    case 3:
      return static_cast<size_t>(rng->UniformInt(3, 17));
    default:
      return static_cast<size_t>(rng->UniformInt(40, 260));
  }
}

Value DrawValue(const FuzzColumn& col, const std::vector<std::string>& words,
                Rng* rng) {
  if (col.null_fraction > 0 && rng->Bernoulli(col.null_fraction)) {
    return Value::Null();
  }
  switch (col.type) {
    case TypeId::kInt64:
      return Value::Int(rng->UniformInt(col.int_min, col.int_max));
    case TypeId::kDouble:
      // One decimal place keeps sums well-conditioned without sacrificing
      // the inexact-arithmetic coverage doubles exist to provide.
      return Value::Double(
          static_cast<double>(rng->UniformInt(
              static_cast<int64_t>(col.dbl_min * 10),
              static_cast<int64_t>(col.dbl_max * 10))) /
          10.0);
    case TypeId::kString:
      return Value::Str(words[static_cast<size_t>(
          rng->UniformInt(0, static_cast<int64_t>(words.size()) - 1))]);
    default:
      return Value::Null();
  }
}

void FillRows(FuzzTable* table, size_t n, const std::vector<std::string>& words,
              Rng* rng) {
  table->rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Row row;
    row.reserve(table->columns.size());
    for (const FuzzColumn& col : table->columns) {
      row.push_back(DrawValue(col, words, rng));
    }
    table->rows.push_back(std::move(row));
  }
}

/// Sometimes reorders the values of one NULL-free int64 fact column into
/// non-decreasing order, and sometimes then breaks that order with one
/// NULL or one descent. The column keeps its multiset of values, but each
/// row now pairs it with other values of the other columns, so groups on
/// this column get different members and groups on other columns see
/// different values. Draws only from `side`, so the main stream, and with
/// it every seed's schema and features, stays as it was.
void MaybeSortColumn(FuzzDataset* ds, Rng* side) {
  FuzzTable& fact = ds->fact;
  std::vector<size_t> candidates;
  for (size_t c = 0; c < fact.columns.size(); ++c) {
    const FuzzColumn& col = fact.columns[c];
    if (col.type == TypeId::kInt64 && col.null_fraction == 0) {
      candidates.push_back(c);
    }
  }
  if (fact.rows.size() < 2 || candidates.empty() || !side->Bernoulli(0.4)) {
    return;
  }
  const size_t c = candidates[static_cast<size_t>(
      side->UniformInt(0, static_cast<int64_t>(candidates.size()) - 1))];
  std::vector<int64_t> values;
  values.reserve(fact.rows.size());
  for (const Row& row : fact.rows) values.push_back(row[c].int_val());
  std::sort(values.begin(), values.end());
  for (size_t i = 0; i < values.size(); ++i) {
    fact.rows[i][c] = Value::Int(values[i]);
  }
  fact.columns[c].sorted = true;
  ds->features.push_back("sorted-col");
  if (!side->Bernoulli(0.3)) return;
  const size_t n = values.size();
  const size_t start = static_cast<size_t>(
      side->UniformInt(1, static_cast<int64_t>(n) - 1));
  // Never a NULL in fk: the declared foreign key must stay honest.
  if (fact.columns[c].name != "fk" && side->Bernoulli(0.5)) {
    fact.rows[start][c] = Value::Null();
    ds->features.push_back("sorted-col-null");
    return;
  }
  // Swapping an ascending neighbour pair makes exactly one descent.
  for (size_t k = 0; k < n - 1; ++k) {
    const size_t r = 1 + (start - 1 + k) % (n - 1);
    if (values[r - 1] < values[r]) {
      std::swap(fact.rows[r - 1][c], fact.rows[r][c]);
      ds->features.push_back("sorted-col-descent");
      return;
    }
  }
}

/// Sometimes shuffles the dimension table's rows. A dense pk filled by
/// position is sorted, which makes every columnar `fk = pk` join a lookup
/// join; a shuffled pk keeps the hash join reachable under both storage
/// modes. Rows move whole, so the data stays FK-consistent.
void MaybeShuffleDim(FuzzDataset* ds, Rng* side) {
  if (!ds->dim.has_value() || ds->dim->rows.size() < 2 ||
      !side->Bernoulli(0.5)) {
    return;
  }
  std::vector<Row>& rows = ds->dim->rows;
  for (size_t i = rows.size() - 1; i > 0; --i) {
    std::swap(rows[i], rows[static_cast<size_t>(
                           side->UniformInt(0, static_cast<int64_t>(i)))]);
  }
  ds->features.push_back("dim-shuffled");
}

/// Sometimes gives d0 a second join key `rk`: non-decreasing by row
/// position, in runs of 2–3 equal keys, now and then skipping a key so some
/// fk values find no run. A `fk = rk` join then reaches the lookup join's
/// duplicate-key runs, which the unique pk never has. Added after the
/// shuffle, so rk stays sorted either way. Draws only from `side`.
void MaybeAddRunKey(FuzzDataset* ds, Rng* side) {
  if (!ds->dim.has_value() || !side->Bernoulli(0.5)) return;
  FuzzTable& dim = *ds->dim;
  int64_t key = 0;
  int64_t left_in_run = side->UniformInt(2, 3);
  for (Row& row : dim.rows) {
    if (left_in_run-- == 0) {
      key += side->Bernoulli(0.25) ? 2 : 1;
      left_in_run = side->UniformInt(2, 3) - 1;
    }
    row.push_back(Value::Int(key));
  }
  dim.columns.push_back({.name = "rk",
                         .type = TypeId::kInt64,
                         .group_key = true,
                         .int_min = 0,
                         .int_max = key});
  ds->features.push_back("dim-run-key");
}

Schema ToSchema(const FuzzTable& table) {
  std::vector<Column> cols;
  cols.reserve(table.columns.size());
  for (const FuzzColumn& c : table.columns) {
    cols.emplace_back(c.name, c.type, table.name);
  }
  return Schema(std::move(cols));
}

}  // namespace

FuzzDataset GenerateDataset(Rng* rng) {
  FuzzDataset ds;

  // Shared string pool: small so string group keys collide and string
  // predicates actually select something.
  const int pool = static_cast<int>(rng->UniformInt(3, 6));
  for (int i = 0; i < pool; ++i) {
    ds.words.push_back(rng->RandomWord(static_cast<int>(rng->UniformInt(2, 6))));
  }

  // Optional dimension table first, so the fact's FK domain is known.
  size_t dim_rows = 0;
  if (rng->Bernoulli(0.5)) {
    FuzzTable dim;
    dim.name = "d0";
    static const int64_t kDimSizes[] = {1, 5, 20};
    dim_rows = static_cast<size_t>(kDimSizes[rng->UniformInt(0, 2)]);
    dim.columns.push_back({.name = "pk",
                           .type = TypeId::kInt64,
                           .group_key = true,
                           .int_min = 0,
                           .int_max = static_cast<int64_t>(dim_rows) - 1});
    dim.columns.push_back({.name = "dv0",
                           .type = TypeId::kInt64,
                           .group_key = true,
                           .null_fraction = rng->Bernoulli(0.3) ? 0.2 : 0.0,
                           .int_min = 0,
                           .int_max = 4});
    dim.columns.push_back({.name = "ds0",
                           .type = TypeId::kString,
                           .null_fraction = rng->Bernoulli(0.3) ? 0.2 : 0.0});
    // pk must be unique and dense: fill it by position, draw the rest.
    for (size_t i = 0; i < dim_rows; ++i) {
      Row row;
      row.push_back(Value::Int(static_cast<int64_t>(i)));
      for (size_t c = 1; c < dim.columns.size(); ++c) {
        row.push_back(DrawValue(dim.columns[c], ds.words, rng));
      }
      dim.rows.push_back(std::move(row));
    }
    ds.dim = std::move(dim);
    ds.features.push_back("dim-table");
  }

  FuzzTable& fact = ds.fact;
  fact.name = "t0";

  // k0: the canonical skewed group key. Tiny domains make heavy groups;
  // occasionally every key is NULL (grouping treats NULL = NULL, so that
  // is one big group).
  static const int64_t kKeyDomains[] = {1, 2, 5, 20};
  FuzzColumn k0{.name = "k0",
                .type = TypeId::kInt64,
                .group_key = true,
                .int_min = 0,
                .int_max = kKeyDomains[rng->UniformInt(0, 3)] - 1};
  if (rng->Bernoulli(0.08)) {
    k0.null_fraction = 1.0;
    ds.features.push_back("all-null-key");
  } else if (rng->Bernoulli(0.3)) {
    k0.null_fraction = 0.15;
    ds.features.push_back("null-keys");
  }
  fact.columns.push_back(k0);

  // k1: secondary key, int or string.
  if (rng->Bernoulli(0.5)) {
    fact.columns.push_back({.name = "k1",
                            .type = TypeId::kInt64,
                            .group_key = true,
                            .null_fraction = rng->Bernoulli(0.2) ? 0.15 : 0.0,
                            .int_min = 0,
                            .int_max = rng->UniformInt(0, 3)});
  } else {
    fact.columns.push_back({.name = "k1",
                            .type = TypeId::kString,
                            .group_key = true,
                            .null_fraction = rng->Bernoulli(0.2) ? 0.15 : 0.0});
  }

  if (ds.dim.has_value()) {
    // FK into d0.pk; never NULL so the declared FK is honest and the
    // invariant-grouping certificate (every fact row joins exactly one
    // dim row) holds on the data, not just the metadata.
    fact.columns.push_back({.name = "fk",
                            .type = TypeId::kInt64,
                            .group_key = true,
                            .int_min = 0,
                            .int_max = static_cast<int64_t>(dim_rows) - 1});
  }

  // 1–3 payload columns of mixed type.
  const int payloads = static_cast<int>(rng->UniformInt(1, 3));
  for (int i = 0; i < payloads; ++i) {
    const int kind = static_cast<int>(rng->UniformInt(0, 2));
    const double nullf = rng->Bernoulli(0.4) ? 0.2 : 0.0;
    if (kind == 0) {
      fact.columns.push_back({.name = "v" + std::to_string(i),
                              .type = TypeId::kInt64,
                              .null_fraction = nullf,
                              .int_min = -50,
                              .int_max = 50});
    } else if (kind == 1) {
      fact.columns.push_back({.name = "f" + std::to_string(i),
                              .type = TypeId::kDouble,
                              .null_fraction = nullf,
                              .dbl_min = -20.0,
                              .dbl_max = 20.0});
    } else {
      fact.columns.push_back({.name = "s" + std::to_string(i),
                              .type = TypeId::kString,
                              .null_fraction = nullf});
    }
  }

  FillRows(&fact, PickFactRows(rng, &ds.features), ds.words, rng);

  // Duplicate-row injection: exact duplicates stress multiset semantics
  // (DISTINCT, duplicate-preserving rewrites, hash partitioning).
  if (!fact.rows.empty() && rng->Bernoulli(0.35)) {
    const size_t dups = 1 + fact.rows.size() / 5;
    for (size_t i = 0; i < dups; ++i) {
      fact.rows.push_back(fact.rows[static_cast<size_t>(rng->UniformInt(
          0, static_cast<int64_t>(fact.rows.size()) - 1))]);
    }
    ds.features.push_back("dup-rows");
  }

  // A side stream seeded off (not drawn from) the main one.
  Rng side(Rng(*rng).Next() ^ 0x50f7edc011ull);
  MaybeSortColumn(&ds, &side);
  MaybeShuffleDim(&ds, &side);
  MaybeAddRunKey(&ds, &side);
  return ds;
}

namespace {

Status InstallTable(const FuzzTable& t, Catalog* catalog) {
  auto table = std::make_unique<Table>(t.name, ToSchema(t));
  RETURN_NOT_OK(table->AppendAll(t.rows));
  return catalog->AddTable(std::move(table));
}

}  // namespace

Status InstallDataset(const FuzzDataset& dataset, Catalog* catalog,
                      StatsManager* stats) {
  RETURN_NOT_OK(InstallTable(dataset.fact, catalog));
  if (dataset.dim.has_value()) {
    RETURN_NOT_OK(InstallTable(*dataset.dim, catalog));
    RETURN_NOT_OK(catalog->SetPrimaryKey(dataset.dim->name, {"pk"}));
    RETURN_NOT_OK(catalog->AddForeignKey({.child_table = dataset.fact.name,
                                          .child_columns = {"fk"},
                                          .parent_table = dataset.dim->name,
                                          .parent_columns = {"pk"}}));
  }
  return stats->AnalyzeAll(*catalog);
}

std::string DescribeDataset(const FuzzDataset& dataset) {
  std::string out;
  auto describe = [&out](const FuzzTable& t) {
    out += t.name + "(";
    for (size_t i = 0; i < t.columns.size(); ++i) {
      if (i > 0) out += ", ";
      out += t.columns[i].name;
      out += ":";
      out += TypeName(t.columns[i].type);
    }
    out += ") " + std::to_string(t.rows.size()) + " rows\n";
    for (const Row& row : t.rows) {
      out += "  (";
      for (size_t i = 0; i < row.size(); ++i) {
        if (i > 0) out += ", ";
        out += row[i].ToString();
      }
      out += ")\n";
    }
  };
  describe(dataset.fact);
  if (dataset.dim.has_value()) describe(*dataset.dim);
  return out;
}

}  // namespace gapply::fuzz
