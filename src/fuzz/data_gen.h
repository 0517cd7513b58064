#ifndef GAPPLY_FUZZ_DATA_GEN_H_
#define GAPPLY_FUZZ_DATA_GEN_H_

#include <optional>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/common/value.h"
#include "src/stats/stats.h"
#include "src/storage/catalog.h"

namespace gapply::fuzz {

/// Column descriptor the query generator consumes: the declared type plus
/// the domain the data was drawn from, so predicates can aim inside, at the
/// edge of, or outside the populated range (the latter makes every group
/// empty — the paper's Theorem 1 edge case).
struct FuzzColumn {
  std::string name;
  TypeId type = TypeId::kInt64;
  /// Small-domain column suitable for GROUP BY / GApply grouping.
  bool group_key = false;
  /// Fraction of rows whose value is NULL (0 for key-like columns unless
  /// the dataset deliberately degrades them; 1 for the all-NULL-key case).
  double null_fraction = 0.0;
  /// Populated value range for numeric columns (inclusive).
  int64_t int_min = 0;
  int64_t int_max = 0;
  double dbl_min = 0.0;
  double dbl_max = 0.0;
  /// An int64 fact column whose rows were reordered to be non-decreasing
  /// (with duplicate runs), so pushed scans narrow on it by binary search;
  /// sometimes one NULL or one descent then breaks the order. The query
  /// generator ands `=` and range conjuncts on it onto WHERE predicates.
  bool sorted = false;
};

struct FuzzTable {
  std::string name;
  std::vector<FuzzColumn> columns;
  std::vector<Row> rows;
};

/// A generated schema + data instance: one fact table ("t0"), optionally a
/// dimension ("d0") with fact.fk → d0.pk declared as a foreign key and the
/// data kept FK-consistent (so InvariantGrouping's certificate is sound).
/// Column names are globally unique across tables, which keeps every
/// generated column reference unambiguous without qualifiers.
struct FuzzDataset {
  FuzzTable fact;
  std::optional<FuzzTable> dim;
  /// Shared pool of string values; string predicates draw literals from it.
  std::vector<std::string> words;
  /// Feature tags describing deliberate edge cases ("empty-fact",
  /// "all-null-key", "dup-rows", ...). Merged into the case's feature list.
  std::vector<std::string> features;
};

/// Draws a dataset. Deliberately skews toward edge cases: empty and
/// single-row tables, skewed low-cardinality group keys, NULL-heavy and
/// all-NULL key columns, duplicated rows.
FuzzDataset GenerateDataset(Rng* rng);

/// Installs the dataset's tables plus PK/FK metadata into `catalog` and
/// computes statistics. The catalog must not already contain the tables.
Status InstallDataset(const FuzzDataset& dataset, Catalog* catalog,
                      StatsManager* stats);

/// Human-readable schema + full data listing for failure repro dumps.
std::string DescribeDataset(const FuzzDataset& dataset);

}  // namespace gapply::fuzz

#endif  // GAPPLY_FUZZ_DATA_GEN_H_
