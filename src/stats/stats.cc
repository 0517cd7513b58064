#include "src/stats/stats.h"

#include <algorithm>
#include <cmath>

#include "src/common/string_util.h"
#include "src/exec/filter_project_ops.h"
#include "src/storage/columnar.h"

namespace gapply {

namespace {

/// Distinct values of a sorted array: one plus the adjacent-unequal pairs.
template <typename T>
int64_t CountDistinctSorted(const std::vector<T>& sorted) {
  int64_t ndv = sorted.empty() ? 0 : 1;
  for (size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i] != sorted[i - 1]) ++ndv;
  }
  return ndv;
}

/// Equi-depth bucket upper bounds over a sorted, non-empty array.
template <typename T>
std::vector<double> HistogramBounds(const std::vector<T>& sorted,
                                    int buckets) {
  std::vector<double> bounds;
  const size_t n = sorted.size();
  for (int b = 1; b <= buckets; ++b) {
    size_t idx = n * static_cast<size_t>(b) / static_cast<size_t>(buckets);
    if (idx == 0) idx = 1;
    bounds.push_back(static_cast<double>(sorted[idx - 1]));
  }
  return bounds;
}

}  // namespace

double ColumnStats::FractionBelow(double v) const {
  if (min.is_null() || max.is_null()) return 0.0;
  const double lo = min.AsDouble();
  const double hi = max.AsDouble();
  if (v <= lo) return 0.0;
  if (v > hi) return 1.0;
  if (!histogram_bounds.empty()) {
    // Count full buckets below v; interpolate within the straddling bucket.
    const double per_bucket = 1.0 / static_cast<double>(
                                        histogram_bounds.size());
    double fraction = 0.0;
    double prev = lo;
    for (double bound : histogram_bounds) {
      if (v > bound) {
        fraction += per_bucket;
        prev = bound;
        continue;
      }
      if (bound > prev) {
        fraction += per_bucket * (v - prev) / (bound - prev);
      }
      return std::min(1.0, fraction);
    }
    return 1.0;
  }
  if (hi == lo) return 0.0;
  return (v - lo) / (hi - lo);
}

double ColumnStats::EqualitySelectivity() const {
  if (ndv <= 0) return 1.0;
  return 1.0 / static_cast<double>(ndv);
}

Status StatsManager::AnalyzeAll(const Catalog& catalog) {
  for (const std::string& name : catalog.TableNames()) {
    ASSIGN_OR_RETURN(Table * table, catalog.GetTable(name));
    RETURN_NOT_OK(Analyze(*table));
  }
  return Status::OK();
}

Status StatsManager::Analyze(const Table& table) {
  TableStats stats;
  stats.row_count = static_cast<int64_t>(table.num_rows());
  const size_t num_cols = table.schema().num_columns();
  stats.columns.resize(num_cols);

  // ANALYZE reads the columnar view instead of rescanning rows: min/max and
  // null counts fold straight out of the per-morsel zone maps, string NDV
  // is the dictionary size (exact — values are never deleted), and numeric
  // distincts/histograms gather from the dense arrays.
  const ColumnarTable& ct = table.columnar();
  const size_t num_morsels = ct.num_morsels();
  for (size_t c = 0; c < num_cols; ++c) {
    ColumnStats& col = stats.columns[c];
    const ColumnVector& cv = ct.column(c);
    for (size_t m = 0; m < num_morsels; ++m) {
      const ZoneMap& zone = ct.zone(c, m);
      col.null_count += static_cast<int64_t>(zone.null_count);
      if (zone.min.is_null()) continue;  // morsel has no non-NULL values
      if (col.min.is_null() || CompareForSort(zone.min, col.min) < 0) {
        col.min = zone.min;
      }
      if (col.max.is_null() || CompareForSort(zone.max, col.max) > 0) {
        col.max = zone.max;
      }
    }

    // Numeric NDV and histogram both come from one sort of the non-NULL
    // values: NDV counts adjacent-unequal values.
    const size_t nrows = cv.size();
    const auto summarize = [&](const auto& sorted) {
      col.ndv += CountDistinctSorted(sorted);
      if (!sorted.empty() && histogram_buckets_ > 1) {
        col.histogram_bounds = HistogramBounds(sorted, histogram_buckets_);
      }
    };
    switch (cv.type()) {
      case TypeId::kString:
        col.ndv = static_cast<int64_t>(cv.dict_size());
        break;
      case TypeId::kBool: {
        bool seen[2] = {false, false};
        for (size_t i = 0; i < nrows; ++i) {
          if (!cv.IsNull(i)) seen[cv.ints()[i] != 0] = true;
        }
        col.ndv = static_cast<int64_t>(seen[0]) + static_cast<int64_t>(seen[1]);
        break;
      }
      case TypeId::kInt64: {
        std::vector<int64_t> values;
        values.reserve(nrows);
        for (size_t i = 0; i < nrows; ++i) {
          if (!cv.IsNull(i)) values.push_back(cv.ints()[i]);
        }
        std::sort(values.begin(), values.end());
        summarize(values);
        break;
      }
      case TypeId::kDouble: {
        std::vector<double> values;
        values.reserve(nrows);
        for (size_t i = 0; i < nrows; ++i) {
          if (!cv.IsNull(i)) values.push_back(cv.doubles()[i]);
        }
        // NaN breaks std::sort's strict weak order, so NaNs leave the array
        // first. Each counts as its own distinct value (NaN != NaN); none
        // enters the histogram.
        const auto nans =
            std::partition(values.begin(), values.end(),
                           [](double d) { return !std::isnan(d); });
        col.ndv = values.end() - nans;
        values.erase(nans, values.end());
        std::sort(values.begin(), values.end());
        summarize(values);
        break;
      }
      case TypeId::kNull:
        col.ndv = 0;
        break;
    }
  }
  stats_[ToLower(table.name())] = std::move(stats);
  version_.fetch_add(1, std::memory_order_acq_rel);
  return Status::OK();
}

const TableStats* StatsManager::Get(const std::string& table) const {
  auto it = stats_.find(ToLower(table));
  return it == stats_.end() ? nullptr : &it->second;
}

}  // namespace gapply
