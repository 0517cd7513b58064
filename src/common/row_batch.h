#ifndef GAPPLY_COMMON_ROW_BATCH_H_
#define GAPPLY_COMMON_ROW_BATCH_H_

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

#include "src/common/value.h"

namespace gapply {

/// \brief The unit of data flow: a block of at most `capacity` rows.
///
/// Operators move batches, not rows, through the pipeline
/// (`PhysOp::NextBatch`), amortizing per-row virtual dispatch and expression
/// interpretation. `capacity` is a hard bound — an operator stops appending
/// once `full()` and resumes on its next call — so a consumer may rely on
/// `size() <= capacity()`, and one that pulls a 1-row batch runs its input
/// exactly one row at a time.
class RowBatch {
 public:
  static constexpr size_t kDefaultCapacity = 1024;

  explicit RowBatch(size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? 1 : capacity) {
    rows_.reserve(capacity_);
  }

  size_t capacity() const { return capacity_; }
  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }
  bool full() const { return rows_.size() >= capacity_; }

  /// Drops the rows but keeps the allocation.
  void Clear() { rows_.clear(); }

  void Add(Row row) {
    assert(!full());
    rows_.push_back(std::move(row));
  }

  Row& operator[](size_t i) { return rows_[i]; }
  const Row& operator[](size_t i) const { return rows_[i]; }

  std::vector<Row>& rows() { return rows_; }
  const std::vector<Row>& rows() const { return rows_; }

 private:
  std::vector<Row> rows_;
  size_t capacity_;
};

}  // namespace gapply

#endif  // GAPPLY_COMMON_ROW_BATCH_H_
