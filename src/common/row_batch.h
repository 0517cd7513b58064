#ifndef GAPPLY_COMMON_ROW_BATCH_H_
#define GAPPLY_COMMON_ROW_BATCH_H_

#include <algorithm>
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

/// \brief Per-unit output buffers of a parallel or spilled operator,
/// streamed out as batches in slot order.
///
/// Each unit of work appends to its own slot, so no two workers write the
/// same buffer and the stream — slot 0's rows, then slot 1's, each in
/// append order — does not depend on scheduling. Drain frees a slot as
/// soon as it is emptied.
class RowSlots {
 public:
  /// Discards every slot and makes `n` empty ones.
  void Reset(size_t n) {
    slots_.assign(n, {});
    current_ = 0;
    pos_ = 0;
  }

  std::vector<Row>& operator[](size_t i) { return slots_[i]; }

  /// Rows buffered across every slot; meaningful before draining starts.
  size_t num_rows() const {
    size_t n = 0;
    for (const std::vector<Row>& slot : slots_) n += slot.size();
    return n;
  }

  /// Clears `out`, then moves rows into it until it is full or every slot
  /// is drained. Returns false once nothing was left.
  bool Drain(RowBatch* out) {
    out->Clear();
    while (current_ < slots_.size() && !out->full()) {
      std::vector<Row>& rows = slots_[current_];
      const size_t n = std::min(out->capacity() - out->size(),
                                rows.size() - pos_);
      for (size_t i = 0; i < n; ++i) out->Add(std::move(rows[pos_ + i]));
      pos_ += n;
      if (pos_ >= rows.size()) {
        rows = std::vector<Row>();
        ++current_;
        pos_ = 0;
      }
    }
    return !out->empty();
  }

 private:
  std::vector<std::vector<Row>> slots_;
  size_t current_ = 0;  // first slot not yet fully drained
  size_t pos_ = 0;      // rows of slots_[current_] already drained
};

}  // namespace gapply

#endif  // GAPPLY_COMMON_ROW_BATCH_H_
