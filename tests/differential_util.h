#ifndef GAPPLY_TESTS_DIFFERENTIAL_UTIL_H_
#define GAPPLY_TESTS_DIFFERENTIAL_UTIL_H_

// Shared differential-testing helpers, promoted from the per-file copies
// that exec_batch_test.cc and exec_exchange_test.cc used to carry.
//
// The comparison primitives themselves (SameRowSequence / SameRowMultiset /
// SortRowsCanonical) live in the library (src/exec/physical_op.h) so the
// fuzzer's oracle runner (src/fuzz/differential.cc) and these tests share
// one definition of "equivalent results". This header adds the gtest glue
// and the config-pair matrices the hand-written differential tests sweep.
//
// The determinism contract the matrices encode:
//   - changing DOP or batch size must not change the output *sequence*
//     (bit-for-bit bar — use ExpectSameSequence);
//   - changing physical strategy (sort vs hash partitioning, hash vs
//     stream aggregation) must preserve the output *multiset*
//     (use ExpectSameMultiset).

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/exec/physical_op.h"
#include "src/fuzz/differential.h"

namespace gapply::tutil {

/// Batch sizes every batch differential sweeps: degenerate (1),
/// straddling (3, forces mid-group batch boundaries), and default (1024).
inline constexpr size_t kDiffBatchSizes[] = {1, 3, 1024};

/// The DOP x batch grid shared with the fuzzer's default oracle matrix
/// (fuzz::OracleMatrixOptions), so hand-written determinism tests and fuzz
/// oracles exercise the same configurations. Includes dop=1 rows so tests
/// that treat serial output as the baseline can anchor on the first entry
/// per batch size.
inline std::vector<std::pair<size_t, size_t>> DopBatchMatrix(
    bool include_serial = true) {
  fuzz::OracleMatrixOptions defaults;
  std::vector<std::pair<size_t, size_t>> grid;
  for (size_t dop : defaults.dops) {
    for (size_t batch : defaults.batch_sizes) {
      grid.emplace_back(dop, batch);
    }
  }
  if (include_serial) {
    std::vector<std::pair<size_t, size_t>> with_serial;
    for (size_t batch : defaults.batch_sizes) {
      with_serial.emplace_back(1, batch);
    }
    with_serial.insert(with_serial.end(), grid.begin(), grid.end());
    grid = std::move(with_serial);
  }
  return grid;
}

/// Bit-for-bit bar: same rows in the same order.
inline void ExpectSameSequence(const std::vector<Row>& got,
                               const std::vector<Row>& expected,
                               const std::string& label) {
  EXPECT_TRUE(SameRowSequence(got, expected))
      << label << ": sequence mismatch (got " << got.size()
      << " rows, expected " << expected.size() << ")";
}

/// Order-insensitive bar: same rows with the same multiplicities.
inline void ExpectSameMultiset(const std::vector<Row>& got,
                               const std::vector<Row>& expected,
                               const std::string& label) {
  EXPECT_TRUE(SameRowMultiset(got, expected))
      << label << ": multiset mismatch (got " << got.size()
      << " rows, expected " << expected.size() << ")";
}

}  // namespace gapply::tutil

#endif  // GAPPLY_TESTS_DIFFERENTIAL_UTIL_H_
