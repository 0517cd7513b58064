#ifndef GAPPLY_COMMON_SPILL_FILE_H_
#define GAPPLY_COMMON_SPILL_FILE_H_

#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/memory_tracker.h"
#include "src/common/result.h"
#include "src/common/status.h"
#include "src/common/value.h"

namespace gapply {

/// Approximate resident bytes of a row: container headers plus one Value
/// slot per column plus string heap payloads. The number every budgeted
/// operator reserves per buffered row, so the spill trigger fires at a
/// consistent notion of "working set" across operators.
size_t ApproxRowBytes(const Row& row);

/// \brief Query-scoped directory of spill files.
///
/// Created lazily on the first spill (a query that stays under budget
/// never touches the filesystem) and removed — with everything in it — on
/// destruction, so a finished or failed query leaves no files behind.
/// `NewFilePath` is thread-safe: parallel workers sharing one manager get
/// distinct paths.
class SpillManager {
 public:
  /// `tag` distinguishes concurrent queries' directories; the manager
  /// appends a process-unique counter.
  explicit SpillManager(const std::string& tag = "q");
  ~SpillManager();

  SpillManager(const SpillManager&) = delete;
  SpillManager& operator=(const SpillManager&) = delete;

  /// A fresh path under the query's spill directory (creates the directory
  /// on first call). The file itself is not created.
  Result<std::string> NewFilePath();

  /// The spill directory, empty until the first NewFilePath call.
  const std::string& dir() const { return dir_; }

 private:
  std::mutex mu_;
  std::string tag_;
  std::string dir_;
  uint64_t next_file_ = 0;
};

/// \brief Buffered binary row writer.
///
/// Serialization is a one-byte type tag per value (NULL / bool / int64 /
/// double / string), fixed 8-byte payloads for numerics (doubles moved as
/// bit patterns, so round-trips are exact), and length-prefixed string
/// payloads — lossless, so a spilled-and-reloaded row is `Value::Equals`
/// *and* bit-identical to the original.
class SpillWriter {
 public:
  /// Opens `path` for writing (truncating).
  static Result<std::unique_ptr<SpillWriter>> Open(const std::string& path);

  /// Appends one row.
  Status WriteRow(const Row& row);
  /// Appends a (sequence-index, row) record for order-restoring merges.
  Status WriteIndexedRow(uint64_t index, const Row& row);

  /// Flushes and closes. Must be called before reading the file back.
  Status Finish();

  /// Bytes written so far (what the spill_bytes counters report).
  uint64_t bytes_written() const { return bytes_written_; }
  uint64_t rows_written() const { return rows_written_; }
  const std::string& path() const { return path_; }

 private:
  explicit SpillWriter(std::string path) : path_(std::move(path)) {}

  void Append(const void* data, size_t n);
  void AppendValue(const Value& v);

  std::string path_;
  std::ofstream out_;
  std::string buffer_;
  uint64_t bytes_written_ = 0;
  uint64_t rows_written_ = 0;
};

/// \brief Streaming reader over a finished spill file.
class SpillReader {
 public:
  static Result<std::unique_ptr<SpillReader>> Open(const std::string& path);

  /// Reads the next row into `*out`; returns false at end of file.
  Result<bool> ReadRow(Row* out);
  /// Reads the next (index, row) record written by WriteIndexedRow.
  Result<bool> ReadIndexedRow(uint64_t* index, Row* out);

 private:
  explicit SpillReader(std::string path) : path_(std::move(path)) {}

  bool ReadExact(void* data, size_t n);
  Status ReadValue(Value* out);

  std::string path_;
  std::ifstream in_;
};

/// Grace partitioning geometry shared by HashJoin, HashGroupBy and GApply:
/// spill files per level, and the recursion depth at which a partition is
/// processed in memory regardless of the budget (an all-equal-key input
/// cannot be split by any hash).
constexpr size_t kSpillFanout = 8;
constexpr int kMaxSpillDepth = 4;

/// The level-`level` spill partition of a key hash. The salt changes per
/// level, so a partition that overflows level L redistributes at level
/// L+1 instead of landing in one sub-partition.
size_t SpillPartitionOf(size_t key_hash, int level);

/// Opens kSpillFanout writers on fresh paths under `spill`.
Result<std::vector<std::unique_ptr<SpillWriter>>> OpenSpillFanout(
    SpillManager* spill);

/// Deletes a spill file; a missing file is not an error.
void RemoveSpillFile(const std::string& path);

/// The record layout and routing of one operator's spill files.
struct SpillRecords {
  /// Records are (index, row) pairs (WriteIndexedRow), not bare rows.
  bool indexed = false;
  /// The level-`level` partition of a record; bare rows get index 0.
  std::function<size_t(uint64_t index, const Row& row, int level)>
      partition_of;
};

/// One spill partition read back by LoadSpillPartition.
struct SpillPartition {
  /// True when the records are in `rows` (and, for indexed records, their
  /// indices in `indices`), in file order; false when they were re-routed
  /// into `split`.
  bool loaded = false;
  std::vector<uint64_t> indices;
  std::vector<Row> rows;
  /// kSpillFanout level + 1 writers holding the re-routed records, still
  /// to be finished by the caller (which books them).
  std::vector<std::unique_ptr<SpillWriter>> split;
};

/// \brief The budgeted spill-partition loader shared by GApply, HashGroupBy
/// and the Grace HashJoin.
///
/// Reads the level-`level` partition at `path`, reserving each row's
/// ApproxRowBytes in `reservation`, and deletes the file. When the budget
/// refuses a row below kMaxSpillDepth, every record is re-routed at
/// `level + 1` in file order — the loaded prefix (whose reservation is
/// released), the refused row, then the rest of the file — so each split
/// file keeps its records in their original relative order. At the depth
/// cap the partition loads regardless of the budget (ForceGrow): an
/// all-equal-key input cannot be split by any hash.
Result<SpillPartition> LoadSpillPartition(const std::string& path, int level,
                                          const SpillRecords& records,
                                          MemoryReservation* reservation,
                                          SpillManager* spill);

}  // namespace gapply

#endif  // GAPPLY_COMMON_SPILL_FILE_H_
