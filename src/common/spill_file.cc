#include "src/common/spill_file.h"

#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>

namespace gapply {

namespace {

// Value type tags on disk. Stable small integers, independent of TypeId's
// enumerator values.
enum : uint8_t {
  kTagNull = 0,
  kTagBool = 1,
  kTagInt = 2,
  kTagDouble = 3,
  kTagString = 4,
};

// Process-wide counter distinguishing spill directories of concurrent
// queries (and of back-to-back queries whose directories could otherwise
// collide before the filesystem removes the first).
std::atomic<uint64_t> g_spill_dir_seq{0};

}  // namespace

size_t ApproxRowBytes(const Row& row) {
  size_t bytes = sizeof(Row) + row.size() * sizeof(Value);
  for (const Value& v : row) bytes += v.heap_bytes();
  return bytes;
}

SpillManager::SpillManager(const std::string& tag) : tag_(tag) {}

SpillManager::~SpillManager() {
  if (dir_.empty()) return;
  std::error_code ec;  // best effort; never throw from a destructor
  std::filesystem::remove_all(dir_, ec);
}

Result<std::string> SpillManager::NewFilePath() {
  std::lock_guard<std::mutex> lock(mu_);
  if (dir_.empty()) {
    std::error_code ec;
    std::filesystem::path base = std::filesystem::temp_directory_path(ec);
    if (ec) return Status::Internal("spill: no temp directory available");
    // The pid keeps concurrent *processes* sharing one temp directory
    // apart (e.g. parallel ctest workers); the sequence number keeps
    // concurrent queries within this process apart.
    std::filesystem::path dir =
        base / ("gapply-spill-" + tag_ + "-" + std::to_string(getpid()) +
                "-" +
                std::to_string(
                    g_spill_dir_seq.fetch_add(1, std::memory_order_relaxed)));
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      return Status::Internal("spill: cannot create directory " +
                              dir.string());
    }
    dir_ = dir.string();
  }
  return dir_ + "/part-" + std::to_string(next_file_++) + ".spill";
}

Result<std::unique_ptr<SpillWriter>> SpillWriter::Open(
    const std::string& path) {
  std::unique_ptr<SpillWriter> writer(new SpillWriter(path));
  writer->out_.open(path, std::ios::binary | std::ios::trunc);
  if (!writer->out_.is_open()) {
    return Status::Internal("spill: cannot open for writing: " + path);
  }
  writer->buffer_.reserve(1 << 16);
  return writer;
}

void SpillWriter::Append(const void* data, size_t n) {
  buffer_.append(static_cast<const char*>(data), n);
  bytes_written_ += n;
  if (buffer_.size() >= (1 << 16)) {
    out_.write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
    buffer_.clear();
  }
}

void SpillWriter::AppendValue(const Value& v) {
  switch (v.type()) {
    case TypeId::kNull: {
      const uint8_t tag = kTagNull;
      Append(&tag, 1);
      break;
    }
    case TypeId::kBool: {
      const uint8_t tag = kTagBool;
      Append(&tag, 1);
      const uint8_t b = v.bool_val() ? 1 : 0;
      Append(&b, 1);
      break;
    }
    case TypeId::kInt64: {
      const uint8_t tag = kTagInt;
      Append(&tag, 1);
      const int64_t i = v.int_val();
      Append(&i, sizeof(i));
      break;
    }
    case TypeId::kDouble: {
      const uint8_t tag = kTagDouble;
      Append(&tag, 1);
      // Moved as a bit pattern so NaN payloads and signed zeros survive.
      uint64_t bits = 0;
      const double d = v.double_val();
      std::memcpy(&bits, &d, sizeof(bits));
      Append(&bits, sizeof(bits));
      break;
    }
    case TypeId::kString: {
      const uint8_t tag = kTagString;
      Append(&tag, 1);
      const std::string_view s = v.str_val();
      const uint32_t len = static_cast<uint32_t>(s.size());
      Append(&len, sizeof(len));
      Append(s.data(), s.size());
      break;
    }
  }
}

Status SpillWriter::WriteRow(const Row& row) {
  const uint32_t n = static_cast<uint32_t>(row.size());
  Append(&n, sizeof(n));
  for (const Value& v : row) AppendValue(v);
  rows_written_++;
  if (!out_.good()) return Status::Internal("spill: write failed: " + path_);
  return Status::OK();
}

Status SpillWriter::WriteIndexedRow(uint64_t index, const Row& row) {
  Append(&index, sizeof(index));
  return WriteRow(row);
}

Status SpillWriter::Finish() {
  if (!buffer_.empty()) {
    out_.write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
    buffer_.clear();
  }
  out_.flush();
  out_.close();
  if (out_.fail()) return Status::Internal("spill: flush failed: " + path_);
  return Status::OK();
}

Result<std::unique_ptr<SpillReader>> SpillReader::Open(
    const std::string& path) {
  std::unique_ptr<SpillReader> reader(new SpillReader(path));
  reader->in_.open(path, std::ios::binary);
  if (!reader->in_.is_open()) {
    return Status::Internal("spill: cannot open for reading: " + path);
  }
  return reader;
}

bool SpillReader::ReadExact(void* data, size_t n) {
  in_.read(static_cast<char*>(data), static_cast<std::streamsize>(n));
  return static_cast<size_t>(in_.gcount()) == n;
}

Status SpillReader::ReadValue(Value* out) {
  uint8_t tag = 0;
  if (!ReadExact(&tag, 1)) {
    return Status::Internal("spill: truncated value in " + path_);
  }
  switch (tag) {
    case kTagNull:
      *out = Value::Null();
      return Status::OK();
    case kTagBool: {
      uint8_t b = 0;
      if (!ReadExact(&b, 1)) break;
      *out = Value::Bool(b != 0);
      return Status::OK();
    }
    case kTagInt: {
      int64_t i = 0;
      if (!ReadExact(&i, sizeof(i))) break;
      *out = Value::Int(i);
      return Status::OK();
    }
    case kTagDouble: {
      uint64_t bits = 0;
      if (!ReadExact(&bits, sizeof(bits))) break;
      double d = 0;
      std::memcpy(&d, &bits, sizeof(d));
      *out = Value::Double(d);
      return Status::OK();
    }
    case kTagString: {
      uint32_t len = 0;
      if (!ReadExact(&len, sizeof(len))) break;
      std::string s(len, '\0');
      if (len > 0 && !ReadExact(s.data(), len)) break;
      *out = Value::Str(s);
      return Status::OK();
    }
    default:
      return Status::Internal("spill: bad value tag in " + path_);
  }
  return Status::Internal("spill: truncated value in " + path_);
}

Result<bool> SpillReader::ReadRow(Row* out) {
  uint32_t n = 0;
  if (!ReadExact(&n, sizeof(n))) {
    if (in_.eof()) return false;
    return Status::Internal("spill: truncated row header in " + path_);
  }
  out->clear();
  out->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Value v;
    RETURN_NOT_OK(ReadValue(&v));
    out->push_back(std::move(v));
  }
  return true;
}

Result<bool> SpillReader::ReadIndexedRow(uint64_t* index, Row* out) {
  if (!ReadExact(index, sizeof(*index))) {
    if (in_.eof()) return false;
    return Status::Internal("spill: truncated index in " + path_);
  }
  return ReadRow(out);
}

size_t SpillPartitionOf(size_t key_hash, int level) {
  return HashCombine(key_hash, 0x9e3779b9u * static_cast<size_t>(level + 1)) %
         kSpillFanout;
}

Result<std::vector<std::unique_ptr<SpillWriter>>> OpenSpillFanout(
    SpillManager* spill) {
  std::vector<std::unique_ptr<SpillWriter>> writers(kSpillFanout);
  for (auto& w : writers) {
    ASSIGN_OR_RETURN(std::string path, spill->NewFilePath());
    ASSIGN_OR_RETURN(w, SpillWriter::Open(path));
  }
  return writers;
}

void RemoveSpillFile(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

Result<SpillPartition> LoadSpillPartition(const std::string& path, int level,
                                          const SpillRecords& records,
                                          MemoryReservation* reservation,
                                          SpillManager* spill) {
  ASSIGN_OR_RETURN(std::unique_ptr<SpillReader> reader,
                   SpillReader::Open(path));
  uint64_t index = 0;  // stays 0 for bare rows
  Row row;
  const auto read = [&] {
    return records.indexed ? reader->ReadIndexedRow(&index, &row)
                           : reader->ReadRow(&row);
  };
  SpillPartition part;
  while (true) {
    ASSIGN_OR_RETURN(bool has, read());
    if (!has) {
      reader.reset();
      RemoveSpillFile(path);
      part.loaded = true;
      return part;
    }
    const size_t bytes = ApproxRowBytes(row);
    if (!reservation->TryGrow(bytes)) {
      if (level + 1 < kMaxSpillDepth) break;
      reservation->ForceGrow(bytes);
    }
    if (records.indexed) part.indices.push_back(index);
    part.rows.push_back(std::move(row));
  }

  ASSIGN_OR_RETURN(part.split, OpenSpillFanout(spill));
  const auto route = [&](uint64_t i, const Row& r) {
    SpillWriter* w = part.split[records.partition_of(i, r, level + 1)].get();
    return records.indexed ? w->WriteIndexedRow(i, r) : w->WriteRow(r);
  };
  for (size_t i = 0; i < part.rows.size(); ++i) {
    RETURN_NOT_OK(route(records.indexed ? part.indices[i] : 0, part.rows[i]));
  }
  part.indices = {};
  part.rows = {};
  reservation->ReleaseAll();
  bool has = true;
  while (has) {
    RETURN_NOT_OK(route(index, row));
    ASSIGN_OR_RETURN(has, read());
  }
  reader.reset();
  RemoveSpillFile(path);
  return part;
}

}  // namespace gapply
