#ifndef GAPPLY_COMMON_HASH_TABLE_H_
#define GAPPLY_COMMON_HASH_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace gapply {

/// \brief The one hash index behind every hash operator: joins, grouping,
/// Distinct, the DISTINCT-aggregate set and GApply's hash partitioning
/// (DESIGN.md §18).
///
/// The table never sees a key. Callers hash a key once (for rows,
/// `HashRowColumns` over the key columns, in place) and pass that hash
/// with an equality callback that compares the candidate against their
/// own key storage — the build row of a join, the group's single stored
/// key of a group-by. Entries are dense ids 0, 1, 2, ... handed out in
/// first-insertion order, so callers index their per-entry state (keys,
/// accumulators, gids) with them directly.
///
/// Slots are a power of two, probed linearly from a Fibonacci-mixed hash;
/// each holds a 32-bit hash tag and the entry id + 1 (0 = empty), so a
/// probe touches caller storage only on a tag match. The table doubles at
/// half load by re-inserting the stored per-entry hashes, without calling
/// back. Growth is driven by the entry count, never by a reservation, so
/// the slot array stays within 4× the number of distinct keys.
///
/// Join builds add rows with `InsertRow`: rows with equal keys form one
/// entry and chain by caller row id, newest first, so a probe walks
/// `FirstRow`/`NextRow` and sees matches in reverse build order — the
/// order the engine's node-based `std::unordered_multimap` join table
/// produced, kept so join output is unchanged row for row.
class HashTable {
 public:
  static constexpr uint32_t kNone = 0xffffffffu;

  /// Distinct entries (keys) inserted so far.
  size_t size() const { return hashes_.size(); }
  /// The hash `entry` was inserted with.
  size_t hash(uint32_t entry) const { return hashes_[entry]; }

  /// Drops every entry and chain and frees the storage.
  void Clear() {
    slots_ = {};
    hashes_ = {};
    head_ = {};
    next_ = {};
    shift_ = 64;
  }

  /// The entry whose key matches, or kNone. `eq(entry)` is called only on
  /// entries whose hash agrees with `hash` in its low 32 bits.
  template <typename Eq>
  uint32_t Find(size_t hash, const Eq& eq) const {
    if (slots_.empty()) return kNone;
    const uint32_t tag = Tag(hash);
    for (size_t i = Home(hash);; i = (i + 1) & (slots_.size() - 1)) {
      const Slot& s = slots_[i];
      if (s.entry == 0) return kNone;
      if (s.tag == tag && eq(s.entry - 1)) return s.entry - 1;
    }
  }

  /// The entry whose key matches, inserting a new one (id = size()) when
  /// none does. Returns the entry and whether it was inserted.
  template <typename Eq>
  std::pair<uint32_t, bool> FindOrInsert(size_t hash, const Eq& eq) {
    if (slots_.empty()) Rehash(kMinSlots);
    const uint32_t tag = Tag(hash);
    size_t i = Home(hash);
    for (;; i = (i + 1) & (slots_.size() - 1)) {
      const Slot& s = slots_[i];
      if (s.entry == 0) break;
      if (s.tag == tag && eq(s.entry - 1)) return {s.entry - 1, false};
    }
    const auto entry = static_cast<uint32_t>(hashes_.size());
    slots_[i] = Slot{tag, entry + 1};
    hashes_.push_back(hash);
    if (hashes_.size() * 2 > slots_.size()) Rehash(slots_.size() * 2);
    return {entry, true};
  }

  /// Adds the next row id (0, 1, 2, ... per call; returned) to the front
  /// of its key's chain, creating the entry on first sight.
  /// `eq(first_row)` compares the new row's key against a candidate
  /// entry's first row.
  template <typename Eq>
  uint32_t InsertRow(size_t hash, const Eq& eq) {
    const auto row = static_cast<uint32_t>(next_.size());
    const auto [entry, inserted] = FindOrInsert(
        hash, [&](uint32_t e) { return eq(head_[e]); });
    if (inserted) {
      head_.push_back(row);
      next_.push_back(kNone);
    } else {
      next_.push_back(head_[entry]);
      head_[entry] = row;
    }
    return row;
  }

  /// First row of `entry`'s chain (InsertRow tables only).
  uint32_t FirstRow(uint32_t entry) const { return head_[entry]; }
  /// The row after `row` in its chain, or kNone.
  uint32_t NextRow(uint32_t row) const { return next_[row]; }

 private:
  struct Slot {
    uint32_t tag = 0;
    uint32_t entry = 0;  // entry id + 1; 0 = empty
  };
  static constexpr size_t kMinSlots = 64;

  static uint64_t Mix(size_t hash) {
    return static_cast<uint64_t>(hash) * 0x9e3779b97f4a7c15ull;
  }
  size_t Home(size_t hash) const {
    return static_cast<size_t>(Mix(hash) >> shift_);
  }
  static uint32_t Tag(size_t hash) { return static_cast<uint32_t>(hash); }

  void Rehash(size_t num_slots) {
    slots_.assign(num_slots, Slot{});
    shift_ = 64;
    for (size_t n = num_slots; n > 1; n >>= 1) --shift_;
    for (size_t e = 0; e < hashes_.size(); ++e) {
      size_t i = Home(hashes_[e]);
      while (slots_[i].entry != 0) i = (i + 1) & (num_slots - 1);
      slots_[i] = Slot{Tag(hashes_[e]), static_cast<uint32_t>(e + 1)};
    }
  }

  std::vector<Slot> slots_;
  std::vector<size_t> hashes_;  // by entry
  int shift_ = 64;
  // Row chains (InsertRow only): head by entry, next by row id.
  std::vector<uint32_t> head_;
  std::vector<uint32_t> next_;
};

}  // namespace gapply

#endif  // GAPPLY_COMMON_HASH_TABLE_H_
