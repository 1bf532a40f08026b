// In-memory record store: the "table" hosted by a data source.
//
// Records are kept in key order (RecordKey::operator<: table, then key) so
// snapshot transfer — shard migration chunks and follower re-seed spans —
// reads a key range directly instead of filtering and sorting the whole
// store. The layout is a sorted vector of fixed-capacity sorted leaves; see
// src/storage/README.md ("Store layout").
#ifndef GEOTP_STORAGE_RECORD_STORE_H_
#define GEOTP_STORAGE_RECORD_STORE_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <utility>
#include <vector>

#include "common/types.h"

namespace geotp {
namespace storage {

struct Record {
  int64_t value = 0;
};

class RecordStore {
 public:
  using Entry = std::pair<RecordKey, Record>;
  /// Entries per leaf. An ascending load fills leaves completely; a leaf
  /// that overflows anywhere else splits in half.
  static constexpr size_t kLeafCapacity = 128;

  /// Key-order iterator over the resident records.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Entry;
    using difference_type = std::ptrdiff_t;
    using pointer = const Entry*;
    using reference = const Entry&;

    const_iterator() = default;
    reference operator*() const { return (*leaves_)[leaf_][slot_]; }
    pointer operator->() const { return &(*leaves_)[leaf_][slot_]; }
    const_iterator& operator++() {
      if (++slot_ == (*leaves_)[leaf_].size()) {
        ++leaf_;
        slot_ = 0;
      }
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++*this;
      return old;
    }
    bool operator==(const const_iterator& other) const {
      return leaf_ == other.leaf_ && slot_ == other.slot_;
    }
    bool operator!=(const const_iterator& other) const {
      return !(*this == other);
    }

   private:
    friend class RecordStore;
    const_iterator(const std::vector<std::vector<Entry>>* leaves, size_t leaf,
                   size_t slot)
        : leaves_(leaves), leaf_(leaf), slot_(slot) {}

    const std::vector<std::vector<Entry>>* leaves_ = nullptr;
    size_t leaf_ = 0;
    size_t slot_ = 0;
  };

  std::optional<Record> Get(const RecordKey& key) const;

  /// Inserts or overwrites a record: replicated writes, undo restores and
  /// bulk loads all land here. Missing keys are created (YCSB/TPC-C only
  /// update pre-loaded keys, but inserts — e.g. TPC-C NewOrder rows —
  /// land here too).
  void Apply(const RecordKey& key, int64_t value) { Slot(key).value = value; }

  /// The record for `key`, created with value 0 when absent (a missing key
  /// reads 0 everywhere): a read-modify-write in one lookup. The reference
  /// is valid until the next insert.
  Record& Slot(const RecordKey& key);

  size_t size() const { return size_; }

  /// All resident records in key order, for snapshot transfer and store
  /// comparisons. Keys never written are absent and read as 0 on every
  /// node, so a snapshot of residents is complete.
  const RecordStore& records() const { return *this; }
  const_iterator begin() const { return const_iterator(&leaves_, 0, 0); }
  const_iterator end() const {
    return const_iterator(&leaves_, leaves_.size(), 0);
  }

  /// First resident record with a key >= `key` (end() if none).
  const_iterator LowerBound(const RecordKey& key) const;

  /// Bytes the layout reserves for records and its leaf index (memory
  /// proxy, Fig. 6b).
  size_t ApproxBytes() const;

 private:
  using Leaf = std::vector<Entry>;

  /// Index of the leaf whose key range holds `key` (0 when `key` sorts
  /// before every leaf). Requires a non-empty store.
  size_t LeafFor(const RecordKey& key) const;
  /// Position of the first entry of `leaf` with a key >= `key`.
  static size_t SlotIn(const Leaf& leaf, const RecordKey& key);

  std::vector<Leaf> leaves_;
  std::vector<RecordKey> first_keys_;  ///< first_keys_[i] == leaves_[i][0].first
  size_t size_ = 0;
};

}  // namespace storage
}  // namespace geotp

#endif  // GEOTP_STORAGE_RECORD_STORE_H_
