// LeafMap: an ordered map from RecordKey to V, for point and range access
// in O(log n). The record store and the hotspot footprint both keep their
// per-record state in it.
//
// Layout: a sorted vector of sorted leaves, each a std::vector<Entry> that
// reserves kLeafCapacity entries when it is opened, plus a parallel vector
// of each leaf's first key. A lookup is two binary searches, over the first
// keys for the leaf and then inside the leaf. Both are branch-free (the key
// compares as one 128-bit integer) and prefetch the next probe's two
// candidates.
//
// Inserts: a key past every resident key lands at the end of the last
// leaf, and opens a new leaf when that one is full, so an ascending load
// leaves every leaf full. An insert into any other full leaf splits it in
// half. Erases: a leaf that becomes empty is removed, and a leaf that
// shrinks absorbs the next leaf when both together hold at most half a
// leaf, so erase churn does not leave many sparse leaves behind. No leaf is
// ever empty.
#ifndef GEOTP_COMMON_LEAF_MAP_H_
#define GEOTP_COMMON_LEAF_MAP_H_

#include <cstddef>
#include <iterator>
#include <utility>
#include <vector>

#include "common/types.h"

namespace geotp {

namespace leaf_map_internal {

/// RecordKey order as one integer, so a comparison is branch-free:
/// lookups probe random keys, and the branches of a binary search would
/// mispredict half the time.
__extension__ using KeyOrder = unsigned __int128;

inline KeyOrder OrderOf(const RecordKey& key) {
  return (static_cast<KeyOrder>(key.table) << 64) | key.key;
}

inline bool KeyBefore(const RecordKey& a, const RecordKey& b) {
  return OrderOf(a) < OrderOf(b);
}

/// First index in data[0, n) where `before` is false (n if none);
/// `before` holds on a prefix. Branchless halving: the probe position is
/// a conditional move, and both candidates for the next probe are
/// prefetched while this one resolves.
template <typename T, typename Before>
size_t PartitionPoint(const T* data, size_t n, Before before) {
  if (n == 0) return 0;
  size_t base = 0;
  while (n > 1) {
    const size_t half = n / 2;
    __builtin_prefetch(data + base + half / 2);
    __builtin_prefetch(data + base + half + half / 2);
    base = before(data[base + half]) ? base + half : base;
    n -= half;
  }
  return base + (before(data[base]) ? 1 : 0);
}

}  // namespace leaf_map_internal

template <typename V>
class LeafMap {
 public:
  using Entry = std::pair<RecordKey, V>;
  /// Entries per leaf.
  static constexpr size_t kLeafCapacity = 128;

  /// Key-order iterator over the entries.
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
    friend class LeafMap;
    const_iterator(const std::vector<std::vector<Entry>>* leaves, size_t leaf,
                   size_t slot)
        : leaves_(leaves), leaf_(leaf), slot_(slot) {}

    const std::vector<std::vector<Entry>>* leaves_ = nullptr;
    size_t leaf_ = 0;
    size_t slot_ = 0;
  };

  /// The value stored under `key`, or nullptr.
  const V* Find(const RecordKey& key) const {
    if (leaves_.empty()) return nullptr;
    const Leaf& leaf = leaves_[LeafFor(key)];
    const size_t pos = PosIn(leaf, key);
    if (pos == leaf.size() || !(leaf[pos].first == key)) return nullptr;
    return &leaf[pos].second;
  }

  /// The value stored under `key`, value-initialized when absent: a
  /// read-modify-write in one lookup. `*inserted` (when given) tells which.
  /// The reference is valid until the next insert or erase.
  V& Slot(const RecordKey& key, bool* inserted = nullptr) {
    using leaf_map_internal::KeyBefore;
    size_t index = 0;
    size_t pos = 0;
    if (leaves_.empty()) {
      leaves_.emplace_back().reserve(kLeafCapacity);
      first_keys_.push_back(key);
    } else if (KeyBefore(leaves_.back().back().first, key)) {
      // Past every resident key (an ascending load): no search.
      index = leaves_.size() - 1;
      pos = leaves_[index].size();
    } else {
      index = LeafFor(key);
      pos = PosIn(leaves_[index], key);
      if (pos < leaves_[index].size() && leaves_[index][pos].first == key) {
        if (inserted != nullptr) *inserted = false;
        return leaves_[index][pos].second;
      }
    }
    if (leaves_[index].size() == kLeafCapacity) {
      if (index + 1 == leaves_.size() && pos == kLeafCapacity) {
        // Appending past the end: open a fresh leaf so ascending loads
        // leave every leaf full.
        ++index;
        pos = 0;
        leaves_.emplace_back().reserve(kLeafCapacity);
        first_keys_.push_back(key);
      } else {
        constexpr size_t kHalf = kLeafCapacity / 2;
        Leaf upper;
        upper.reserve(kLeafCapacity);
        Leaf& lower = leaves_[index];
        upper.assign(std::make_move_iterator(lower.begin() + kHalf),
                     std::make_move_iterator(lower.end()));
        lower.resize(kHalf);
        first_keys_.insert(first_keys_.begin() + Offset(index + 1),
                           upper.front().first);
        leaves_.insert(leaves_.begin() + Offset(index + 1), std::move(upper));
        if (pos >= kHalf) {
          ++index;
          pos -= kHalf;
        }
      }
    }
    Leaf& leaf = leaves_[index];
    const auto it = leaf.insert(leaf.begin() + Offset(pos), Entry{key, V{}});
    if (pos == 0) first_keys_[index] = key;
    ++size_;
    if (inserted != nullptr) *inserted = true;
    return it->second;
  }

  /// Removes `key`; false when it was absent.
  bool Erase(const RecordKey& key) {
    if (leaves_.empty()) return false;
    const size_t index = LeafFor(key);
    Leaf& leaf = leaves_[index];
    const size_t pos = PosIn(leaf, key);
    if (pos == leaf.size() || !(leaf[pos].first == key)) return false;
    leaf.erase(leaf.begin() + Offset(pos));
    --size_;
    if (leaf.empty()) {
      leaves_.erase(leaves_.begin() + Offset(index));
      first_keys_.erase(first_keys_.begin() + Offset(index));
      return true;
    }
    if (pos == 0) first_keys_[index] = leaf.front().first;
    if (index + 1 < leaves_.size() &&
        leaf.size() + leaves_[index + 1].size() <= kLeafCapacity / 2) {
      Leaf& next = leaves_[index + 1];
      leaf.insert(leaf.end(), std::make_move_iterator(next.begin()),
                  std::make_move_iterator(next.end()));
      leaves_.erase(leaves_.begin() + Offset(index + 1));
      first_keys_.erase(first_keys_.begin() + Offset(index + 1));
    }
    return true;
  }

  /// First entry with a key >= `key` (end() if none).
  const_iterator LowerBound(const RecordKey& key) const {
    if (leaves_.empty()) return end();
    size_t index = LeafFor(key);
    size_t pos = PosIn(leaves_[index], key);
    if (pos == leaves_[index].size()) {
      ++index;
      pos = 0;
    }
    return const_iterator(&leaves_, index, pos);
  }

  const_iterator begin() const { return const_iterator(&leaves_, 0, 0); }
  const_iterator end() const {
    return const_iterator(&leaves_, leaves_.size(), 0);
  }

  size_t size() const { return size_; }

  /// Bytes the layout reserves: full-capacity leaves plus the first-key
  /// index, not a per-entry estimate.
  size_t ApproxBytes() const {
    return leaves_.size() * (kLeafCapacity * sizeof(Entry) + sizeof(Leaf)) +
           first_keys_.size() * sizeof(RecordKey);
  }

 private:
  using Leaf = std::vector<Entry>;

  static std::ptrdiff_t Offset(size_t i) {
    return static_cast<std::ptrdiff_t>(i);
  }

  /// Index of the leaf whose key range holds `key` (0 when `key` sorts
  /// before every leaf). Requires a non-empty map.
  size_t LeafFor(const RecordKey& key) const {
    const size_t after = leaf_map_internal::PartitionPoint(
        first_keys_.data(), first_keys_.size(),
        [&key](const RecordKey& first) {
          return !leaf_map_internal::KeyBefore(key, first);
        });
    return after == 0 ? 0 : after - 1;
  }

  /// Position of the first entry of `leaf` with a key >= `key`.
  static size_t PosIn(const Leaf& leaf, const RecordKey& key) {
    return leaf_map_internal::PartitionPoint(
        leaf.data(), leaf.size(), [&key](const Entry& entry) {
          return leaf_map_internal::KeyBefore(entry.first, key);
        });
  }

  std::vector<Leaf> leaves_;
  std::vector<RecordKey> first_keys_;  ///< first_keys_[i] == leaves_[i][0].first
  size_t size_ = 0;
};

}  // namespace geotp

#endif  // GEOTP_COMMON_LEAF_MAP_H_
