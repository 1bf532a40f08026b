#include "storage/record_store.h"

#include <iterator>

namespace geotp {
namespace storage {

namespace {

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

}  // namespace

size_t RecordStore::LeafFor(const RecordKey& key) const {
  const size_t after = PartitionPoint(
      first_keys_.data(), first_keys_.size(),
      [&key](const RecordKey& first) { return !KeyBefore(key, first); });
  return after == 0 ? 0 : after - 1;
}

size_t RecordStore::SlotIn(const Leaf& leaf, const RecordKey& key) {
  return PartitionPoint(
      leaf.data(), leaf.size(),
      [&key](const Entry& entry) { return KeyBefore(entry.first, key); });
}

std::optional<Record> RecordStore::Get(const RecordKey& key) const {
  if (leaves_.empty()) return std::nullopt;
  const Leaf& leaf = leaves_[LeafFor(key)];
  const size_t slot = SlotIn(leaf, key);
  if (slot == leaf.size() || !(leaf[slot].first == key)) return std::nullopt;
  return leaf[slot].second;
}

Record& RecordStore::Slot(const RecordKey& key) {
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
    pos = SlotIn(leaves_[index], key);
    if (pos < leaves_[index].size() && leaves_[index][pos].first == key) {
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
      first_keys_.insert(
          first_keys_.begin() + static_cast<ptrdiff_t>(index) + 1,
          upper.front().first);
      leaves_.insert(leaves_.begin() + static_cast<ptrdiff_t>(index) + 1,
                     std::move(upper));
      if (pos >= kHalf) {
        ++index;
        pos -= kHalf;
      }
    }
  }
  Leaf& leaf = leaves_[index];
  const auto it = leaf.insert(leaf.begin() + static_cast<ptrdiff_t>(pos),
                              Entry{key, Record{}});
  if (pos == 0) first_keys_[index] = key;
  ++size_;
  return it->second;
}

RecordStore::const_iterator RecordStore::LowerBound(
    const RecordKey& key) const {
  if (leaves_.empty()) return end();
  size_t index = LeafFor(key);
  size_t slot = SlotIn(leaves_[index], key);
  if (slot == leaves_[index].size()) {
    ++index;
    slot = 0;
  }
  return const_iterator(&leaves_, index, slot);
}

size_t RecordStore::ApproxBytes() const {
  // Every leaf reserves kLeafCapacity entries up front.
  return leaves_.size() * (kLeafCapacity * sizeof(Entry) + sizeof(Leaf)) +
         first_keys_.size() * sizeof(RecordKey);
}

}  // namespace storage
}  // namespace geotp
