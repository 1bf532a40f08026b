#include "core/hotspot_footprint.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace geotp {
namespace core {

HotspotFootprint::HotspotFootprint(FootprintConfig config)
    : config_(config) {
  GEOTP_CHECK(config_.capacity > 0, "capacity must be positive");
}

// ---------------------------------------------------------------------------
// LRU primitives
// ---------------------------------------------------------------------------

void HotspotFootprint::LruPushFront(uint32_t slot) {
  slab_[slot].lru_prev = kNil;
  slab_[slot].lru_next = lru_head_;
  if (lru_head_ != kNil) slab_[lru_head_].lru_prev = slot;
  lru_head_ = slot;
  if (lru_tail_ == kNil) lru_tail_ = slot;
}

void HotspotFootprint::LruUnlink(uint32_t slot) {
  const uint32_t prev = slab_[slot].lru_prev;
  const uint32_t next = slab_[slot].lru_next;
  (prev != kNil ? slab_[prev].lru_next : lru_head_) = next;
  (next != kNil ? slab_[next].lru_prev : lru_tail_) = prev;
}

void HotspotFootprint::EvictIfNeeded() {
  while (index_.size() > config_.capacity && lru_tail_ != kNil) {
    // Do not evict records with transactions in flight (their a_cnt would
    // be lost and Eq. 9 would undercount the queue), nor the LRU head —
    // it is the record being touched right now.
    uint32_t victim = lru_tail_;
    while (victim != kNil &&
           (slab_[victim].stats.a_cnt > 0 || victim == lru_head_)) {
      victim = slab_[victim].lru_prev;
    }
    if (victim == kNil) return;  // everything busy; allow soft overflow
    LruUnlink(victim);
    index_.Erase(slab_[victim].key);
    slab_[victim].lru_next = free_head_;
    free_head_ = victim;
    ++evictions_;
  }
}

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

uint32_t HotspotFootprint::Touch(const RecordKey& key) {
  bool inserted = false;
  uint32_t& indexed = index_.Slot(key, &inserted);
  if (!inserted) {
    LruUnlink(indexed);
    LruPushFront(indexed);
    return indexed;
  }
  uint32_t slot = free_head_;
  if (slot != kNil) {
    free_head_ = slab_[slot].lru_next;
  } else {
    // One block for the configured capacity, plus the record inserted just
    // before an eviction: growing by doubling would copy the slab and leave
    // each old block behind as a heap hole.
    if (slab_.empty()) slab_.reserve(config_.capacity + 1);
    slot = static_cast<uint32_t>(slab_.size());
    slab_.emplace_back();
  }
  indexed = slot;
  slab_[slot].key = key;
  slab_[slot].stats = RecordStats{config_.initial_w_lat};
  LruPushFront(slot);
  // Slots never move, so `slot` still names this record afterwards: the
  // head is never evicted.
  EvictIfNeeded();
  return slot;
}

HotspotFootprint::SlabEntry& HotspotFootprint::Charged(
    const ChargedKey& charged) {
  GEOTP_CHECK(charged.slot < slab_.size() &&
                  slab_[charged.slot].key == charged.key &&
                  slab_[charged.slot].stats.a_cnt > 0,
              "footprint slot " << charged.slot << " lost its charge on "
                                << charged.key.ToString());
  return slab_[charged.slot];
}

FootprintSlot HotspotFootprint::OnDispatch(const RecordKey& key) {
  const uint32_t slot = Touch(key);
  slab_[slot].stats.a_cnt++;
  return slot;
}

void HotspotFootprint::OnComplete(const std::vector<ChargedKey>& charged,
                                  Micros measured_lel, bool committed) {
  if (charged.empty()) return;
  // Eq. 4 weights: w_r = w_lat_r / sum of w_lat over the accessed records.
  double w_sum = 0.0;
  for (const ChargedKey& record : charged) {
    w_sum += Charged(record).stats.w_lat;
  }
  if (w_sum <= 0.0) w_sum = 1.0;

  for (const ChargedKey& record : charged) {
    SlabEntry& entry = Charged(record);
    // Completion counts as a touch: the record moves to the LRU head.
    LruUnlink(record.slot);
    LruPushFront(record.slot);
    RecordStats& stats = entry.stats;
    if (committed) {
      const double weight = stats.w_lat > 0.0 ? stats.w_lat / w_sum
                                              : 1.0 / charged.size();
      const double contribution =
          static_cast<double>(measured_lel) * weight;
      stats.w_lat = config_.alpha * stats.w_lat +
                    (1.0 - config_.alpha) * contribution;
    }
    stats.t_cnt++;
    if (committed) stats.c_cnt++;
    stats.a_cnt--;
  }
}

void HotspotFootprint::OnRelease(const std::vector<ChargedKey>& charged) {
  for (const ChargedKey& record : charged) Charged(record).stats.a_cnt--;
}

void HotspotFootprint::Resolve(const std::vector<RecordKey>& keys,
                               std::vector<const RecordStats*>* out) const {
  for (const RecordKey& key : keys) out->push_back(Lookup(key));
}

Micros HotspotFootprint::ForecastLel(const RecordStats* const* first,
                                     const RecordStats* const* last) {
  double total = 0.0;
  for (; first != last; ++first) {
    if (*first != nullptr) total += (*first)->w_lat;
  }
  return static_cast<Micros>(total);
}

double HotspotFootprint::AbortProbability(const RecordStats* const* first,
                                          const RecordStats* const* last) {
  double success = 1.0;
  for (; first != last; ++first) {
    const RecordStats* stats = *first;
    if (stats == nullptr) continue;
    const auto queue_len =
        static_cast<double>(std::max<int64_t>(stats->a_cnt - 1, 0));
    if (queue_len <= 0.0) continue;
    success *= std::pow(stats->SuccessRatio(), queue_len);
  }
  return 1.0 - success;
}

const RecordStats* HotspotFootprint::Lookup(const RecordKey& key) const {
  const uint32_t* slot = index_.Find(key);
  return slot == nullptr ? nullptr : &slab_[*slot].stats;
}

std::vector<std::pair<RecordKey, RecordStats>> HotspotFootprint::Range(
    const RecordKey& lo, const RecordKey& hi) const {
  std::vector<std::pair<RecordKey, RecordStats>> out;
  for (auto it = index_.LowerBound(lo);
       it != index_.end() && !(hi < it->first); ++it) {
    out.emplace_back(it->first, slab_[it->second].stats);
  }
  return out;
}

uint64_t HotspotFootprint::HeatSum(const RecordKey& lo,
                                   const RecordKey& hi) const {
  uint64_t total = 0;
  for (auto it = index_.LowerBound(lo);
       it != index_.end() && !(hi < it->first); ++it) {
    total += slab_[it->second].stats.t_cnt;
  }
  return total;
}

HotspotFootprint::HeatHistogram HotspotFootprint::Histogram(
    const RecordKey& lo, const RecordKey& hi, size_t buckets) const {
  HeatHistogram hist;
  if (buckets == 0) return hist;
  const auto first = index_.LowerBound(lo);
  const auto in_range = [&hi, this](LeafMap<uint32_t>::const_iterator it) {
    return it != index_.end() && !(hi < it->first);
  };
  if (!in_range(first)) return hist;
  // Two walks of the range in place: the extent, then the buckets.
  hist.extent_lo = first->first.key;
  for (auto it = first; in_range(it); ++it) hist.extent_hi = it->first.key;
  hist.bucket_width = (hist.extent_hi - hist.extent_lo) / buckets + 1;
  hist.buckets.assign(buckets, 0);
  for (auto it = first; in_range(it); ++it) {
    const uint64_t t_cnt = slab_[it->second].stats.t_cnt;
    const size_t b = std::min<uint64_t>(
        (it->first.key - hist.extent_lo) / hist.bucket_width, buckets - 1);
    hist.buckets[b] += t_cnt;
    hist.total += t_cnt;
  }
  return hist;
}

size_t HotspotFootprint::ApproxBytes() const {
  return index_.ApproxBytes() + slab_.capacity() * sizeof(SlabEntry);
}

bool HotspotFootprint::CheckInvariants() const {
  // Every indexed key names a slot that holds that key, in key order.
  const RecordKey* previous = nullptr;
  for (const auto& [key, slot] : index_) {
    if (previous != nullptr && !(*previous < key)) return false;
    if (slot >= slab_.size() || !(slab_[slot].key == key)) return false;
    previous = &key;
  }
  // The LRU list links exactly the indexed slots, in both directions.
  size_t lru_count = 0;
  uint32_t prev = kNil;
  for (uint32_t slot = lru_head_; slot != kNil; slot = slab_[slot].lru_next) {
    if (++lru_count > index_.size() || slab_[slot].lru_prev != prev) {
      return false;
    }
    const uint32_t* indexed = index_.Find(slab_[slot].key);
    if (indexed == nullptr || *indexed != slot) return false;
    prev = slot;
  }
  if (lru_count != index_.size() || lru_tail_ != prev) return false;
  // Every other slot is on the free list.
  size_t free_count = 0;
  for (uint32_t slot = free_head_; slot != kNil; slot = slab_[slot].lru_next) {
    if (++free_count > slab_.size()) return false;
  }
  return lru_count + free_count == slab_.size();
}

}  // namespace core
}  // namespace geotp
