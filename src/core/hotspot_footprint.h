// HotspotFootprint: per-record runtime statistics for the high-contention
// optimizations (paper §IV-C, "Hotspot statistics collecting").
//
// For each hot record r it maintains the paper's four fields:
//   w_lat_r  — weighted average latency of subtransactions touching r
//   t_cnt_r  — total transactions that accessed r
//   c_cnt_r  — committed transactions that accessed r
//   a_cnt_r  — transactions currently accessing r
//
// The paper keeps these records in an AVL tree with LRU eviction. Here
// the ordered index is the repo's one ordered map, common/leaf_map.h
// (sorted leaves under a first-key index), mapping each key to a slot in
// a slab of stats. A lookup is two binary searches, one over the leaves'
// first keys and one inside a leaf, and a range scan walks the leaves in
// key order, so point and range access stay O(log n) as §IV-C requires.
// The LRU is an index list threaded through the slab: touching a tracked
// record moves no structure, and evicting one frees its slot for reuse.
// A dispatch charges each record it touches (a_cnt++) and gets back the
// record's slot. Eviction skips records with a_cnt > 0, so a charged slot
// keeps its key until the charge is settled, and completion and release
// address the slot directly instead of searching the index again.
// w_lat updates follow Eq. 4: the measured local execution latency
// LEL(Tij) of a subtransaction is split across the records it touched
// proportionally to their current w_lat, then folded in with coefficient
// alpha.
#ifndef GEOTP_CORE_HOTSPOT_FOOTPRINT_H_
#define GEOTP_CORE_HOTSPOT_FOOTPRINT_H_

#include <cstdint>
#include <vector>

#include "common/leaf_map.h"
#include "common/types.h"

namespace geotp {
namespace core {

struct FootprintConfig {
  /// Maximum tracked records; beyond it the LRU tail is evicted.
  size_t capacity = 100000;
  /// Weighted-update coefficient alpha in Eq. 4 (history weight).
  double alpha = 0.7;
  /// Initial w_lat for a record first seen (us). A small value so cold
  /// records contribute little to forecasts until measured.
  double initial_w_lat = 100.0;
};

struct RecordStats {
  double w_lat = 0.0;   ///< us
  uint64_t t_cnt = 0;
  uint64_t c_cnt = 0;
  int64_t a_cnt = 0;

  /// Probability that one queued transaction acquires the lock on this
  /// record without being aborted: c_cnt / t_cnt (1.0 with no history).
  double SuccessRatio() const {
    return t_cnt == 0 ? 1.0
                      : static_cast<double>(c_cnt) /
                            static_cast<double>(t_cnt);
  }
};

/// The slab slot of a charged record (see HotspotFootprint::OnDispatch).
using FootprintSlot = uint32_t;
constexpr FootprintSlot kNoFootprintSlot = UINT32_MAX;

/// A record a dispatch touched, with the slot its charge pinned.
struct ChargedKey {
  RecordKey key;
  FootprintSlot slot = kNoFootprintSlot;
};

class HotspotFootprint {
 public:
  explicit HotspotFootprint(FootprintConfig config = FootprintConfig());

  HotspotFootprint(const HotspotFootprint&) = delete;
  HotspotFootprint& operator=(const HotspotFootprint&) = delete;

  /// Marks the record as being accessed (a_cnt++), tracking it if new.
  /// Called per record when the DM dispatches a subtransaction. The
  /// returned slot stays bound to `key` until this charge is settled by
  /// OnComplete or OnRelease.
  FootprintSlot OnDispatch(const RecordKey& key);

  /// Feedback after a subtransaction finishes: updates w_lat (Eq. 4,
  /// committed only — aborted latencies embed timeout noise), t_cnt,
  /// c_cnt, and releases a_cnt. `charged` is what OnDispatch returned
  /// for each record of the subtransaction.
  void OnComplete(const std::vector<ChargedKey>& charged, Micros measured_lel,
                  bool committed);

  /// Releases a_cnt only (no completion statistics): used when a dispatch
  /// was cancelled or the transaction settled before its response arrived,
  /// i.e. no lock acquisition outcome was observed.
  void OnRelease(const std::vector<ChargedKey>& charged);

  /// Appends the stats of each of `keys` to `out`, in order (nullptr for
  /// an untracked key): one index search per key, which Eq. 5 and Eq. 9
  /// then share. The pointers are valid until the next OnDispatch.
  void Resolve(const std::vector<RecordKey>& keys,
               std::vector<const RecordStats*>* out) const;

  /// Eq. 5: forecasted local execution latency for a subtransaction whose
  /// records resolved to [first, last) — the sum of tracked w_lat values.
  static Micros ForecastLel(const RecordStats* const* first,
                            const RecordStats* const* last);

  /// Eq. 9: predicted abort probability for a transaction whose records
  /// resolved to [first, last): 1 - prod (c/t)^max(a-1, 0).
  static double AbortProbability(const RecordStats* const* first,
                                 const RecordStats* const* last);

  /// Point lookup (nullptr if not tracked). Does not touch LRU order. The
  /// pointer is valid until the next record is inserted.
  const RecordStats* Lookup(const RecordKey& key) const;

  /// Ordered range scan [lo, hi] — the paper keeps hot records ordered
  /// precisely to support predicate (range) estimation in O(log n).
  std::vector<std::pair<RecordKey, RecordStats>> Range(
      const RecordKey& lo, const RecordKey& hi) const;

  /// Sum of t_cnt over the tracked records in [lo, hi], read in place
  /// (the ShardBalancer's per-range heat).
  uint64_t HeatSum(const RecordKey& lo, const RecordKey& hi) const;

  /// Access-heat histogram over [lo, hi]: t_cnt totals in `buckets`
  /// equal-width buckets spanning the OBSERVED key extent (not the
  /// nominal range — a table's last shard chunk is open-ended). The
  /// ShardBalancer reads this to detect skew-within-chunk and split the
  /// hot sub-range out.
  struct HeatHistogram {
    uint64_t extent_lo = 0;  ///< smallest tracked key in range
    uint64_t extent_hi = 0;  ///< largest tracked key in range
    uint64_t bucket_width = 1;
    uint64_t total = 0;      ///< sum of all buckets
    std::vector<uint64_t> buckets;
    bool empty() const { return buckets.empty(); }
  };
  HeatHistogram Histogram(const RecordKey& lo, const RecordKey& hi,
                          size_t buckets) const;

  size_t size() const { return index_.size(); }
  uint64_t evictions() const { return evictions_; }

  /// Bytes the layout reserves: the index's leaves plus the slab (memory
  /// proxy for Fig. 6b).
  size_t ApproxBytes() const;

  /// Validates that the index, the slab and the LRU list agree; test hook.
  bool CheckInvariants() const;

 private:
  static constexpr uint32_t kNil = UINT32_MAX;

  /// One tracked record. Free slots chain through `lru_next`.
  struct SlabEntry {
    RecordKey key;
    RecordStats stats;
    uint32_t lru_prev = kNil;
    uint32_t lru_next = kNil;
  };

  /// Finds or inserts (possibly evicting another record); returns the slot.
  uint32_t Touch(const RecordKey& key);
  /// The entry of a charged record; checks that the slot still holds its
  /// key and an unsettled charge.
  SlabEntry& Charged(const ChargedKey& charged);

  // LRU primitives (index list over the slab; head = most recent).
  void LruPushFront(uint32_t slot);
  void LruUnlink(uint32_t slot);
  void EvictIfNeeded();

  FootprintConfig config_;
  LeafMap<uint32_t> index_;  ///< key -> slot in slab_
  std::vector<SlabEntry> slab_;
  uint32_t free_head_ = kNil;
  uint32_t lru_head_ = kNil;
  uint32_t lru_tail_ = kNil;
  uint64_t evictions_ = 0;
};

}  // namespace core
}  // namespace geotp

#endif  // GEOTP_CORE_HOTSPOT_FOOTPRINT_H_
