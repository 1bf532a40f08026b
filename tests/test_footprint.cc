// Tests for the hotspot footprint: ordered index + LRU structure, Eq. 4
// w_lat updates, Eq. 5 forecasts and Eq. 9 abort probability, randomized
// structural property tests, and a seeded replay against a std::map +
// std::list reference model of the same LRU eviction rule.
#include "core/hotspot_footprint.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <list>
#include <map>
#include <string>

#include <gtest/gtest.h>

#include "common/random.h"

namespace geotp {
namespace core {
namespace {

RecordKey K(uint64_t k) { return RecordKey{1, k}; }
std::vector<RecordKey> Keys(std::initializer_list<uint64_t> ks) {
  std::vector<RecordKey> out;
  for (uint64_t k : ks) out.push_back(K(k));
  return out;
}

/// Charges one dispatch of `keys`, as the DM does per subtransaction.
std::vector<ChargedKey> Dispatch(HotspotFootprint& fp,
                                 const std::vector<RecordKey>& keys) {
  std::vector<ChargedKey> charged;
  for (const RecordKey& key : keys) {
    charged.push_back({key, fp.OnDispatch(key)});
  }
  return charged;
}

/// Dispatch + completion of one subtransaction.
void RunSubtxn(HotspotFootprint& fp, const std::vector<RecordKey>& keys,
               Micros measured_lel, bool committed) {
  fp.OnComplete(Dispatch(fp, keys), measured_lel, committed);
}

std::vector<const RecordStats*> Resolved(const HotspotFootprint& fp,
                                         const std::vector<RecordKey>& keys) {
  std::vector<const RecordStats*> stats;
  fp.Resolve(keys, &stats);
  return stats;
}

/// Eq. 5 over `keys`.
Micros Forecast(const HotspotFootprint& fp,
                const std::vector<RecordKey>& keys) {
  const auto stats = Resolved(fp, keys);
  return HotspotFootprint::ForecastLel(stats.data(),
                                       stats.data() + stats.size());
}

/// Eq. 9 over `keys`.
double AbortProb(const HotspotFootprint& fp,
                 const std::vector<RecordKey>& keys) {
  const auto stats = Resolved(fp, keys);
  return HotspotFootprint::AbortProbability(stats.data(),
                                            stats.data() + stats.size());
}

TEST(FootprintTest, DispatchTracksActiveCount) {
  HotspotFootprint fp;
  Dispatch(fp, Keys({1, 2}));
  EXPECT_EQ(fp.Lookup(K(1))->a_cnt, 1);
  const auto second = Dispatch(fp, Keys({1}));
  EXPECT_EQ(fp.Lookup(K(1))->a_cnt, 2);
  fp.OnComplete(second, 1000, true);
  EXPECT_EQ(fp.Lookup(K(1))->a_cnt, 1);
}

TEST(FootprintTest, CompleteUpdatesCounters) {
  HotspotFootprint fp;
  RunSubtxn(fp, Keys({1}), 1000, true);
  const RecordStats* stats = fp.Lookup(K(1));
  EXPECT_EQ(stats->t_cnt, 1u);
  EXPECT_EQ(stats->c_cnt, 1u);
  RunSubtxn(fp, Keys({1}), 1000, false);
  EXPECT_EQ(stats->t_cnt, 2u);
  EXPECT_EQ(stats->c_cnt, 1u);
  EXPECT_DOUBLE_EQ(stats->SuccessRatio(), 0.5);
}

TEST(FootprintTest, WLatConvergesTowardMeasurement) {
  FootprintConfig config;
  config.alpha = 0.5;
  HotspotFootprint fp(config);
  // Single-key subtransactions: the weight w_r is 1, so w_lat converges
  // toward the measured LEL.
  for (int i = 0; i < 40; ++i) RunSubtxn(fp, Keys({1}), 10000, true);
  EXPECT_NEAR(fp.Lookup(K(1))->w_lat, 10000.0, 500.0);
}

TEST(FootprintTest, AbortedCompletionsDoNotMoveWLat) {
  HotspotFootprint fp;
  RunSubtxn(fp, Keys({1}), 500, true);
  const double w = fp.Lookup(K(1))->w_lat;
  RunSubtxn(fp, Keys({1}), 999999, false);
  EXPECT_DOUBLE_EQ(fp.Lookup(K(1))->w_lat, w);
}

TEST(FootprintTest, ForecastSumsTrackedKeys) {
  HotspotFootprint fp;
  for (int i = 0; i < 30; ++i) {
    RunSubtxn(fp, Keys({1}), 4000, true);
    RunSubtxn(fp, Keys({2}), 2000, true);
  }
  const Micros forecast = Forecast(fp, Keys({1, 2}));
  EXPECT_NEAR(static_cast<double>(forecast), 6000.0, 600.0);
  // Untracked keys contribute nothing.
  EXPECT_EQ(Forecast(fp, Keys({99})), 0);
}

TEST(FootprintTest, AbortProbabilityMatchesEquation9) {
  HotspotFootprint fp;
  // Build history: 10 accesses, 5 committed -> success ratio 0.5.
  for (int i = 0; i < 10; ++i) RunSubtxn(fp, Keys({1}), 100, i < 5);
  // Queue depth: 3 concurrent accessors -> exponent max(3-1, 0) = 2.
  Dispatch(fp, Keys({1}));
  Dispatch(fp, Keys({1}));
  Dispatch(fp, Keys({1}));
  EXPECT_NEAR(AbortProb(fp, Keys({1})), 1.0 - std::pow(0.5, 2), 1e-9);
}

TEST(FootprintTest, AbortProbabilityZeroWhenIdle) {
  HotspotFootprint fp;
  for (int i = 0; i < 10; ++i) {
    RunSubtxn(fp, Keys({1}), 100, false);  // terrible history
  }
  // No concurrent accessors -> exponent 0 -> never blocked.
  EXPECT_DOUBLE_EQ(AbortProb(fp, Keys({1})), 0.0);
}

TEST(FootprintTest, AbortProbabilityMultipliesAcrossKeys) {
  HotspotFootprint fp;
  for (uint64_t k : {1u, 2u}) {
    for (int i = 0; i < 10; ++i) RunSubtxn(fp, Keys({k}), 100, i < 5);
    Dispatch(fp, Keys({k}));
    Dispatch(fp, Keys({k}));  // a_cnt = 2 -> exponent 1
  }
  EXPECT_NEAR(AbortProb(fp, Keys({1, 2})), 1.0 - 0.25, 1e-9);
}

TEST(FootprintTest, OnReleaseOnlyDropsActiveCount) {
  HotspotFootprint fp;
  fp.OnRelease(Dispatch(fp, Keys({1})));
  const RecordStats* stats = fp.Lookup(K(1));
  EXPECT_EQ(stats->a_cnt, 0);
  EXPECT_EQ(stats->t_cnt, 0u);
}

TEST(FootprintTest, LruEvictsColdRecords) {
  FootprintConfig config;
  config.capacity = 100;
  HotspotFootprint fp(config);
  for (uint64_t k = 0; k < 500; ++k) RunSubtxn(fp, Keys({k}), 100, true);
  EXPECT_LE(fp.size(), 100u);
  EXPECT_GT(fp.evictions(), 0u);
  // The most recent keys survive.
  EXPECT_NE(fp.Lookup(K(499)), nullptr);
  EXPECT_EQ(fp.Lookup(K(0)), nullptr);
  EXPECT_TRUE(fp.CheckInvariants());
}

TEST(FootprintTest, BusyRecordsNotEvicted) {
  FootprintConfig config;
  config.capacity = 10;
  HotspotFootprint fp(config);
  Dispatch(fp, Keys({777}));  // a_cnt = 1, never completed
  for (uint64_t k = 0; k < 100; ++k) RunSubtxn(fp, Keys({k}), 100, true);
  ASSERT_NE(fp.Lookup(K(777)), nullptr);
  EXPECT_EQ(fp.Lookup(K(777))->a_cnt, 1);
  EXPECT_TRUE(fp.CheckInvariants());
}

TEST(FootprintTest, RangeScanOrdered) {
  HotspotFootprint fp;
  for (uint64_t k : {50u, 10u, 30u, 20u, 40u}) {
    RunSubtxn(fp, Keys({k}), 100, true);
  }
  auto range = fp.Range(K(15), K(45));
  ASSERT_EQ(range.size(), 3u);
  EXPECT_EQ(range[0].first.key, 20u);
  EXPECT_EQ(range[1].first.key, 30u);
  EXPECT_EQ(range[2].first.key, 40u);
}

TEST(FootprintTest, RangeAcrossTables) {
  HotspotFootprint fp;
  Dispatch(fp, {RecordKey{1, 5}, RecordKey{2, 5}});
  auto range = fp.Range(RecordKey{1, 0}, RecordKey{1, 100});
  ASSERT_EQ(range.size(), 1u);
  EXPECT_EQ(range[0].first.table, 1u);
}

TEST(FootprintPropertyTest, RandomTrafficKeepsInvariants) {
  Rng rng(0xABCD);
  FootprintConfig config;
  config.capacity = 64;
  HotspotFootprint fp(config);
  std::vector<ChargedKey> outstanding;
  for (int step = 0; step < 30000; ++step) {
    const double action = rng.NextDouble();
    if (action < 0.5) {
      std::vector<RecordKey> keys;
      const int n = static_cast<int>(rng.NextU64(4)) + 1;
      for (int i = 0; i < n; ++i) keys.push_back(K(rng.NextU64(1000)));
      for (const auto& k : Dispatch(fp, keys)) outstanding.push_back(k);
    } else if (!outstanding.empty()) {
      const size_t idx = rng.NextU64(outstanding.size());
      fp.OnComplete({outstanding[idx]}, rng.NextU64(5000),
                    rng.NextBool(0.8));
      outstanding.erase(outstanding.begin() + static_cast<long>(idx));
    }
    if (step % 1000 == 0) {
      ASSERT_TRUE(fp.CheckInvariants()) << "step " << step;
    }
  }
  EXPECT_TRUE(fp.CheckInvariants());
}

TEST(FootprintPropertyTest, HeavyEvictionChurn) {
  Rng rng(0x1234);
  FootprintConfig config;
  config.capacity = 8;
  HotspotFootprint fp(config);
  for (int step = 0; step < 20000; ++step) {
    const uint64_t k = rng.NextU64(10000);
    RunSubtxn(fp, Keys({k}), 100, true);
    if (step % 500 == 0) {
      ASSERT_TRUE(fp.CheckInvariants());
    }
  }
  EXPECT_LE(fp.size(), 8u);
  EXPECT_GT(fp.evictions(), 10000u);
}

/// The footprint's semantics restated on standard containers: a std::map
/// for the ordered index and a std::list for the LRU (front = most recent).
/// Eviction walks from the LRU tail toward the head, skipping records with
/// a_cnt > 0 and the head itself; when every candidate is skipped the
/// footprint overflows its capacity instead.
class ReferenceFootprint {
 public:
  explicit ReferenceFootprint(FootprintConfig config) : config_(config) {}

  void OnDispatch(const std::vector<RecordKey>& keys) {
    for (const RecordKey& key : keys) Touch(key).a_cnt++;
  }

  void OnComplete(const std::vector<RecordKey>& keys, Micros measured_lel,
                  bool committed) {
    if (keys.empty()) return;
    double w_sum = 0.0;
    for (const RecordKey& key : keys) {
      const RecordStats* stats = Lookup(key);
      w_sum += stats != nullptr ? stats->w_lat : config_.initial_w_lat;
    }
    if (w_sum <= 0.0) w_sum = 1.0;
    for (const RecordKey& key : keys) {
      RecordStats& stats = Touch(key);
      if (committed) {
        const double weight = stats.w_lat > 0.0 ? stats.w_lat / w_sum
                                                : 1.0 / keys.size();
        const double contribution =
            static_cast<double>(measured_lel) * weight;
        stats.w_lat = config_.alpha * stats.w_lat +
                      (1.0 - config_.alpha) * contribution;
      }
      stats.t_cnt++;
      if (committed) stats.c_cnt++;
      if (stats.a_cnt > 0) stats.a_cnt--;
    }
  }

  void OnRelease(const std::vector<RecordKey>& keys) {
    for (const RecordKey& key : keys) {
      auto it = records_.find(key);
      if (it != records_.end() && it->second.stats.a_cnt > 0) {
        it->second.stats.a_cnt--;
      }
    }
  }

  const RecordStats* Lookup(const RecordKey& key) const {
    auto it = records_.find(key);
    return it == records_.end() ? nullptr : &it->second.stats;
  }

  Micros ForecastLel(const std::vector<RecordKey>& keys) const {
    double total = 0.0;
    for (const RecordKey& key : keys) {
      if (const RecordStats* stats = Lookup(key)) total += stats->w_lat;
    }
    return static_cast<Micros>(total);
  }

  double AbortProbability(const std::vector<RecordKey>& keys) const {
    double success = 1.0;
    for (const RecordKey& key : keys) {
      const RecordStats* stats = Lookup(key);
      if (stats == nullptr || stats->a_cnt <= 1) continue;
      success *= std::pow(stats->SuccessRatio(),
                          static_cast<double>(stats->a_cnt - 1));
    }
    return 1.0 - success;
  }

  std::vector<std::pair<RecordKey, RecordStats>> Range(
      const RecordKey& lo, const RecordKey& hi) const {
    std::vector<std::pair<RecordKey, RecordStats>> out;
    for (auto it = records_.lower_bound(lo);
         it != records_.end() && !(hi < it->first); ++it) {
      out.emplace_back(it->first, it->second.stats);
    }
    return out;
  }

  size_t size() const { return records_.size(); }
  uint64_t evictions() const { return evictions_; }

 private:
  struct Entry {
    RecordStats stats;
    std::list<RecordKey>::iterator lru;
  };

  RecordStats& Touch(const RecordKey& key) {
    auto it = records_.find(key);
    if (it != records_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru);
      return it->second.stats;
    }
    lru_.push_front(key);
    Entry& entry = records_[key];
    entry.stats.w_lat = config_.initial_w_lat;
    entry.lru = lru_.begin();
    while (records_.size() > config_.capacity) {
      auto victim = std::prev(lru_.end());
      while (victim != lru_.begin() &&
             records_.at(*victim).stats.a_cnt > 0) {
        --victim;
      }
      if (victim == lru_.begin()) break;  // soft overflow
      records_.erase(*victim);
      lru_.erase(victim);
      ++evictions_;
    }
    return entry.stats;
  }

  FootprintConfig config_;
  std::map<RecordKey, Entry> records_;
  std::list<RecordKey> lru_;
  uint64_t evictions_ = 0;
};

void ExpectSameStats(const RecordStats& got, const RecordStats& want,
                     const RecordKey& key) {
  // Same operations in the same order: the doubles match exactly.
  EXPECT_EQ(got.w_lat, want.w_lat) << key.ToString();
  EXPECT_EQ(got.t_cnt, want.t_cnt) << key.ToString();
  EXPECT_EQ(got.c_cnt, want.c_cnt) << key.ToString();
  EXPECT_EQ(got.a_cnt, want.a_cnt) << key.ToString();
}

void ExpectMatchesReference(const HotspotFootprint& fp,
                            const ReferenceFootprint& ref, Rng& rng,
                            uint64_t key_space) {
  ASSERT_TRUE(fp.CheckInvariants());
  ASSERT_EQ(fp.size(), ref.size());
  ASSERT_EQ(fp.evictions(), ref.evictions());
  const RecordKey first{0, 0};
  const RecordKey last{std::numeric_limits<uint32_t>::max(),
                       std::numeric_limits<uint64_t>::max()};
  const auto got = fp.Range(first, last);
  const auto want = ref.Range(first, last);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].first, want[i].first) << "position " << i;
    ExpectSameStats(got[i].second, want[i].second, got[i].first);
  }
  for (int i = 0; i < 50; ++i) {
    const RecordKey key{static_cast<uint32_t>(1 + rng.NextU64(2)),
                        rng.NextU64(key_space)};
    const RecordStats* got_stats = fp.Lookup(key);
    const RecordStats* want_stats = ref.Lookup(key);
    ASSERT_EQ(got_stats == nullptr, want_stats == nullptr) << key.ToString();
    if (got_stats != nullptr) ExpectSameStats(*got_stats, *want_stats, key);
  }
  // One histogram over a random sub-range of table 1.
  const uint64_t lo = rng.NextU64(key_space);
  const uint64_t hi = lo + rng.NextU64(key_space - lo);
  const size_t buckets = 1 + rng.NextU64(8);
  const auto hist = fp.Histogram(RecordKey{1, lo}, RecordKey{1, hi}, buckets);
  const auto records = ref.Range(RecordKey{1, lo}, RecordKey{1, hi});
  uint64_t heat = 0;
  for (const auto& [key, stats] : records) heat += stats.t_cnt;
  EXPECT_EQ(fp.HeatSum(RecordKey{1, lo}, RecordKey{1, hi}), heat);
  uint64_t all_heat = 0;
  for (const auto& [key, stats] : want) all_heat += stats.t_cnt;
  EXPECT_EQ(fp.HeatSum(first, last), all_heat);
  ASSERT_EQ(hist.empty(), records.empty());
  if (records.empty()) return;
  EXPECT_EQ(hist.extent_lo, records.front().first.key);
  EXPECT_EQ(hist.extent_hi, records.back().first.key);
  std::vector<uint64_t> want_buckets(buckets, 0);
  uint64_t total = 0;
  for (const auto& [key, stats] : records) {
    want_buckets[std::min<uint64_t>((key.key - hist.extent_lo) /
                                        hist.bucket_width,
                                    buckets - 1)] += stats.t_cnt;
    total += stats.t_cnt;
  }
  EXPECT_EQ(hist.buckets, want_buckets);
  EXPECT_EQ(hist.total, total);
}

// Seeded traces of dispatches, completions (committed or not, several keys
// at once) and releases over two tables, at capacities from "almost every
// touch evicts" to "the index spans many leaves".
TEST(FootprintPropertyTest, MatchesStdMapLruReference) {
  struct Shape {
    size_t capacity;
    uint64_t key_space;
  };
  for (const Shape shape : {Shape{8, 100}, Shape{64, 1000},
                            Shape{600, 4000}}) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE("capacity " + std::to_string(shape.capacity) + " seed " +
                   std::to_string(seed));
      Rng rng(seed * 7919 + shape.capacity);
      FootprintConfig config;
      config.capacity = shape.capacity;
      HotspotFootprint fp(config);
      ReferenceFootprint ref(config);
      // Each in-flight dispatch: its keys (for the reference) and its
      // charges (for the footprint).
      std::vector<std::pair<std::vector<RecordKey>, std::vector<ChargedKey>>>
          outstanding;
      size_t max_size = 0;
      for (int step = 1; step <= 12000; ++step) {
        const double action = rng.NextDouble();
        // Every other phase lets the in-flight set grow past the capacity,
        // so eviction has to skip busy records and overflow softly.
        const bool filling = (step / 3000) % 2 == 1;
        const double dispatch = filling ? 0.65 : 0.5;
        const size_t max_outstanding =
            filling ? shape.capacity : shape.capacity / 4;
        if (action < dispatch && outstanding.size() <= max_outstanding) {
          std::vector<RecordKey> keys;
          const int n = static_cast<int>(rng.NextU64(5)) + 1;
          for (int i = 0; i < n; ++i) {
            keys.push_back(RecordKey{static_cast<uint32_t>(1 + rng.NextU64(2)),
                                     rng.NextU64(shape.key_space)});
          }
          auto charged = Dispatch(fp, keys);
          ref.OnDispatch(keys);
          outstanding.emplace_back(std::move(keys), std::move(charged));
        } else if (!outstanding.empty()) {
          const size_t idx = rng.NextU64(outstanding.size());
          const auto [keys, charged] = std::move(outstanding[idx]);
          outstanding.erase(outstanding.begin() + static_cast<long>(idx));
          if (rng.NextDouble() < 0.8) {
            const auto lel = static_cast<Micros>(rng.NextU64(20000));
            const bool committed = rng.NextBool(0.7);
            fp.OnComplete(charged, lel, committed);
            ref.OnComplete(keys, lel, committed);
          } else {
            fp.OnRelease(charged);
            ref.OnRelease(keys);
          }
        }
        max_size = std::max(max_size, fp.size());
        if (step % 250 == 0) {
          ExpectMatchesReference(fp, ref, rng, shape.key_space);
          if (::testing::Test::HasFailure()) return;
          // Eq. 5 and Eq. 9 over the last dispatched key set.
          if (!outstanding.empty()) {
            const std::vector<RecordKey>& keys = outstanding.back().first;
            EXPECT_EQ(Forecast(fp, keys), ref.ForecastLel(keys));
            EXPECT_EQ(AbortProb(fp, keys), ref.AbortProbability(keys));
          }
        }
      }
      // The trace reached both eviction outcomes.
      EXPECT_GT(fp.evictions(), 0u);
      EXPECT_GT(max_size, shape.capacity) << "no soft overflow";
    }
  }
}

TEST(FootprintTest, ChargedSlotsSurviveEvictionPressure) {
  FootprintConfig config;
  config.capacity = 4;
  HotspotFootprint fp(config);
  const auto held = Dispatch(fp, Keys({1, 2, 3}));
  // Hundreds of colder records churn through the one unpinned place.
  for (uint64_t k = 100; k < 600; ++k) RunSubtxn(fp, Keys({k}), 100, true);
  EXPECT_GT(fp.evictions(), 400u);
  for (const ChargedKey& charged : held) {
    const RecordStats* stats = fp.Lookup(charged.key);
    ASSERT_NE(stats, nullptr) << charged.key.ToString();
    EXPECT_EQ(stats->a_cnt, 1);
  }
  // The slots still address their records: completion lands on them.
  fp.OnComplete(held, 3000, true);
  for (const ChargedKey& charged : held) {
    EXPECT_EQ(fp.Lookup(charged.key)->t_cnt, 1u);
    EXPECT_EQ(fp.Lookup(charged.key)->a_cnt, 0);
  }
  EXPECT_TRUE(fp.CheckInvariants());
  // Settled, they are ordinary LRU records again and get evicted.
  for (uint64_t k = 600; k < 610; ++k) RunSubtxn(fp, Keys({k}), 100, true);
  for (const ChargedKey& charged : held) {
    EXPECT_EQ(fp.Lookup(charged.key), nullptr);
  }
  // A settled charge cannot be settled twice.
  EXPECT_DEATH(fp.OnRelease(held), "lost its charge");
}

TEST(FootprintTest, ApproxBytesGrowsWithSize) {
  HotspotFootprint fp;
  const size_t empty = fp.ApproxBytes();
  for (uint64_t k = 0; k < 100; ++k) Dispatch(fp, Keys({k}));
  EXPECT_GT(fp.ApproxBytes(), empty);
}

}  // namespace
}  // namespace core
}  // namespace geotp
