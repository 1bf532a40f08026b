// Property test for the key-ordered record store: seeded mixes of
// ascending runs, random inserts, overwrites and erases across two
// interleaved tables, checked against a std::map reference after every
// batch.
#include "storage/record_store.h"

#include <gtest/gtest.h>

#include <iterator>
#include <limits>
#include <map>
#include <string>

#include "common/random.h"

namespace geotp {
namespace storage {
namespace {

using Reference = std::map<RecordKey, int64_t>;

void ExpectMatches(const RecordStore& store, const Reference& ref) {
  ASSERT_EQ(store.size(), ref.size());
  auto expected = ref.begin();
  for (const auto& [key, record] : store.records()) {
    ASSERT_NE(expected, ref.end());
    ASSERT_EQ(key, expected->first);
    ASSERT_EQ(record.value, expected->second);
    ++expected;
  }
  EXPECT_EQ(expected, ref.end());
  for (const auto& [key, value] : ref) {
    const auto record = store.Get(key);
    ASSERT_TRUE(record.has_value()) << key.ToString();
    EXPECT_EQ(record->value, value);
  }
}

/// LowerBound agrees with map::lower_bound, compared by the key (or end)
/// each one lands on.
void ExpectLowerBound(const RecordStore& store, const Reference& ref,
                      const RecordKey& probe) {
  const auto got = store.LowerBound(probe);
  const auto want = ref.lower_bound(probe);
  if (want == ref.end()) {
    EXPECT_TRUE(got == store.end()) << probe.ToString();
    return;
  }
  ASSERT_TRUE(got != store.end()) << probe.ToString();
  EXPECT_EQ(got->first, want->first) << probe.ToString();
  EXPECT_EQ(got->second.value, want->second);
}

TEST(RecordStoreTest, EmptyStore) {
  const RecordStore store;
  EXPECT_EQ(store.size(), 0u);
  EXPECT_FALSE(store.Get(RecordKey{1, 1}).has_value());
  EXPECT_TRUE(store.begin() == store.end());
  EXPECT_TRUE(store.LowerBound(RecordKey{0, 0}) == store.end());
  EXPECT_EQ(store.ApproxBytes(), 0u);
}

TEST(RecordStoreTest, SeededMixMatchesOrderedReference) {
  constexpr uint32_t kTables[] = {1, 2};
  constexpr uint64_t kKeySpace = 20000;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    RecordStore store;
    Reference ref;
    const auto apply = [&](const RecordKey& key, int64_t value) {
      store.Apply(key, value);
      ref[key] = value;
    };
    uint64_t next_ascending[] = {0, 0};
    const auto erase = [&](const RecordKey& key) {
      EXPECT_EQ(store.Erase(key), ref.erase(key) == 1) << key.ToString();
    };
    for (int batch = 0; batch < 60; ++batch) {
      const uint64_t kind = rng.NextU64(5);
      const size_t t = rng.NextU64(2);
      const uint32_t table = kTables[t];
      if (kind == 0) {
        // Ascending run (a preload), continuing where this table left off.
        const uint64_t run = 1 + rng.NextU64(600);
        for (uint64_t i = 0; i < run; ++i) {
          apply(RecordKey{table, next_ascending[t]++},
                rng.NextInt(-1000, 1000));
        }
      } else if (kind == 1) {
        // Random inserts (most keys are new).
        for (int i = 0; i < 300; ++i) {
          apply(RecordKey{kTables[rng.NextU64(2)], rng.NextU64(kKeySpace)},
                rng.NextInt(-1000, 1000));
        }
      } else if (kind == 2 && !ref.empty()) {
        // Overwrites of resident keys.
        for (int i = 0; i < 300; ++i) {
          auto it = ref.begin();
          std::advance(it, static_cast<long>(rng.NextU64(ref.size())));
          apply(it->first, rng.NextInt(-1000, 1000));
        }
      } else if (kind == 3) {
        // Scattered erases, a third of them of absent keys.
        for (int i = 0; i < 300 && !ref.empty(); ++i) {
          auto it = ref.begin();
          std::advance(it, static_cast<long>(rng.NextU64(ref.size())));
          erase(rng.NextBool(0.33) ? RecordKey{it->first.table,
                                               kKeySpace + rng.NextU64(10)}
                                   : it->first);
        }
      } else if (!ref.empty()) {
        // Erase a contiguous run: empties leaves outright and shrinks
        // their neighbours below the merge threshold.
        auto it = ref.begin();
        std::advance(it, static_cast<long>(rng.NextU64(ref.size())));
        for (uint64_t n = 1 + rng.NextU64(400); n > 0 && it != ref.end();
             --n) {
          const RecordKey key = (it++)->first;
          erase(key);
        }
      }
      ExpectMatches(store, ref);
      if (::testing::Test::HasFatalFailure()) return;
      for (int i = 0; i < 50; ++i) {
        ExpectLowerBound(store, ref,
                         RecordKey{static_cast<uint32_t>(rng.NextU64(4)),
                                   rng.NextU64(kKeySpace + 10)});
      }
      // Table boundaries and past the end.
      for (uint32_t table = 0; table <= 3; ++table) {
        ExpectLowerBound(store, ref, RecordKey{table, 0});
        ExpectLowerBound(
            store, ref,
            RecordKey{table, std::numeric_limits<uint64_t>::max()});
      }
    }
  }
}

TEST(RecordStoreTest, AscendingLoadFillsLeaves) {
  constexpr uint64_t kRecords = 250000;
  RecordStore store;
  for (uint64_t k = 0; k < kRecords; ++k) store.Apply(RecordKey{7, k}, 0);
  ASSERT_EQ(store.size(), kRecords);
  const uint64_t leaves =
      (kRecords + RecordStore::kLeafCapacity - 1) / RecordStore::kLeafCapacity;
  // Full leaves: the reserved bytes are the entries themselves plus a
  // per-leaf index slot, with no half-empty leaves from splits.
  EXPECT_LE(store.ApproxBytes(),
            leaves * RecordStore::kLeafCapacity *
                    sizeof(RecordStore::Entry) +
                leaves * 64);
  EXPECT_EQ(store.LowerBound(RecordKey{7, kRecords - 1})->first.key,
            kRecords - 1);
  EXPECT_TRUE(store.LowerBound(RecordKey{7, kRecords}) == store.end());
}

TEST(RecordStoreTest, InsertBeforeFirstKeyAndIntoFullLeaf) {
  RecordStore store;
  Reference ref;
  // Fill one leaf exactly, then insert below it, inside it (a split) and
  // on both sides of the split point.
  for (uint64_t k = 0; k < RecordStore::kLeafCapacity; ++k) {
    store.Apply(RecordKey{1, 10 + 2 * k}, 1);
    ref[RecordKey{1, 10 + 2 * k}] = 1;
  }
  for (const uint64_t k : {5u, 11u, 75u, 1000u, 3u, 77u}) {
    store.Apply(RecordKey{1, k}, 2);
    ref[RecordKey{1, k}] = 2;
    ExpectMatches(store, ref);
  }
}

TEST(RecordStoreTest, EraseFirstKeysEmptyLeavesAndMerge) {
  constexpr uint64_t kCap = RecordStore::kLeafCapacity;
  RecordStore store;
  Reference ref;
  const auto erase = [&](uint64_t k) {
    EXPECT_TRUE(store.Erase(RecordKey{1, k})) << k;
    ref.erase(RecordKey{1, k});
  };
  // An ascending load of four full leaves: [0,128) [128,256) ...
  for (uint64_t k = 0; k < 4 * kCap; ++k) {
    store.Apply(RecordKey{1, k}, static_cast<int64_t>(k));
    ref[RecordKey{1, k}] = static_cast<int64_t>(k);
  }
  const size_t full = store.ApproxBytes();
  EXPECT_FALSE(store.Erase(RecordKey{1, 4 * kCap}));
  EXPECT_FALSE(store.Erase(RecordKey{2, 0}));

  // A leaf's first key: the next lookup below it must still land right.
  erase(kCap);
  ExpectMatches(store, ref);
  ExpectLowerBound(store, ref, RecordKey{1, kCap});
  ExpectLowerBound(store, ref, RecordKey{1, kCap - 1});

  // Empty the second leaf entirely: LowerBound just past the removed leaf
  // (and inside its old span) lands on the third leaf's first key.
  for (uint64_t k = kCap + 1; k < 2 * kCap; ++k) erase(k);
  ExpectMatches(store, ref);
  EXPECT_LT(store.ApproxBytes(), full);
  for (const uint64_t probe : {kCap, kCap + 7, 2 * kCap - 1, 2 * kCap}) {
    ExpectLowerBound(store, ref, RecordKey{1, probe});
  }
  EXPECT_EQ(store.LowerBound(RecordKey{1, kCap})->first.key, 2 * kCap);

  // Shrink the last leaf, then the one before it, to a quarter each: once
  // both fit in half a leaf, the shrinking leaf absorbs its successor.
  const size_t three_leaves = store.ApproxBytes();
  for (uint64_t k = 3 * kCap; k < 3 * kCap + 3 * kCap / 4; ++k) erase(k);
  ExpectMatches(store, ref);
  EXPECT_EQ(store.ApproxBytes(), three_leaves);
  for (uint64_t k = 2 * kCap; k < 2 * kCap + 3 * kCap / 4; ++k) erase(k);
  ExpectMatches(store, ref);
  EXPECT_LT(store.ApproxBytes(), three_leaves);
  for (const uint64_t probe :
       {2 * kCap, 3 * kCap - 1, 3 * kCap, 3 * kCap + 3 * kCap / 4}) {
    ExpectLowerBound(store, ref, RecordKey{1, probe});
  }

  // Re-inserting into the erased spans keeps the order.
  for (const uint64_t k : {kCap, kCap + 5, 2 * kCap + 1, 3 * kCap + 2}) {
    store.Apply(RecordKey{1, k}, -1);
    ref[RecordKey{1, k}] = -1;
  }
  ExpectMatches(store, ref);

  // Erase everything: the store is empty again and reserves nothing.
  while (!ref.empty()) erase(ref.begin()->first.key);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_TRUE(store.begin() == store.end());
  EXPECT_TRUE(store.LowerBound(RecordKey{0, 0}) == store.end());
  EXPECT_EQ(store.ApproxBytes(), 0u);
}

}  // namespace
}  // namespace storage
}  // namespace geotp
