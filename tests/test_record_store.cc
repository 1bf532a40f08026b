// Property test for the key-ordered record store: seeded mixes of
// ascending runs, random inserts and overwrites across two interleaved
// tables, checked against a std::map reference after every batch.
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
    for (int batch = 0; batch < 40; ++batch) {
      const uint64_t kind = rng.NextU64(3);
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
      } else if (!ref.empty()) {
        // Overwrites of resident keys.
        for (int i = 0; i < 300; ++i) {
          auto it = ref.begin();
          std::advance(it, static_cast<long>(rng.NextU64(ref.size())));
          apply(it->first, rng.NextInt(-1000, 1000));
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

}  // namespace
}  // namespace storage
}  // namespace geotp
