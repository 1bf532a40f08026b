// In-memory record store: the "table" hosted by a data source.
//
// Records are kept in key order (RecordKey::operator<: table, then key) so
// snapshot transfer — shard migration chunks and follower re-seed spans —
// reads a key range directly instead of filtering and sorting the whole
// store. The layout is common/leaf_map.h; see src/storage/README.md
// ("Store layout").
#ifndef GEOTP_STORAGE_RECORD_STORE_H_
#define GEOTP_STORAGE_RECORD_STORE_H_

#include <cstdint>
#include <optional>

#include "common/leaf_map.h"
#include "common/types.h"

namespace geotp {
namespace storage {

struct Record {
  int64_t value = 0;
};

/// Point ops, `Slot` (read-modify-write in one lookup, a missing key reads
/// 0 everywhere), `LowerBound` and key-order iteration come from LeafMap.
class RecordStore : public LeafMap<Record> {
 public:
  std::optional<Record> Get(const RecordKey& key) const {
    const Record* record = Find(key);
    if (record == nullptr) return std::nullopt;
    return *record;
  }

  /// Inserts or overwrites a record: replicated writes, undo restores and
  /// bulk loads all land here. Missing keys are created (YCSB/TPC-C only
  /// update pre-loaded keys, but inserts — e.g. TPC-C NewOrder rows —
  /// land here too).
  void Apply(const RecordKey& key, int64_t value) { Slot(key).value = value; }

  /// All resident records in key order, for snapshot transfer and store
  /// comparisons. Keys never written are absent and read as 0 on every
  /// node, so a snapshot of residents is complete.
  const RecordStore& records() const { return *this; }
};

}  // namespace storage
}  // namespace geotp

#endif  // GEOTP_STORAGE_RECORD_STORE_H_
