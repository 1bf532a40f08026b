// Core identifier and time types shared by every layer.
//
// All simulated time is expressed in integer microseconds of virtual time
// (Micros). Durations use the same unit. Helper constructors convert from
// milliseconds/seconds so call sites read like the paper ("73 ms RTT").
#ifndef GEOTP_COMMON_TYPES_H_
#define GEOTP_COMMON_TYPES_H_

#include <cstdint>
#include <functional>
#include <string>

namespace geotp {

/// Virtual time point / duration, in microseconds.
using Micros = int64_t;

constexpr Micros kMicrosPerMilli = 1000;
constexpr Micros kMicrosPerSecond = 1000 * 1000;

/// Converts milliseconds to Micros (accepts fractional milliseconds).
constexpr Micros MsToMicros(double ms) {
  return static_cast<Micros>(ms * static_cast<double>(kMicrosPerMilli));
}

/// Converts seconds to Micros.
constexpr Micros SecToMicros(double sec) {
  return static_cast<Micros>(sec * static_cast<double>(kMicrosPerSecond));
}

/// Converts Micros to fractional milliseconds (for reporting).
constexpr double MicrosToMs(Micros us) {
  return static_cast<double>(us) / static_cast<double>(kMicrosPerMilli);
}

/// Converts Micros to fractional seconds (for reporting).
constexpr double MicrosToSec(Micros us) {
  return static_cast<double>(us) / static_cast<double>(kMicrosPerSecond);
}

/// Identifies a simulated node (middleware, data source, or client host).
/// Values are dense indexes into the topology's node table.
using NodeId = int32_t;
constexpr NodeId kInvalidNode = -1;

/// Global transaction identifier assigned by a middleware instance.
/// Encodes the originating middleware in the high bits so that ids from
/// multiple DMs (Fig. 15 deployment) never collide.
using TxnId = uint64_t;
constexpr TxnId kInvalidTxn = 0;

/// Builds a TxnId from the middleware ordinal and a per-DM sequence number.
constexpr TxnId MakeTxnId(uint32_t middleware_ordinal, uint64_t seq) {
  return (static_cast<TxnId>(middleware_ordinal) << 48) | (seq & 0xFFFFFFFFFFFFULL);
}

/// XA branch identifier: global txn + participant data source.
struct Xid {
  TxnId txn_id = kInvalidTxn;
  NodeId data_source = kInvalidNode;

  bool operator==(const Xid& other) const {
    return txn_id == other.txn_id && data_source == other.data_source;
  }

  std::string ToString() const;
  template <typename V> void Fields(V&& v) { v(txn_id, data_source); }
};

struct XidHash {
  size_t operator()(const Xid& xid) const {
    return std::hash<TxnId>()(xid.txn_id) * 31 +
           std::hash<NodeId>()(xid.data_source);
  }
};

/// A record key. Table-qualified: partitioning and lock manager operate on
/// (table, key) pairs packed into one 64-bit value for cheap hashing.
struct RecordKey {
  uint32_t table = 0;
  uint64_t key = 0;

  bool operator==(const RecordKey& other) const {
    return table == other.table && key == other.key;
  }
  bool operator<(const RecordKey& other) const {
    if (table != other.table) return table < other.table;
    return key < other.key;
  }

  std::string ToString() const;
  template <typename V> void Fields(V&& v) { v(table, key); }
};

struct RecordKeyHash {
  size_t operator()(const RecordKey& k) const {
    uint64_t h = (static_cast<uint64_t>(k.table) << 56) ^ k.key;
    // 64-bit mix (splitmix64 finalizer).
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebULL;
    h ^= h >> 31;
    return static_cast<size_t>(h);
  }
};

}  // namespace geotp

#endif  // GEOTP_COMMON_TYPES_H_
