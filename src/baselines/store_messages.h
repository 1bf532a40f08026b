// Messages for the non-XA baselines.
//
// ScalarDB treats data sources as plain (non-transactional) stores and
// runs its own concurrency control at the middleware ("consensus commit"):
// read records with versions, validate + install intents at prepare,
// promote at commit. YugabyteDB writes provisional records (intents)
// during execution and resolves them asynchronously after commit.
#ifndef GEOTP_BASELINES_STORE_MESSAGES_H_
#define GEOTP_BASELINES_STORE_MESSAGES_H_

#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "runtime/message.h"

namespace geotp {
namespace baselines {

using runtime::Message;
using runtime::MessageType;

/// Versioned read of a batch of records.
struct StoreReadRequest : Message<MessageType::kStoreReadRequest> {
  TxnId txn = kInvalidTxn;
  uint64_t req_id = 0;
  std::vector<RecordKey> keys;
  template <typename V> void Fields(V&& v) { v(txn, req_id, keys); }
};

struct ReadResult {
  int64_t value = 0;
  uint64_t version = 0;
  template <typename V> void Fields(V&& v) { v(value, version); }
};

struct StoreReadResponse : Message<MessageType::kStoreReadResponse> {
  TxnId txn = kInvalidTxn;
  uint64_t req_id = 0;
  Status status;
  std::vector<ReadResult> results;
  template <typename V> void Fields(V&& v) { v(txn, req_id, status, results); }
};

/// One staged operation for prepare-time validation.
struct StagedOp {
  RecordKey key;
  uint64_t expected_version = 0;
  bool is_write = false;
  int64_t write_value = 0;
  template <typename V>
  void Fields(V&& v) {
    v(key, expected_version, is_write, write_value);
  }
};

/// Consensus-commit prepare: validate read versions, install intents.
struct StorePrepareRequest : Message<MessageType::kStorePrepareRequest> {
  TxnId txn = kInvalidTxn;
  std::vector<StagedOp> ops;
  template <typename V> void Fields(V&& v) { v(txn, ops); }
};

struct StorePrepareResponse : Message<MessageType::kStorePrepareResponse> {
  TxnId txn = kInvalidTxn;
  Status status;
  template <typename V> void Fields(V&& v) { v(txn, status); }
};

/// Promote (commit=true) or discard (commit=false) the txn's intents.
struct StoreDecisionRequest : Message<MessageType::kStoreDecisionRequest> {
  TxnId txn = kInvalidTxn;
  bool commit = true;
  template <typename V> void Fields(V&& v) { v(txn, commit); }
};

struct StoreDecisionAck : Message<MessageType::kStoreDecisionAck> {
  TxnId txn = kInvalidTxn;
  bool commit = true;
  template <typename V> void Fields(V&& v) { v(txn, commit); }
};

// ---------------------------------------------------------------------------
// Yugabyte-style tablet messages
// ---------------------------------------------------------------------------

/// Execute a batch at an owner tablet: reads return committed values;
/// writes install provisional intents immediately (fail-fast on conflict).
struct YbBatchRequest : Message<MessageType::kYbBatchRequest> {
  TxnId txn = kInvalidTxn;
  uint64_t req_id = 0;
  std::vector<StagedOp> ops;  ///< expected_version unused (pessimistic write)
  template <typename V> void Fields(V&& v) { v(txn, req_id, ops); }
};

struct YbBatchResponse : Message<MessageType::kYbBatchResponse> {
  TxnId txn = kInvalidTxn;
  uint64_t req_id = 0;
  Status status;
  std::vector<ReadResult> results;  ///< read ops only, in order
  template <typename V> void Fields(V&& v) { v(txn, req_id, status, results); }
};

/// Asynchronous intent resolution after the status record committed.
struct YbResolveRequest : Message<MessageType::kYbResolveRequest> {
  TxnId txn = kInvalidTxn;
  bool commit = true;
  template <typename V> void Fields(V&& v) { v(txn, commit); }
};

}  // namespace baselines
}  // namespace geotp

#endif  // GEOTP_BASELINES_STORE_MESSAGES_H_
