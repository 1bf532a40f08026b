#include "storage/engine.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace geotp {
namespace storage {

EngineConfig MySqlEngineConfig() {
  EngineConfig config;
  config.read_cost = 220;
  config.write_cost = 420;
  config.prepare_fsync_cost = 2200;
  config.commit_fsync_cost = 1000;
  return config;
}

EngineConfig PostgresEngineConfig() {
  EngineConfig config;
  config.read_cost = 180;
  config.write_cost = 460;
  config.prepare_fsync_cost = 1800;
  config.commit_fsync_cost = 1200;
  return config;
}

TransactionEngine::TransactionEngine(EngineConfig config)
    : config_(config) {}

TransactionEngine::TxnData* TransactionEngine::Find(const Xid& xid) {
  auto it = txns_.find(xid);
  return it == txns_.end() ? nullptr : &it->second;
}

const TransactionEngine::TxnData* TransactionEngine::Find(
    const Xid& xid) const {
  auto it = txns_.find(xid);
  return it == txns_.end() ? nullptr : &it->second;
}

Status TransactionEngine::Begin(const Xid& xid) {
  auto [it, inserted] = txns_.try_emplace(xid);
  if (!inserted) {
    return Status::AlreadyExists("xa branch exists: " + xid.ToString());
  }
  (void)it;
  return Status::OK();
}

void TransactionEngine::ExecuteOp(const Xid& xid, const Operation& op,
                                  OpCallback callback) {
  TxnData* data = Find(xid);
  if (data == nullptr || data->state != TxnState::kActive) {
    callback(Status::Aborted("op on non-active branch " + xid.ToString()), 0);
    return;
  }
  GEOTP_CHECK(data->pending_request == kInvalidLockRequest,
              "one outstanding op per branch: " << xid.ToString());

  const LockMode mode = op.is_write ? LockMode::kExclusive : LockMode::kShared;
  data->op = op;
  data->op_callback = std::move(callback);
  const LockRequestId id = locks_.RequestLock(
      xid, op.key, mode,
      [this, data](Status status) { OnOpLock(data, std::move(status)); });
  if (id != kInvalidLockRequest) {
    // Parked. The callback above fires later; remember the id so Rollback
    // or a timeout can cancel it.
    data->pending_request = id;
  }
}

void TransactionEngine::OnOpLock(TxnData* txn, Status status) {
  txn->pending_request = kInvalidLockRequest;
  // The callback may end the branch and erase `txn`: take it out first.
  OpCallback callback = std::move(txn->op_callback);
  if (!status.ok()) {
    callback(status, 0);
    return;
  }
  // Granted: a parked branch cannot have left kActive (see TxnData).
  GEOTP_CHECK(txn->state == TxnState::kActive, "grant to a settled branch");
  const Operation& op = txn->op;
  if (op.is_write) {
    Record& record = store_.Slot(op.key);
    const int64_t base = record.value;
    txn->undo.push_back(UndoEntry{op.key, base});
    const int64_t final_value =
        op.is_delta ? base + op.write_value : op.write_value;
    record.value = final_value;
    callback(Status::OK(), final_value);
  } else {
    auto record = store_.Get(op.key);
    callback(Status::OK(), record ? record->value : 0);
  }
}

bool TransactionEngine::HasPendingOp(const Xid& xid) const {
  const TxnData* data = Find(xid);
  return data != nullptr && data->pending_request != kInvalidLockRequest;
}

void TransactionEngine::CancelPendingOp(const Xid& xid, Status status) {
  TxnData* data = Find(xid);
  if (data == nullptr || data->pending_request == kInvalidLockRequest) return;
  const LockRequestId id = data->pending_request;
  data->pending_request = kInvalidLockRequest;
  locks_.CancelRequest(id, std::move(status));
}

Status TransactionEngine::Prepare(const Xid& xid, Micros /*now*/) {
  TxnData* data = Find(xid);
  if (data == nullptr) {
    return Status::NotFound("prepare: unknown branch " + xid.ToString());
  }
  if (data->state != TxnState::kActive) {
    return Status::Aborted("prepare: branch not active");
  }
  if (data->pending_request != kInvalidLockRequest) {
    return Status::Aborted("prepare: operation still in flight");
  }
  data->state = TxnState::kPrepared;
  wal_.NoteAppend();
  return Status::OK();
}

std::vector<std::pair<RecordKey, int64_t>> TransactionEngine::WriteSetOf(
    const Xid& xid) const {
  std::vector<std::pair<RecordKey, int64_t>> writes;
  const TxnData* data = Find(xid);
  if (data == nullptr) return writes;
  for (const UndoEntry& undo : data->undo) {
    bool seen = false;
    for (const auto& [key, value] : writes) {
      if (key == undo.key) {
        seen = true;
        break;
      }
    }
    if (seen) continue;  // several writes to one key: one final value
    auto record = store_.Get(undo.key);
    writes.emplace_back(undo.key, record ? record->value : 0);
  }
  return writes;
}

std::vector<std::pair<RecordKey, int64_t>> TransactionEngine::CommittedRange(
    const RecordKey& lo, const std::optional<RecordKey>& hi,
    size_t limit) const {
  std::vector<std::pair<RecordKey, int64_t>> records;
  for (auto it = store_.LowerBound(lo);
       it != store_.end() && (!hi || it->first < *hi) && records.size() < limit;
       ++it) {
    records.emplace_back(it->first, it->second.value);
  }
  if (records.empty()) return records;
  // Overlay live branches' writes with their pre-branch values. At most
  // one live branch holds the exclusive lock on a key, and walking its
  // undo log newest-first leaves the OLDEST image — the committed value.
  const auto by_key = [](const std::pair<RecordKey, int64_t>& record,
                         const RecordKey& key) { return record.first < key; };
  const RecordKey& last = records.back().first;
  for (const auto& [xid, data] : txns_) {
    for (auto undo = data.undo.rbegin(); undo != data.undo.rend(); ++undo) {
      if (undo->key < lo || last < undo->key) continue;
      const auto pos = std::lower_bound(records.begin(), records.end(),
                                        undo->key, by_key);
      if (pos != records.end() && pos->first == undo->key) {
        pos->second = undo->old_value;
      }
    }
  }
  return records;
}

Status TransactionEngine::InstallPreparedBranch(
    const Xid& xid, const std::vector<std::pair<RecordKey, int64_t>>& writes,
    Micros /*now*/) {
  GEOTP_RETURN_NOT_OK(Begin(xid));
  TxnData* data = Find(xid);
  for (const auto& [key, value] : writes) {
    bool granted = false;
    const LockRequestId id = locks_.RequestLock(
        xid, key, LockMode::kExclusive,
        [&granted](Status status) { granted = status.ok(); });
    // The engine is quiescent during failover promotion, so every lock
    // grant is synchronous.
    GEOTP_CHECK(id == kInvalidLockRequest && granted,
                "install: lock contention on " << key.ToString());
    Record& record = store_.Slot(key);
    data->undo.push_back(UndoEntry{key, record.value});
    record.value = value;
  }
  data->state = TxnState::kPrepared;
  wal_.NoteAppend();
  return Status::OK();
}

Status TransactionEngine::Commit(const Xid& xid, Micros /*now*/) {
  TxnData* data = Find(xid);
  if (data == nullptr) {
    return Status::NotFound("commit: unknown branch " + xid.ToString());
  }
  if (data->state != TxnState::kPrepared &&
      data->state != TxnState::kActive) {
    return Status::Aborted("commit: branch not committable");
  }
  if (data->pending_request != kInvalidLockRequest) {
    return Status::Aborted("commit: operation still in flight");
  }
  wal_.NoteAppend();
  Finish(xid, *data, TxnState::kCommitted);
  return Status::OK();
}

Status TransactionEngine::Rollback(const Xid& xid, Micros /*now*/) {
  TxnData* data = Find(xid);
  if (data == nullptr) return Status::OK();  // idempotent
  if (data->state == TxnState::kCommitted) {
    return Status::Internal("rollback after commit: " + xid.ToString());
  }
  // Cancel an in-flight lock request; its callback observes kAborted.
  if (data->pending_request != kInvalidLockRequest) {
    const LockRequestId id = data->pending_request;
    data->pending_request = kInvalidLockRequest;
    locks_.CancelRequest(id, Status::Aborted("rolled back"));
    data = Find(xid);  // callback may have touched the map
    if (data == nullptr) return Status::OK();
  }
  // Undo in reverse order.
  for (auto it = data->undo.rbegin(); it != data->undo.rend(); ++it) {
    store_.Apply(it->key, it->old_value);
  }
  wal_.NoteAppend();
  Finish(xid, *data, TxnState::kAborted);
  return Status::OK();
}

TxnState TransactionEngine::StateOf(const Xid& xid) const {
  const TxnData* data = Find(xid);
  return data == nullptr ? TxnState::kAborted : data->state;
}

void TransactionEngine::Crash(Micros now) {
  std::vector<Xid> to_abort;
  for (const auto& [xid, data] : txns_) {
    if (data.state != TxnState::kPrepared) to_abort.push_back(xid);
  }
  for (const Xid& xid : to_abort) {
    (void)Rollback(xid, now);
  }
}

std::vector<Xid> TransactionEngine::PreparedXids() const {
  std::vector<Xid> out;
  for (const auto& [xid, data] : txns_) {
    if (data.state == TxnState::kPrepared) out.push_back(xid);
  }
  return out;
}

void TransactionEngine::Finish(const Xid& xid, TxnData& data,
                               TxnState final_state) {
  data.state = final_state;
  locks_.ReleaseAll(xid);
  txns_.erase(xid);
}

}  // namespace storage
}  // namespace geotp
