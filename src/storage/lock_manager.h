// Strict two-phase-locking lock manager with shared/exclusive record locks.
//
// This models the concurrency control of the underlying data sources
// (MySQL/PostgreSQL at serializable isolation, paper §I footnote). Grants
// are FIFO: a request waits if it is incompatible with current holders or
// if any earlier waiter exists (no barging), matching InnoDB's behaviour
// closely enough for contention-span arithmetic.
//
// The manager is asynchronous: RequestLock() either grants synchronously
// (invoking the callback before returning) or parks the request. Waiters
// are woken by ReleaseAll(). Timeouts are driven from outside via
// CancelRequest() — the data-source node schedules the 5 s lock-wait
// timeout on the event loop.
//
// Lock states are pooled: a key's state lives in its hash node, and when
// the last holder and waiter leave, the node is extracted onto a free list
// and re-keyed for the next key that needs a state. Holders and waiters
// are short vectors, so a recycled state keeps their capacity and taking
// an uncontended lock allocates nothing once the pool has warmed up.
#ifndef GEOTP_STORAGE_LOCK_MANAGER_H_
#define GEOTP_STORAGE_LOCK_MANAGER_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace geotp {
namespace storage {

enum class LockMode : uint8_t { kShared = 0, kExclusive = 1 };

/// Result passed to the request callback on grant/cancel.
using LockCallback = std::function<void(Status)>;

/// Handle for cancelling a parked request.
using LockRequestId = uint64_t;
constexpr LockRequestId kInvalidLockRequest = 0;

struct LockStats {
  uint64_t grants_immediate = 0;
  uint64_t grants_after_wait = 0;
  uint64_t cancellations = 0;
  uint64_t upgrades = 0;
  uint64_t deadlocks = 0;
};

class LockManager {
 public:
  LockManager() = default;
  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  /// Requests `mode` on `key` for transaction `owner`.
  ///
  /// * If the owner already holds a lock of equal or stronger mode, the
  ///   callback fires immediately with OK (re-entrant).
  /// * If the owner holds kShared and requests kExclusive, this is an
  ///   upgrade: it is granted when the owner is the sole holder, and queues
  ///   ahead of regular waiters otherwise.
  /// * Returns kInvalidLockRequest when the callback already fired
  ///   (synchronous grant), else an id usable with CancelRequest().
  ///
  /// Deadlock detection (InnoDB-style wait-for graph): if parking this
  /// request would close a wait cycle, the request is refused instead —
  /// the callback fires synchronously with kAborted("deadlock") and the
  /// requester is the victim.
  LockRequestId RequestLock(const Xid& owner, const RecordKey& key,
                            LockMode mode, LockCallback callback);

  /// Cancels a parked request (lock-wait timeout or early abort). The
  /// callback fires with the given status. No-op if already granted.
  void CancelRequest(LockRequestId id, Status status);

  /// Releases every lock held by `owner` and wakes eligible waiters.
  /// Wake callbacks run synchronously inside this call.
  void ReleaseAll(const Xid& owner);

  /// True if `owner` currently holds a lock on `key` of at least `mode`.
  bool Holds(const Xid& owner, const RecordKey& key, LockMode mode) const;

  /// Number of transactions currently waiting on `key` (hotspot signal).
  size_t WaitersOn(const RecordKey& key) const;
  /// Number of transactions currently holding a lock on `key`.
  size_t HoldersOn(const RecordKey& key) const;

  const LockStats& stats() const { return stats_; }

  /// Total parked requests across all keys.
  size_t total_waiters() const { return parked_.size(); }

 private:
  struct Waiter {
    LockRequestId id;
    Xid owner;
    LockMode mode;
    bool is_upgrade;
    LockCallback callback;
  };

  struct LockState {
    LockMode mode = LockMode::kShared;       // meaningful iff !holders.empty()
    std::vector<std::pair<Xid, LockMode>> holders;
    /// FIFO, except that a parked upgrade goes to the front.
    std::vector<Waiter> queue;
  };
  using LockTable = std::unordered_map<RecordKey, LockState, RecordKeyHash>;

  /// The state of `key`, taking a retired node from the pool for a new key.
  LockState& StateOf(const RecordKey& key);
  /// Moves the node at `it` (no holders, no waiters) to the pool.
  void Retire(LockTable::iterator it);

  /// Grants as many queued waiters as compatibility allows (FIFO).
  void ProcessQueue(const RecordKey& key, LockState& state,
                    std::vector<LockCallback>& to_fire);

  /// DFS over the wait-for graph: would `requester` waiting on `key` close
  /// a cycle back to itself? Visited-set pruned so hot keys with long wait
  /// queues stay linear; conservative (treats every queued waiter and
  /// every holder as blocking). The caller clears `visited_` first.
  bool WouldDeadlock(const Xid& requester, const RecordKey& key, int depth);

  static bool Compatible(LockMode held, LockMode requested) {
    return held == LockMode::kShared && requested == LockMode::kShared;
  }

  LockTable locks_;
  /// Retired lock-state nodes, reused before a new node is allocated.
  std::vector<LockTable::node_type> free_states_;
  /// Keys WouldDeadlock expanded; a member so its buffer is reused.
  std::vector<RecordKey> visited_;
  // Reverse index: parked request id -> key (for cancellation).
  std::unordered_map<LockRequestId, RecordKey> parked_;
  // Which key each transaction currently waits on (wait-for graph edges).
  std::unordered_map<Xid, RecordKey, XidHash> waiting_on_;
  // Held keys per owner, for ReleaseAll. ReleaseAll wakes waiters in this
  // set's iteration order, so the container type is part of the event
  // order: another container would reorder wake-ups.
  std::unordered_map<Xid, std::unordered_set<RecordKey, RecordKeyHash>,
                     XidHash>
      held_by_owner_;
  LockRequestId next_request_id_ = 1;
  LockStats stats_;
};

}  // namespace storage
}  // namespace geotp

#endif  // GEOTP_STORAGE_LOCK_MANAGER_H_
