// Tests for the strict-2PL lock manager: grant/wait/release semantics,
// FIFO fairness, upgrades, cancellation, deadlock detection, plus a
// randomized property test checking structural invariants.
#include "storage/lock_manager.h"

#include <deque>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace geotp {
namespace storage {
namespace {

Xid T(uint64_t n) { return Xid{n, 0}; }
RecordKey K(uint64_t k) { return RecordKey{1, k}; }

struct Capture {
  bool fired = false;
  Status status;
  LockCallback Cb() {
    return [this](Status st) {
      fired = true;
      status = std::move(st);
    };
  }
};

TEST(LockManagerTest, SharedLocksCoexist) {
  LockManager lm;
  Capture a, b;
  EXPECT_EQ(lm.RequestLock(T(1), K(1), LockMode::kShared, a.Cb()),
            kInvalidLockRequest);
  EXPECT_EQ(lm.RequestLock(T(2), K(1), LockMode::kShared, b.Cb()),
            kInvalidLockRequest);
  EXPECT_TRUE(a.fired && a.status.ok());
  EXPECT_TRUE(b.fired && b.status.ok());
  EXPECT_EQ(lm.HoldersOn(K(1)), 2u);
}

TEST(LockManagerTest, ExclusiveBlocksShared) {
  LockManager lm;
  Capture a, b;
  lm.RequestLock(T(1), K(1), LockMode::kExclusive, a.Cb());
  LockRequestId id = lm.RequestLock(T(2), K(1), LockMode::kShared, b.Cb());
  EXPECT_NE(id, kInvalidLockRequest);
  EXPECT_FALSE(b.fired);
  EXPECT_EQ(lm.WaitersOn(K(1)), 1u);
  lm.ReleaseAll(T(1));
  EXPECT_TRUE(b.fired && b.status.ok());
}

TEST(LockManagerTest, SharedBlocksExclusive) {
  LockManager lm;
  Capture a, b;
  lm.RequestLock(T(1), K(1), LockMode::kShared, a.Cb());
  lm.RequestLock(T(2), K(1), LockMode::kExclusive, b.Cb());
  EXPECT_FALSE(b.fired);
  lm.ReleaseAll(T(1));
  EXPECT_TRUE(b.fired && b.status.ok());
}

TEST(LockManagerTest, ReentrantSharedThenShared) {
  LockManager lm;
  Capture a, b;
  lm.RequestLock(T(1), K(1), LockMode::kShared, a.Cb());
  lm.RequestLock(T(1), K(1), LockMode::kShared, b.Cb());
  EXPECT_TRUE(b.fired && b.status.ok());
  EXPECT_EQ(lm.HoldersOn(K(1)), 1u);
}

TEST(LockManagerTest, ExclusiveCoversShared) {
  LockManager lm;
  Capture a, b;
  lm.RequestLock(T(1), K(1), LockMode::kExclusive, a.Cb());
  lm.RequestLock(T(1), K(1), LockMode::kShared, b.Cb());
  EXPECT_TRUE(b.fired && b.status.ok());
  EXPECT_TRUE(lm.Holds(T(1), K(1), LockMode::kExclusive));
}

TEST(LockManagerTest, UpgradeSoleHolderImmediate) {
  LockManager lm;
  Capture a, b;
  lm.RequestLock(T(1), K(1), LockMode::kShared, a.Cb());
  lm.RequestLock(T(1), K(1), LockMode::kExclusive, b.Cb());
  EXPECT_TRUE(b.fired && b.status.ok());
  EXPECT_TRUE(lm.Holds(T(1), K(1), LockMode::kExclusive));
  EXPECT_EQ(lm.stats().upgrades, 1u);
}

TEST(LockManagerTest, UpgradeWaitsForOtherSharers) {
  LockManager lm;
  Capture a, b, up;
  lm.RequestLock(T(1), K(1), LockMode::kShared, a.Cb());
  lm.RequestLock(T(2), K(1), LockMode::kShared, b.Cb());
  LockRequestId id = lm.RequestLock(T(1), K(1), LockMode::kExclusive, up.Cb());
  EXPECT_NE(id, kInvalidLockRequest);
  EXPECT_FALSE(up.fired);
  lm.ReleaseAll(T(2));
  EXPECT_TRUE(up.fired && up.status.ok());
  EXPECT_TRUE(lm.Holds(T(1), K(1), LockMode::kExclusive));
}

TEST(LockManagerTest, UpgradeJumpsQueue) {
  LockManager lm;
  Capture a, b, waiter, up;
  lm.RequestLock(T(1), K(1), LockMode::kShared, a.Cb());
  lm.RequestLock(T(2), K(1), LockMode::kShared, b.Cb());
  lm.RequestLock(T(3), K(1), LockMode::kExclusive, waiter.Cb());
  lm.RequestLock(T(1), K(1), LockMode::kExclusive, up.Cb());
  // T2 releases: the upgrade (queue front) must win over T3.
  lm.ReleaseAll(T(2));
  EXPECT_TRUE(up.fired && up.status.ok());
  EXPECT_FALSE(waiter.fired);
}

TEST(LockManagerTest, FifoNoBargingPastQueuedExclusive) {
  LockManager lm;
  Capture a, x, s;
  lm.RequestLock(T(1), K(1), LockMode::kShared, a.Cb());
  lm.RequestLock(T(2), K(1), LockMode::kExclusive, x.Cb());
  // A shared request arriving after a queued X must wait (no barging),
  // even though it is compatible with the current holder.
  lm.RequestLock(T(3), K(1), LockMode::kShared, s.Cb());
  EXPECT_FALSE(s.fired);
  lm.ReleaseAll(T(1));
  EXPECT_TRUE(x.fired);
  EXPECT_FALSE(s.fired);
  lm.ReleaseAll(T(2));
  EXPECT_TRUE(s.fired);
}

TEST(LockManagerTest, BatchedSharedGrantsTogether) {
  LockManager lm;
  Capture x, s1, s2;
  lm.RequestLock(T(1), K(1), LockMode::kExclusive, x.Cb());
  lm.RequestLock(T(2), K(1), LockMode::kShared, s1.Cb());
  lm.RequestLock(T(3), K(1), LockMode::kShared, s2.Cb());
  lm.ReleaseAll(T(1));
  EXPECT_TRUE(s1.fired && s2.fired);
  EXPECT_EQ(lm.HoldersOn(K(1)), 2u);
}

TEST(LockManagerTest, CancelParkedRequestFiresStatus) {
  LockManager lm;
  Capture a, b;
  lm.RequestLock(T(1), K(1), LockMode::kExclusive, a.Cb());
  LockRequestId id = lm.RequestLock(T(2), K(1), LockMode::kShared, b.Cb());
  lm.CancelRequest(id, Status::TimedOut("lock wait timeout"));
  EXPECT_TRUE(b.fired);
  EXPECT_TRUE(b.status.IsTimedOut());
  EXPECT_EQ(lm.WaitersOn(K(1)), 0u);
}

TEST(LockManagerTest, CancelUnblocksCompatibleWaitersBehind) {
  LockManager lm;
  Capture holder, x, s;
  lm.RequestLock(T(1), K(1), LockMode::kShared, holder.Cb());
  LockRequestId xid = lm.RequestLock(T(2), K(1), LockMode::kExclusive, x.Cb());
  lm.RequestLock(T(3), K(1), LockMode::kShared, s.Cb());
  EXPECT_FALSE(s.fired);
  // Cancelling the X waiter lets the compatible S behind it through.
  lm.CancelRequest(xid, Status::Aborted("gone"));
  EXPECT_TRUE(s.fired && s.status.ok());
}

TEST(LockManagerTest, CancelAfterGrantIsNoop) {
  LockManager lm;
  Capture a, b;
  lm.RequestLock(T(1), K(1), LockMode::kExclusive, a.Cb());
  LockRequestId id = lm.RequestLock(T(2), K(1), LockMode::kExclusive, b.Cb());
  lm.ReleaseAll(T(1));
  EXPECT_TRUE(b.fired && b.status.ok());
  lm.CancelRequest(id, Status::TimedOut("late"));  // must not re-fire
  EXPECT_TRUE(b.status.ok());
}

TEST(LockManagerTest, ReleaseAllFreesEveryKey) {
  LockManager lm;
  Capture cbs[5];
  for (uint64_t k = 0; k < 5; ++k) {
    lm.RequestLock(T(1), K(k), LockMode::kExclusive, cbs[k].Cb());
  }
  lm.ReleaseAll(T(1));
  for (uint64_t k = 0; k < 5; ++k) {
    EXPECT_FALSE(lm.Holds(T(1), K(k), LockMode::kShared));
    EXPECT_EQ(lm.HoldersOn(K(k)), 0u);
  }
}

TEST(LockManagerTest, ReleaseUnknownOwnerIsNoop) {
  LockManager lm;
  lm.ReleaseAll(T(99));  // must not crash
}

TEST(LockManagerTest, TwoTxnDeadlockDetected) {
  LockManager lm;
  Capture a1, b1, a2, b2;
  lm.RequestLock(T(1), K(1), LockMode::kExclusive, a1.Cb());
  lm.RequestLock(T(2), K(2), LockMode::kExclusive, b1.Cb());
  // T1 waits on key2 (held by T2)...
  lm.RequestLock(T(1), K(2), LockMode::kExclusive, a2.Cb());
  EXPECT_FALSE(a2.fired);
  // ...and T2 requesting key1 would close the cycle -> victim aborted.
  lm.RequestLock(T(2), K(1), LockMode::kExclusive, b2.Cb());
  EXPECT_TRUE(b2.fired);
  EXPECT_TRUE(b2.status.IsAborted());
  EXPECT_EQ(lm.stats().deadlocks, 1u);
}

TEST(LockManagerTest, ThreeTxnDeadlockCycleDetected) {
  LockManager lm;
  Capture cb;
  lm.RequestLock(T(1), K(1), LockMode::kExclusive, cb.Cb());
  lm.RequestLock(T(2), K(2), LockMode::kExclusive, cb.Cb());
  lm.RequestLock(T(3), K(3), LockMode::kExclusive, cb.Cb());
  lm.RequestLock(T(1), K(2), LockMode::kExclusive, cb.Cb());  // T1 -> T2
  lm.RequestLock(T(2), K(3), LockMode::kExclusive, cb.Cb());  // T2 -> T3
  Capture victim;
  lm.RequestLock(T(3), K(1), LockMode::kExclusive, victim.Cb());  // closes
  EXPECT_TRUE(victim.fired);
  EXPECT_TRUE(victim.status.IsAborted());
}

TEST(LockManagerTest, UpgradeDeadlockDetected) {
  // Two shared holders both upgrading: the second upgrade is the victim.
  LockManager lm;
  Capture s1, s2, u1, u2;
  lm.RequestLock(T(1), K(1), LockMode::kShared, s1.Cb());
  lm.RequestLock(T(2), K(1), LockMode::kShared, s2.Cb());
  lm.RequestLock(T(1), K(1), LockMode::kExclusive, u1.Cb());
  EXPECT_FALSE(u1.fired);
  lm.RequestLock(T(2), K(1), LockMode::kExclusive, u2.Cb());
  EXPECT_TRUE(u2.fired);
  EXPECT_TRUE(u2.status.IsAborted());
  // T2 releasing lets T1's upgrade through.
  lm.ReleaseAll(T(2));
  EXPECT_TRUE(u1.fired && u1.status.ok());
}

TEST(LockManagerTest, NoFalsePositiveOnSharedChain) {
  LockManager lm;
  Capture a, b, c;
  lm.RequestLock(T(1), K(1), LockMode::kShared, a.Cb());
  lm.RequestLock(T(2), K(1), LockMode::kShared, b.Cb());
  // T3 waiting on an X behind the sharers is not a deadlock.
  lm.RequestLock(T(3), K(1), LockMode::kExclusive, c.Cb());
  EXPECT_FALSE(c.fired);
  EXPECT_EQ(lm.stats().deadlocks, 0u);
}

// ---------------------------------------------------------------------------
// Randomized property test: after arbitrary request/release/cancel traffic
// every grant is compatibility-consistent and nothing leaks.
// ---------------------------------------------------------------------------

TEST(LockManagerPropertyTest, RandomTrafficKeepsInvariants) {
  Rng rng(0xFEED);
  LockManager lm;
  constexpr int kTxns = 24;
  constexpr int kKeys = 8;

  struct TxnState {
    std::map<uint64_t, LockMode> held;
    LockRequestId pending = kInvalidLockRequest;
    uint64_t pending_key = 0;
    LockMode pending_mode = LockMode::kShared;
  };
  std::vector<TxnState> txns(kTxns);

  auto check_consistency = [&]() {
    // No key may have an X holder together with any other holder.
    for (uint64_t k = 0; k < kKeys; ++k) {
      int x_holders = 0, s_holders = 0;
      for (int t = 0; t < kTxns; ++t) {
        auto it = txns[static_cast<size_t>(t)].held.find(k);
        if (it == txns[static_cast<size_t>(t)].held.end()) continue;
        (it->second == LockMode::kExclusive ? x_holders : s_holders)++;
      }
      ASSERT_LE(x_holders, 1) << "key " << k;
      if (x_holders == 1) {
        ASSERT_EQ(s_holders, 0) << "key " << k;
      }
    }
  };

  for (int step = 0; step < 20000; ++step) {
    const int t = static_cast<int>(rng.NextU64(kTxns));
    TxnState& txn = txns[static_cast<size_t>(t)];
    const double action = rng.NextDouble();
    if (action < 0.6 && txn.pending == kInvalidLockRequest) {
      const uint64_t k = rng.NextU64(kKeys);
      const LockMode mode =
          rng.NextBool(0.5) ? LockMode::kShared : LockMode::kExclusive;
      // NOTE: the callback may fire much later (on another txn's release),
      // so it captures only long-lived state.
      LockRequestId id = lm.RequestLock(
          T(static_cast<uint64_t>(t)), K(k), mode,
          [&txns, t, k, mode](Status st) {
            if (st.ok()) {
              auto& held = txns[static_cast<size_t>(t)].held;
              auto it = held.find(k);
              if (it == held.end() || mode == LockMode::kExclusive) {
                held[k] = it != held.end() &&
                                  it->second == LockMode::kExclusive
                              ? LockMode::kExclusive
                              : mode;
              }
              txns[static_cast<size_t>(t)].pending = kInvalidLockRequest;
            }
          });
      if (id != kInvalidLockRequest) {
        txn.pending = id;
        txn.pending_key = k;
        txn.pending_mode = mode;
      }
    } else if (action < 0.8) {
      // Release everything (commit/abort).
      if (txn.pending != kInvalidLockRequest) {
        lm.CancelRequest(txn.pending, Status::Aborted("release"));
        txn.pending = kInvalidLockRequest;
      }
      lm.ReleaseAll(T(static_cast<uint64_t>(t)));
      txn.held.clear();
    } else if (txn.pending != kInvalidLockRequest) {
      // Timeout the pending request.
      lm.CancelRequest(txn.pending, Status::TimedOut("timeout"));
      txn.pending = kInvalidLockRequest;
    }
    if (step % 500 == 0) check_consistency();
  }

  // Drain: release everything; nothing may remain held or parked.
  for (int t = 0; t < kTxns; ++t) {
    TxnState& txn = txns[static_cast<size_t>(t)];
    if (txn.pending != kInvalidLockRequest) {
      lm.CancelRequest(txn.pending, Status::Aborted("drain"));
    }
    lm.ReleaseAll(T(static_cast<uint64_t>(t)));
    txn.held.clear();
  }
  EXPECT_EQ(lm.total_waiters(), 0u);
  for (uint64_t k = 0; k < kKeys; ++k) {
    EXPECT_EQ(lm.HoldersOn(K(k)), 0u);
    EXPECT_EQ(lm.WaitersOn(K(k)), 0u);
  }
}

// ---------------------------------------------------------------------------
// Reference model: the lock manager as it stood on hash-node containers (an
// unordered_map of lock states, each with an unordered_map of holders and a
// std::deque queue). A seeded replay drives both managers with the same
// calls and compares every observable: returned ids, the order and status of
// every callback, per-key queries and the stats.
// ---------------------------------------------------------------------------

class ReferenceLockManager {
 public:
  LockRequestId RequestLock(const Xid& owner, const RecordKey& key,
                            LockMode mode, LockCallback callback) {
    LockState& state = locks_[key];
    auto holder_it = state.holders.find(owner);
    if (holder_it != state.holders.end()) {
      if (holder_it->second == LockMode::kExclusive ||
          mode == LockMode::kShared) {
        stats_.grants_immediate++;
        callback(Status::OK());
        return kInvalidLockRequest;
      }
      if (state.holders.size() == 1) {
        holder_it->second = LockMode::kExclusive;
        state.mode = LockMode::kExclusive;
        stats_.upgrades++;
        stats_.grants_immediate++;
        callback(Status::OK());
        return kInvalidLockRequest;
      }
      std::unordered_set<RecordKey, RecordKeyHash> visited;
      if (WouldDeadlock(owner, key, 0, &visited)) {
        stats_.deadlocks++;
        callback(Status::Aborted("deadlock victim"));
        return kInvalidLockRequest;
      }
      const LockRequestId id = next_request_id_++;
      state.queue.push_front(
          Waiter{id, owner, LockMode::kExclusive, true, std::move(callback)});
      parked_.emplace(id, key);
      waiting_on_[owner] = key;
      return id;
    }
    const bool compatible =
        state.holders.empty() || Compatible(state.mode, mode);
    if (compatible && state.queue.empty()) {
      state.holders.emplace(owner, mode);
      if (state.holders.size() == 1 || mode == LockMode::kExclusive) {
        state.mode = state.holders.size() == 1 ? mode : LockMode::kShared;
      }
      held_by_owner_[owner].insert(key);
      stats_.grants_immediate++;
      callback(Status::OK());
      return kInvalidLockRequest;
    }
    std::unordered_set<RecordKey, RecordKeyHash> visited;
    if (WouldDeadlock(owner, key, 0, &visited)) {
      stats_.deadlocks++;
      callback(Status::Aborted("deadlock victim"));
      return kInvalidLockRequest;
    }
    const LockRequestId id = next_request_id_++;
    state.queue.push_back(Waiter{id, owner, mode, false, std::move(callback)});
    parked_.emplace(id, key);
    waiting_on_[owner] = key;
    return id;
  }

  void CancelRequest(LockRequestId id, Status status) {
    auto it = parked_.find(id);
    if (it == parked_.end()) return;
    const RecordKey key = it->second;
    parked_.erase(it);
    LockState& state = locks_.at(key);
    for (auto qit = state.queue.begin(); qit != state.queue.end(); ++qit) {
      if (qit->id == id) {
        LockCallback cb = std::move(qit->callback);
        waiting_on_.erase(qit->owner);
        state.queue.erase(qit);
        stats_.cancellations++;
        std::vector<LockCallback> to_fire;
        ProcessQueue(key, state, to_fire);
        cb(status);
        for (auto& fire : to_fire) fire(Status::OK());
        return;
      }
    }
  }

  void ReleaseAll(const Xid& owner) {
    auto owner_it = held_by_owner_.find(owner);
    if (owner_it == held_by_owner_.end()) return;
    std::vector<LockCallback> to_fire;
    for (const RecordKey& key : owner_it->second) {
      auto lock_it = locks_.find(key);
      if (lock_it == locks_.end()) continue;
      LockState& state = lock_it->second;
      state.holders.erase(owner);
      if (state.holders.empty() && state.queue.empty()) {
        locks_.erase(lock_it);
        continue;
      }
      ProcessQueue(key, state, to_fire);
      if (state.holders.empty() && state.queue.empty()) locks_.erase(key);
    }
    held_by_owner_.erase(owner_it);
    for (auto& fire : to_fire) fire(Status::OK());
  }

  bool Holds(const Xid& owner, const RecordKey& key, LockMode mode) const {
    auto lock_it = locks_.find(key);
    if (lock_it == locks_.end()) return false;
    auto holder_it = lock_it->second.holders.find(owner);
    if (holder_it == lock_it->second.holders.end()) return false;
    return holder_it->second == LockMode::kExclusive ||
           mode == LockMode::kShared;
  }
  size_t WaitersOn(const RecordKey& key) const {
    auto lock_it = locks_.find(key);
    return lock_it == locks_.end() ? 0 : lock_it->second.queue.size();
  }
  size_t HoldersOn(const RecordKey& key) const {
    auto lock_it = locks_.find(key);
    return lock_it == locks_.end() ? 0 : lock_it->second.holders.size();
  }
  const LockStats& stats() const { return stats_; }
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
    LockMode mode = LockMode::kShared;
    std::unordered_map<Xid, LockMode, XidHash> holders;
    std::deque<Waiter> queue;
  };

  static bool Compatible(LockMode held, LockMode requested) {
    return held == LockMode::kShared && requested == LockMode::kShared;
  }

  void ProcessQueue(const RecordKey& key, LockState& state,
                    std::vector<LockCallback>& to_fire) {
    while (!state.queue.empty()) {
      Waiter& head = state.queue.front();
      if (head.is_upgrade) {
        if (state.holders.size() == 1 &&
            state.holders.count(head.owner) == 1) {
          state.holders[head.owner] = LockMode::kExclusive;
          state.mode = LockMode::kExclusive;
          stats_.upgrades++;
          stats_.grants_after_wait++;
          parked_.erase(head.id);
          waiting_on_.erase(head.owner);
          to_fire.push_back(std::move(head.callback));
          state.queue.pop_front();
          continue;
        }
        return;
      }
      const bool can_grant =
          state.holders.empty() ||
          (state.mode == LockMode::kShared && head.mode == LockMode::kShared);
      if (!can_grant) return;
      state.holders.emplace(head.owner, head.mode);
      state.mode = head.mode == LockMode::kExclusive ? LockMode::kExclusive
                                                     : LockMode::kShared;
      held_by_owner_[head.owner].insert(key);
      stats_.grants_after_wait++;
      parked_.erase(head.id);
      waiting_on_.erase(head.owner);
      to_fire.push_back(std::move(head.callback));
      state.queue.pop_front();
      if (state.mode == LockMode::kExclusive) return;
    }
  }

  bool WouldDeadlock(const Xid& requester, const RecordKey& key, int depth,
                     std::unordered_set<RecordKey, RecordKeyHash>* visited)
      const {
    if (depth > 64) return false;
    auto lock_it = locks_.find(key);
    if (lock_it == locks_.end()) return false;
    const LockState& state = lock_it->second;
    if (depth > 0 && state.holders.count(requester) > 0) return true;
    if (!visited->insert(key).second) return false;
    const bool requester_is_upgrading =
        depth == 0 && state.holders.count(requester) > 0;
    auto follow = [&](const Xid& blocker) {
      if (blocker == requester) return false;
      auto wait_it = waiting_on_.find(blocker);
      if (wait_it == waiting_on_.end()) return false;
      return WouldDeadlock(requester, wait_it->second, depth + 1, visited);
    };
    for (const auto& [holder, mode] : state.holders) {
      (void)mode;
      if (follow(holder)) return true;
    }
    if (!requester_is_upgrading) {
      for (const Waiter& waiter : state.queue) {
        if (follow(waiter.owner)) return true;
      }
    }
    return false;
  }

  std::unordered_map<RecordKey, LockState, RecordKeyHash> locks_;
  std::unordered_map<LockRequestId, RecordKey> parked_;
  std::unordered_map<Xid, RecordKey, XidHash> waiting_on_;
  std::unordered_map<Xid, std::unordered_set<RecordKey, RecordKeyHash>,
                     XidHash>
      held_by_owner_;
  LockRequestId next_request_id_ = 1;
  LockStats stats_;
};

/// One fired callback: which request (by the replay's own tag) and how.
struct Fired {
  uint64_t tag;
  StatusCode code;
  bool operator==(const Fired& other) const {
    return tag == other.tag && code == other.code;
  }
};

void ExpectSameStats(const LockStats& got, const LockStats& want) {
  EXPECT_EQ(got.grants_immediate, want.grants_immediate);
  EXPECT_EQ(got.grants_after_wait, want.grants_after_wait);
  EXPECT_EQ(got.cancellations, want.cancellations);
  EXPECT_EQ(got.upgrades, want.upgrades);
  EXPECT_EQ(got.deadlocks, want.deadlocks);
}

// Seeded mixes of shared, exclusive, re-entrant and upgrade requests on a
// few hot keys (so most requests contend and some close wait cycles),
// cancellations, and releases, with and without a parked request.
TEST(LockManagerPropertyTest, MatchesHashNodeReference) {
  struct Shape {
    int txns;
    uint64_t keys;
  };
  for (const Shape shape : {Shape{6, 3}, Shape{24, 8}, Shape{64, 40}}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE("txns " + std::to_string(shape.txns) + " keys " +
                   std::to_string(shape.keys) + " seed " +
                   std::to_string(seed));
      Rng rng(seed * 104729 + static_cast<uint64_t>(shape.txns));
      LockManager lm;
      ReferenceLockManager ref;
      std::vector<Fired> got_log;
      std::vector<Fired> want_log;
      // Per txn: the parked request's id in each manager, and its tag.
      std::vector<LockRequestId> got_pending(shape.txns, kInvalidLockRequest);
      std::vector<LockRequestId> want_pending(shape.txns, kInvalidLockRequest);
      std::vector<uint64_t> pending_tag(shape.txns, 0);
      std::map<uint64_t, size_t> txn_of_tag;
      uint64_t next_tag = 1;
      auto callback = [](std::vector<Fired>* log, uint64_t tag) {
        return [log, tag](Status status) {
          log->push_back({tag, status.code()});
        };
      };
      for (int step = 0; step < 6000; ++step) {
        const auto t = static_cast<size_t>(rng.NextU64(shape.txns));
        const Xid owner = T(t);
        const size_t fired_before = got_log.size();
        const double action = rng.NextDouble();
        if (action < 0.6) {
          if (got_pending[t] != kInvalidLockRequest) continue;
          const RecordKey key = K(rng.NextU64(shape.keys));
          const LockMode mode =
              rng.NextBool(0.5) ? LockMode::kShared : LockMode::kExclusive;
          const uint64_t tag = next_tag++;
          txn_of_tag[tag] = t;
          const LockRequestId got =
              lm.RequestLock(owner, key, mode, callback(&got_log, tag));
          const LockRequestId want =
              ref.RequestLock(owner, key, mode, callback(&want_log, tag));
          ASSERT_EQ(got, want) << "step " << step;
          got_pending[t] = got;
          want_pending[t] = want;
          pending_tag[t] = tag;
        } else if (action < 0.75) {
          // Commit/abort: the engine cancels a parked request first.
          lm.CancelRequest(got_pending[t], Status::Aborted("rolled back"));
          ref.CancelRequest(want_pending[t], Status::Aborted("rolled back"));
          lm.ReleaseAll(owner);
          ref.ReleaseAll(owner);
        } else if (action < 0.8) {
          // Release with the request still parked.
          lm.ReleaseAll(owner);
          ref.ReleaseAll(owner);
        } else if (action < 0.9) {
          // Lock-wait timeout (a no-op when nothing is parked).
          lm.CancelRequest(got_pending[t], Status::TimedOut("lock wait"));
          ref.CancelRequest(want_pending[t], Status::TimedOut("lock wait"));
        } else {
          // An id that was never handed out cancels nothing.
          lm.CancelRequest(next_tag + 1000, Status::Aborted("stale"));
          ref.CancelRequest(next_tag + 1000, Status::Aborted("stale"));
        }
        ASSERT_EQ(got_log, want_log) << "step " << step;
        // A fired callback ends its txn's parked request.
        for (size_t i = fired_before; i < got_log.size(); ++i) {
          const size_t owner_txn = txn_of_tag.at(got_log[i].tag);
          if (pending_tag[owner_txn] == got_log[i].tag) {
            got_pending[owner_txn] = kInvalidLockRequest;
            want_pending[owner_txn] = kInvalidLockRequest;
          }
        }
        ASSERT_EQ(lm.total_waiters(), ref.total_waiters()) << "step " << step;
        if (step % 50 == 0) {
          for (uint64_t k = 0; k < shape.keys; ++k) {
            ASSERT_EQ(lm.WaitersOn(K(k)), ref.WaitersOn(K(k)));
            ASSERT_EQ(lm.HoldersOn(K(k)), ref.HoldersOn(K(k)));
            for (int o = 0; o < shape.txns; ++o) {
              for (LockMode mode : {LockMode::kShared, LockMode::kExclusive}) {
                ASSERT_EQ(lm.Holds(T(o), K(k), mode),
                          ref.Holds(T(o), K(k), mode))
                    << "step " << step;
              }
            }
          }
          ExpectSameStats(lm.stats(), ref.stats());
        }
      }
      ExpectSameStats(lm.stats(), ref.stats());
      // The mix reached every outcome the replay is meant to compare.
      EXPECT_GT(lm.stats().grants_after_wait, 0u);
      EXPECT_GT(lm.stats().cancellations, 0u);
      EXPECT_GT(lm.stats().upgrades, 0u);
      EXPECT_GT(lm.stats().deadlocks, 0u);
    }
  }
}

TEST(LockManagerTest, RecycledLockStateStartsEmptyAndShared) {
  LockManager lm;
  Capture x, s1, s2, waiter;
  // An exclusive holder with a parked waiter; releasing both retires the
  // key's lock state.
  lm.RequestLock(T(1), K(1), LockMode::kExclusive, x.Cb());
  const LockRequestId id =
      lm.RequestLock(T(2), K(1), LockMode::kExclusive, waiter.Cb());
  lm.CancelRequest(id, Status::TimedOut("lock wait"));
  lm.ReleaseAll(T(1));
  EXPECT_EQ(lm.HoldersOn(K(1)), 0u);
  EXPECT_EQ(lm.WaitersOn(K(1)), 0u);
  // A new key takes the retired state: it must hold nobody, queue nobody,
  // and grant two sharers at once.
  EXPECT_EQ(lm.RequestLock(T(3), K(2), LockMode::kShared, s1.Cb()),
            kInvalidLockRequest);
  EXPECT_EQ(lm.RequestLock(T(4), K(2), LockMode::kShared, s2.Cb()),
            kInvalidLockRequest);
  EXPECT_TRUE(s1.fired && s1.status.ok());
  EXPECT_TRUE(s2.fired && s2.status.ok());
  EXPECT_EQ(lm.HoldersOn(K(2)), 2u);
  EXPECT_EQ(lm.WaitersOn(K(2)), 0u);
  EXPECT_FALSE(lm.Holds(T(1), K(2), LockMode::kShared));
  EXPECT_FALSE(lm.Holds(T(2), K(2), LockMode::kShared));
  EXPECT_EQ(lm.total_waiters(), 0u);
}

}  // namespace
}  // namespace storage
}  // namespace geotp
