// Tests for the strict-2PL lock manager: grant/wait/release semantics,
// FIFO fairness, upgrades, cancellation, deadlock detection, plus a
// randomized property test checking structural invariants.
#include "storage/lock_manager.h"

#include <map>
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

}  // namespace
}  // namespace storage
}  // namespace geotp
