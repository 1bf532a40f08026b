// Tests for the XA transaction engine: state machine, in-place writes with
// undo, crash behaviour, pending-operation cancellation, committed range
// reads.
#include "storage/engine.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace geotp {
namespace storage {
namespace {

Xid T(uint64_t n) { return Xid{n, 7}; }
RecordKey K(uint64_t k) { return RecordKey{1, k}; }

Operation ReadOp(uint64_t k) {
  Operation op;
  op.key = K(k);
  op.is_write = false;
  return op;
}

Operation WriteOp(uint64_t k, int64_t v) {
  Operation op;
  op.key = K(k);
  op.is_write = true;
  op.write_value = v;
  return op;
}

class EngineTest : public ::testing::Test {
 protected:
  TransactionEngine engine_;

  // Executes synchronously (no contention in these tests unless stated).
  Status Exec(const Xid& xid, const Operation& op, int64_t* value = nullptr) {
    Status result = Status::Internal("callback not fired");
    engine_.ExecuteOp(xid, op, [&](Status st, int64_t v) {
      result = std::move(st);
      if (value != nullptr) *value = v;
    });
    return result;
  }
};

TEST_F(EngineTest, BeginTwiceFails) {
  ASSERT_TRUE(engine_.Begin(T(1)).ok());
  EXPECT_EQ(engine_.Begin(T(1)).code(), StatusCode::kAlreadyExists);
}

TEST_F(EngineTest, ReadMissingKeyReturnsZero) {
  ASSERT_TRUE(engine_.Begin(T(1)).ok());
  int64_t value = -1;
  ASSERT_TRUE(Exec(T(1), ReadOp(5), &value).ok());
  EXPECT_EQ(value, 0);
}

TEST_F(EngineTest, WriteThenReadOwnWrite) {
  ASSERT_TRUE(engine_.Begin(T(1)).ok());
  ASSERT_TRUE(Exec(T(1), WriteOp(5, 42)).ok());
  int64_t value = 0;
  ASSERT_TRUE(Exec(T(1), ReadOp(5), &value).ok());
  EXPECT_EQ(value, 42);
}

TEST_F(EngineTest, CommitMakesWriteDurable) {
  ASSERT_TRUE(engine_.Begin(T(1)).ok());
  ASSERT_TRUE(Exec(T(1), WriteOp(5, 42)).ok());
  ASSERT_TRUE(engine_.Prepare(T(1), 10).ok());
  ASSERT_TRUE(engine_.Commit(T(1), 20).ok());
  EXPECT_EQ(engine_.store().Get(K(5))->value, 42);
  EXPECT_EQ(engine_.StateOf(T(1)), TxnState::kAborted);  // GC'ed
}

TEST_F(EngineTest, RollbackUndoesWritesInReverse) {
  engine_.store().Apply(K(5), 100);
  ASSERT_TRUE(engine_.Begin(T(1)).ok());
  ASSERT_TRUE(Exec(T(1), WriteOp(5, 1)).ok());
  ASSERT_TRUE(Exec(T(1), WriteOp(5, 2)).ok());
  ASSERT_TRUE(engine_.Rollback(T(1), 10).ok());
  EXPECT_EQ(engine_.store().Get(K(5))->value, 100);
}

TEST_F(EngineTest, RollbackReleasesLocks) {
  ASSERT_TRUE(engine_.Begin(T(1)).ok());
  ASSERT_TRUE(Exec(T(1), WriteOp(5, 1)).ok());
  ASSERT_TRUE(engine_.Rollback(T(1), 10).ok());
  ASSERT_TRUE(engine_.Begin(T(2)).ok());
  EXPECT_TRUE(Exec(T(2), WriteOp(5, 2)).ok());  // lock must be free
}

TEST_F(EngineTest, PrepareBlocksFurtherOps) {
  ASSERT_TRUE(engine_.Begin(T(1)).ok());
  ASSERT_TRUE(Exec(T(1), WriteOp(5, 1)).ok());
  ASSERT_TRUE(engine_.Prepare(T(1), 10).ok());
  EXPECT_TRUE(Exec(T(1), WriteOp(6, 2)).IsAborted());
}

TEST_F(EngineTest, PrepareTwiceFails) {
  ASSERT_TRUE(engine_.Begin(T(1)).ok());
  ASSERT_TRUE(engine_.Prepare(T(1), 10).ok());
  EXPECT_TRUE(engine_.Prepare(T(1), 20).IsAborted());
}

TEST_F(EngineTest, OnePhaseCommitFromActive) {
  ASSERT_TRUE(engine_.Begin(T(1)).ok());
  ASSERT_TRUE(Exec(T(1), WriteOp(5, 7)).ok());
  ASSERT_TRUE(engine_.Commit(T(1), 10).ok());  // XA COMMIT ... ONE PHASE
  EXPECT_EQ(engine_.store().Get(K(5))->value, 7);
}

TEST_F(EngineTest, CommitUnknownBranchFails) {
  EXPECT_TRUE(engine_.Commit(T(9), 10).IsNotFound());
}

TEST_F(EngineTest, RollbackUnknownBranchIsIdempotent) {
  EXPECT_TRUE(engine_.Rollback(T(9), 10).ok());
}

TEST_F(EngineTest, RollbackAfterPrepareAllowed) {
  ASSERT_TRUE(engine_.Begin(T(1)).ok());
  ASSERT_TRUE(Exec(T(1), WriteOp(5, 1)).ok());
  ASSERT_TRUE(engine_.Prepare(T(1), 10).ok());
  ASSERT_TRUE(engine_.Rollback(T(1), 20).ok());
  EXPECT_EQ(engine_.store().Get(K(5))->value, 0);
}

TEST_F(EngineTest, WalRecordsPrepareAndCommit) {
  ASSERT_TRUE(engine_.Begin(T(1)).ok());
  ASSERT_TRUE(engine_.Prepare(T(1), 10).ok());
  EXPECT_TRUE(engine_.wal().IsPreparedUnresolved(T(1)));
  ASSERT_TRUE(engine_.Commit(T(1), 20).ok());
  EXPECT_FALSE(engine_.wal().IsPreparedUnresolved(T(1)));
  // Appending buffers entries; physical flushes are accounted separately
  // (under group commit the two diverge — one fsync can cover them both).
  EXPECT_EQ(engine_.wal().entries().size(), 2u);
  EXPECT_EQ(engine_.wal().fsyncs(), 0u);
  engine_.NoteWalFsync();
  EXPECT_EQ(engine_.wal().fsyncs(), 1u);
}

TEST_F(EngineTest, LockWaitParksOp) {
  ASSERT_TRUE(engine_.Begin(T(1)).ok());
  ASSERT_TRUE(engine_.Begin(T(2)).ok());
  ASSERT_TRUE(Exec(T(1), WriteOp(5, 1)).ok());
  Status waiter_status = Status::Internal("pending");
  engine_.ExecuteOp(T(2), WriteOp(5, 2), [&](Status st, int64_t) {
    waiter_status = std::move(st);
  });
  EXPECT_TRUE(engine_.HasPendingOp(T(2)));
  ASSERT_TRUE(engine_.Commit(T(1), 10).ok());
  EXPECT_TRUE(waiter_status.ok());
  EXPECT_FALSE(engine_.HasPendingOp(T(2)));
  EXPECT_EQ(engine_.store().Get(K(5))->value, 2);
}

TEST_F(EngineTest, CancelPendingOpFiresTimeout) {
  ASSERT_TRUE(engine_.Begin(T(1)).ok());
  ASSERT_TRUE(engine_.Begin(T(2)).ok());
  ASSERT_TRUE(Exec(T(1), WriteOp(5, 1)).ok());
  Status waiter_status = Status::Internal("pending");
  engine_.ExecuteOp(T(2), WriteOp(5, 2), [&](Status st, int64_t) {
    waiter_status = std::move(st);
  });
  engine_.CancelPendingOp(T(2), Status::TimedOut("lock wait"));
  EXPECT_TRUE(waiter_status.IsTimedOut());
  EXPECT_EQ(engine_.StateOf(T(2)), TxnState::kActive);  // caller decides
}

TEST_F(EngineTest, RollbackCancelsPendingOp) {
  ASSERT_TRUE(engine_.Begin(T(1)).ok());
  ASSERT_TRUE(engine_.Begin(T(2)).ok());
  ASSERT_TRUE(Exec(T(1), WriteOp(5, 1)).ok());
  Status waiter_status = Status::Internal("pending");
  engine_.ExecuteOp(T(2), WriteOp(5, 2), [&](Status st, int64_t) {
    waiter_status = std::move(st);
  });
  ASSERT_TRUE(engine_.Rollback(T(2), 10).ok());
  EXPECT_TRUE(waiter_status.IsAborted());
}

TEST_F(EngineTest, PrepareWithPendingOpFails) {
  ASSERT_TRUE(engine_.Begin(T(1)).ok());
  ASSERT_TRUE(engine_.Begin(T(2)).ok());
  ASSERT_TRUE(Exec(T(1), WriteOp(5, 1)).ok());
  engine_.ExecuteOp(T(2), WriteOp(5, 2), [](Status, int64_t) {});
  EXPECT_TRUE(engine_.Prepare(T(2), 10).IsAborted());
  (void)engine_.Rollback(T(2), 11);
}

TEST_F(EngineTest, CrashAbortsActiveKeepsPrepared) {
  ASSERT_TRUE(engine_.Begin(T(1)).ok());
  ASSERT_TRUE(Exec(T(1), WriteOp(5, 1)).ok());
  ASSERT_TRUE(engine_.Prepare(T(1), 10).ok());
  ASSERT_TRUE(engine_.Begin(T(2)).ok());
  ASSERT_TRUE(Exec(T(2), WriteOp(6, 2)).ok());

  engine_.Crash(20);

  // T1 (prepared) survives as in-doubt; T2 (active) rolled back.
  auto prepared = engine_.PreparedXids();
  ASSERT_EQ(prepared.size(), 1u);
  EXPECT_EQ(prepared[0].txn_id, T(1).txn_id);
  EXPECT_EQ(engine_.store().Get(K(6))->value, 0);
  // The in-doubt branch can still commit after recovery.
  ASSERT_TRUE(engine_.Commit(T(1), 30).ok());
  EXPECT_EQ(engine_.store().Get(K(5))->value, 1);
}

TEST_F(EngineTest, DeadlockVictimGetsAborted) {
  ASSERT_TRUE(engine_.Begin(T(1)).ok());
  ASSERT_TRUE(engine_.Begin(T(2)).ok());
  ASSERT_TRUE(Exec(T(1), WriteOp(1, 1)).ok());
  ASSERT_TRUE(Exec(T(2), WriteOp(2, 2)).ok());
  engine_.ExecuteOp(T(1), WriteOp(2, 3), [](Status, int64_t) {});
  Status victim = Status::Internal("pending");
  engine_.ExecuteOp(T(2), WriteOp(1, 4), [&](Status st, int64_t) {
    victim = std::move(st);
  });
  EXPECT_TRUE(victim.IsAborted());
}

/// Counts the live copies of a callback's capture.
class LiveCopies {
 public:
  explicit LiveCopies(int* live) : live_(live) { ++*live_; }
  LiveCopies(const LiveCopies& other) : live_(other.live_) { ++*live_; }
  LiveCopies& operator=(const LiveCopies&) = delete;
  ~LiveCopies() { --*live_; }

 private:
  int* live_;
};

TEST_F(EngineTest, RolledBackParkedOpFiresOnceAndDropsItsCallback) {
  ASSERT_TRUE(engine_.Begin(T(1)).ok());
  ASSERT_TRUE(engine_.Begin(T(2)).ok());
  ASSERT_TRUE(Exec(T(1), WriteOp(5, 1)).ok());
  int live = 0;
  int fired = 0;
  Status seen;
  engine_.ExecuteOp(T(2), WriteOp(5, 2),
                    [probe = LiveCopies(&live), &fired, &seen](Status st,
                                                               int64_t) {
                      ++fired;
                      seen = std::move(st);
                    });
  EXPECT_GT(live, 0) << "the parked op keeps its callback";
  ASSERT_TRUE(engine_.Rollback(T(2), 10).ok());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(seen.IsAborted());
  EXPECT_EQ(live, 0) << "the callback outlived its op";
  // Releasing the lock later wakes nobody.
  ASSERT_TRUE(engine_.Commit(T(1), 20).ok());
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(engine_.locks().HoldersOn(K(5)), 0u);
}

TEST_F(EngineTest, GrantedOpDropsItsCallback) {
  ASSERT_TRUE(engine_.Begin(T(1)).ok());
  int live = 0;
  int fired = 0;
  engine_.ExecuteOp(T(1), WriteOp(5, 1),
                    [probe = LiveCopies(&live), &fired](Status st, int64_t) {
                      EXPECT_TRUE(st.ok());
                      ++fired;
                    });
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(live, 0);
  ASSERT_TRUE(engine_.Commit(T(1), 10).ok());
}

TEST_F(EngineTest, OpCallbackMayEndItsOwnBranch) {
  // The data source rolls a branch back from inside a failed op's callback
  // and may commit one from inside a granted op's: the engine must not
  // touch the branch after handing the outcome over.
  ASSERT_TRUE(engine_.Begin(T(1)).ok());
  ASSERT_TRUE(engine_.Begin(T(2)).ok());
  ASSERT_TRUE(engine_.Begin(T(3)).ok());
  ASSERT_TRUE(Exec(T(1), WriteOp(5, 1)).ok());
  int64_t granted_value = 0;
  engine_.ExecuteOp(T(2), WriteOp(5, 2), [&](Status st, int64_t value) {
    ASSERT_TRUE(st.ok());
    granted_value = value;
    ASSERT_TRUE(engine_.Commit(T(2), 30).ok());
  });
  Status cancelled;
  engine_.ExecuteOp(T(3), ReadOp(5), [&](Status st, int64_t) {
    cancelled = std::move(st);
    ASSERT_TRUE(engine_.Rollback(T(3), 20).ok());
  });
  engine_.CancelPendingOp(T(3), Status::TimedOut("lock wait"));
  EXPECT_TRUE(cancelled.IsTimedOut());
  EXPECT_EQ(engine_.StateOf(T(3)), TxnState::kAborted);
  ASSERT_TRUE(engine_.Commit(T(1), 40).ok());
  EXPECT_EQ(granted_value, 2);
  EXPECT_EQ(engine_.ActiveCount(), 0u);
  EXPECT_EQ(engine_.store().Get(K(5))->value, 2);
  EXPECT_EQ(engine_.locks().HoldersOn(K(5)), 0u);
}

TEST_F(EngineTest, EngineConfigPresetsDiffer) {
  EngineConfig mysql = MySqlEngineConfig();
  EngineConfig postgres = PostgresEngineConfig();
  EXPECT_NE(mysql.read_cost, postgres.read_cost);
  EXPECT_GT(mysql.prepare_fsync_cost, 0);
  EXPECT_GT(postgres.prepare_fsync_cost, 0);
}

TEST_F(EngineTest, ActiveCountTracksLiveBranches) {
  EXPECT_EQ(engine_.ActiveCount(), 0u);
  ASSERT_TRUE(engine_.Begin(T(1)).ok());
  ASSERT_TRUE(engine_.Begin(T(2)).ok());
  EXPECT_EQ(engine_.ActiveCount(), 2u);
  ASSERT_TRUE(engine_.Commit(T(1), 10).ok());
  EXPECT_EQ(engine_.ActiveCount(), 1u);
}

using Records = std::vector<std::pair<RecordKey, int64_t>>;

TEST_F(EngineTest, CommittedRangeIsOrderedAndStaysInRange) {
  // Two tables, loaded out of order.
  for (uint64_t i = 0; i < 100; ++i) {
    const uint64_t k = (i * 37) % 100;
    engine_.store().Apply(RecordKey{2, k}, static_cast<int64_t>(k) + 1000);
    engine_.store().Apply(K(k), static_cast<int64_t>(k));
  }
  const Records mid = engine_.CommittedRange(K(10), K(50));
  ASSERT_EQ(mid.size(), 40u);
  for (size_t i = 0; i < mid.size(); ++i) {
    EXPECT_EQ(mid[i].first, K(10 + i));
    EXPECT_EQ(mid[i].second, static_cast<int64_t>(10 + i));
  }
  // The range's end lies past table 1's last key: nothing from table 2.
  const Records tail = engine_.CommittedRange(K(90), K(1000));
  ASSERT_EQ(tail.size(), 10u);
  EXPECT_EQ(tail.front().first, K(90));
  EXPECT_EQ(tail.back().first, K(99));
  // An unbounded read walks table 1 then table 2.
  const Records all = engine_.CommittedRange(RecordKey{0, 0}, std::nullopt);
  ASSERT_EQ(all.size(), 200u);
  EXPECT_EQ(all[99].first, K(99));
  EXPECT_EQ(all[100].first, (RecordKey{2, 0}));
  EXPECT_TRUE(engine_.CommittedRange(K(50), K(50)).empty());
}

TEST_F(EngineTest, CommittedRangeLimitContinuesWhereItStopped) {
  for (uint64_t k = 0; k < 100; ++k) {
    engine_.store().Apply(K(3 * k), static_cast<int64_t>(k));
  }
  const RecordKey hi = K(250);
  const Records whole = engine_.CommittedRange(K(0), hi);
  ASSERT_EQ(whole.size(), 84u);
  Records pieced;
  RecordKey cursor = K(0);
  for (;;) {
    const Records piece = engine_.CommittedRange(cursor, hi, 7);
    ASSERT_LE(piece.size(), 7u);
    if (piece.empty()) break;
    pieced.insert(pieced.end(), piece.begin(), piece.end());
    cursor = K(piece.back().first.key + 1);
  }
  EXPECT_EQ(pieced, whole);
}

TEST_F(EngineTest, CommittedRangeOverlaysLiveBranches) {
  engine_.store().Apply(K(1), 10);
  engine_.store().Apply(K(2), 20);
  // An ACTIVE and a PREPARED branch, each writing its key twice.
  ASSERT_TRUE(engine_.Begin(T(1)).ok());
  ASSERT_TRUE(Exec(T(1), WriteOp(1, 11)).ok());
  ASSERT_TRUE(Exec(T(1), WriteOp(1, 12)).ok());
  ASSERT_TRUE(engine_.Begin(T(2)).ok());
  ASSERT_TRUE(Exec(T(2), WriteOp(2, 21)).ok());
  ASSERT_TRUE(Exec(T(2), WriteOp(2, 22)).ok());
  ASSERT_TRUE(engine_.Prepare(T(2), 10).ok());
  EXPECT_EQ(engine_.store().Get(K(1))->value, 12);  // dirty in place
  EXPECT_EQ(engine_.CommittedRange(K(0), K(10)),
            (Records{{K(1), 10}, {K(2), 20}}));
  // Committing the prepared branch exposes its final value.
  ASSERT_TRUE(engine_.Commit(T(2), 20).ok());
  EXPECT_EQ(engine_.CommittedRange(K(0), K(10)),
            (Records{{K(1), 10}, {K(2), 22}}));
}

TEST_F(EngineTest, CommittedRangeReadsKeyCreatedByLiveBranchAsZero) {
  ASSERT_TRUE(engine_.Begin(T(1)).ok());
  ASSERT_TRUE(Exec(T(1), WriteOp(3, 5)).ok());
  EXPECT_EQ(engine_.CommittedRange(K(0), K(10)), (Records{{K(3), 0}}));
}

}  // namespace
}  // namespace storage
}  // namespace geotp
