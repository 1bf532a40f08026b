// Tests for the virtual-time discrete-event loop.
#include "sim/event_loop.h"

#include <functional>
#include <memory>
#include <queue>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace geotp {
namespace sim {
namespace {

TEST(EventLoopTest, StartsAtTimeZero) {
  EventLoop loop;
  EXPECT_EQ(loop.Now(), 0);
  EXPECT_TRUE(loop.Empty());
}

TEST(EventLoopTest, AdvancesToEventTime) {
  EventLoop loop;
  Micros fired_at = -1;
  loop.Schedule(1000, [&]() { fired_at = loop.Now(); });
  loop.Run();
  EXPECT_EQ(fired_at, 1000);
  EXPECT_EQ(loop.Now(), 1000);
}

TEST(EventLoopTest, FiresInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.Schedule(300, [&]() { order.push_back(3); });
  loop.Schedule(100, [&]() { order.push_back(1); });
  loop.Schedule(200, [&]() { order.push_back(2); });
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventLoopTest, SameTimeIsFifo) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.Schedule(50, [&order, i]() { order.push_back(i); });
  }
  loop.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventLoopTest, NestedScheduling) {
  EventLoop loop;
  Micros inner_fired = -1;
  loop.Schedule(10, [&]() {
    loop.Schedule(5, [&]() { inner_fired = loop.Now(); });
  });
  loop.Run();
  EXPECT_EQ(inner_fired, 15);
}

TEST(EventLoopTest, NegativeDelayClampsToNow) {
  EventLoop loop;
  Micros fired_at = -1;
  loop.Schedule(100, [&]() {
    loop.Schedule(-50, [&]() { fired_at = loop.Now(); });
  });
  loop.Run();
  EXPECT_EQ(fired_at, 100);
}

TEST(EventLoopTest, CancelPreventsExecution) {
  EventLoop loop;
  bool fired = false;
  EventId id = loop.Schedule(100, [&]() { fired = true; });
  EXPECT_TRUE(loop.Cancel(id));
  loop.Run();
  EXPECT_FALSE(fired);
}

TEST(EventLoopTest, CancelTwiceReturnsFalse) {
  EventLoop loop;
  EventId id = loop.Schedule(100, []() {});
  EXPECT_TRUE(loop.Cancel(id));
  EXPECT_FALSE(loop.Cancel(id));
}

TEST(EventLoopTest, CancelUnknownIdIsNoop) {
  EventLoop loop;
  EXPECT_FALSE(loop.Cancel(kInvalidEvent));
  EXPECT_FALSE(loop.Cancel(9999));
}

TEST(EventLoopTest, CancelFiredEventReturnsFalse) {
  EventLoop loop;
  EventId id = loop.Schedule(10, []() {});
  loop.Run();
  EXPECT_FALSE(loop.Cancel(id));
}

TEST(EventLoopTest, RunUntilStopsAtBoundary) {
  EventLoop loop;
  int fired = 0;
  loop.Schedule(100, [&]() { fired++; });
  loop.Schedule(200, [&]() { fired++; });
  loop.Schedule(300, [&]() { fired++; });
  loop.RunUntil(200);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(loop.Now(), 200);
  loop.Run();
  EXPECT_EQ(fired, 3);
}

TEST(EventLoopTest, RunUntilAdvancesTimeWithNoEvents) {
  EventLoop loop;
  loop.RunUntil(5000);
  EXPECT_EQ(loop.Now(), 5000);
}

TEST(EventLoopTest, CountsProcessedEvents) {
  EventLoop loop;
  for (int i = 0; i < 7; ++i) loop.Schedule(i, []() {});
  loop.Run();
  EXPECT_EQ(loop.events_processed(), 7u);
}

TEST(EventLoopTest, ClearDropsPending) {
  EventLoop loop;
  bool fired = false;
  loop.Schedule(10, [&]() { fired = true; });
  loop.Clear();
  loop.Run();
  EXPECT_FALSE(fired);
}

TEST(EventLoopTest, StepRunsExactlyOne) {
  EventLoop loop;
  int fired = 0;
  loop.Schedule(1, [&]() { fired++; });
  loop.Schedule(2, [&]() { fired++; });
  EXPECT_TRUE(loop.Step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(loop.Step());
  EXPECT_FALSE(loop.Step());
  EXPECT_EQ(fired, 2);
}

TEST(EventLoopTest, ManyEventsStressOrdering) {
  EventLoop loop;
  Micros last = -1;
  bool monotonic = true;
  for (int i = 0; i < 10000; ++i) {
    loop.Schedule((i * 7919) % 1000, [&]() {
      if (loop.Now() < last) monotonic = false;
      last = loop.Now();
    });
  }
  loop.Run();
  EXPECT_TRUE(monotonic);
}

TEST(EventLoopTest, IdTakenBeforeClearCancelsNothingAfterIt) {
  EventLoop loop;
  std::vector<EventId> stale;
  for (int i = 0; i < 8; ++i) stale.push_back(loop.Schedule(i, []() {}));
  loop.Clear();
  EXPECT_TRUE(loop.Empty());
  int fired = 0;
  for (int i = 0; i < 8; ++i) loop.Schedule(i, [&]() { fired++; });
  for (EventId id : stale) EXPECT_FALSE(loop.Cancel(id));
  EXPECT_FALSE(loop.Empty());
  loop.Run();
  EXPECT_EQ(fired, 8);
}

TEST(EventLoopTest, FiredIdDoesNotCancelALaterEvent) {
  EventLoop loop;
  const EventId first = loop.Schedule(1, []() {});
  loop.Run();
  bool fired = false;
  const EventId second = loop.Schedule(1, [&]() { fired = true; });
  EXPECT_NE(first, second);
  EXPECT_FALSE(loop.Cancel(first));
  loop.Run();
  EXPECT_TRUE(fired);
}

TEST(EventLoopTest, CallbackIsDestroyedWhenItsEntrySurfaces) {
  EventLoop loop;
  auto token = std::make_shared<int>(0);
  const std::weak_ptr<int> watch = token;
  const EventId id = loop.Schedule(100, [token]() {});
  token.reset();
  loop.Schedule(50, []() {});
  EXPECT_TRUE(loop.Cancel(id));
  EXPECT_FALSE(watch.expired());  // cancelled, but still queued
  EXPECT_TRUE(loop.Step());        // fires the event at 50
  EXPECT_FALSE(watch.expired());
  EXPECT_FALSE(loop.Step());  // pops the cancelled entry, runs nothing
  EXPECT_TRUE(watch.expired());
}

// ---------------------------------------------------------------------------
// Reference model: the loop as it was before the slot slab — a
// priority_queue of copied events plus the `pending` and `cancelled` id
// sets. A seeded mix of operations is replayed against both loops and
// every observable must agree.
// ---------------------------------------------------------------------------

class ReferenceLoop {
 public:
  Micros Now() const { return now_; }

  EventId Schedule(Micros delay, std::function<void()> fn) {
    if (delay < 0) delay = 0;
    return ScheduleAt(now_ + delay, std::move(fn));
  }

  EventId ScheduleAt(Micros when, std::function<void()> fn) {
    if (when < now_) when = now_;
    const EventId id = next_id_++;
    queue_.push(Event{when, next_seq_++, id, std::move(fn)});
    pending_.insert(id);
    return id;
  }

  bool Cancel(EventId id) {
    if (id == kInvalidEvent || pending_.erase(id) == 0) return false;
    cancelled_.insert(id);
    return true;
  }

  bool Step() {
    while (!queue_.empty()) {
      Event ev = queue_.top();
      queue_.pop();
      if (cancelled_.erase(ev.id) > 0) continue;
      pending_.erase(ev.id);
      now_ = ev.when;
      ++events_processed_;
      ev.fn();
      return true;
    }
    return false;
  }

  uint64_t Run() {
    uint64_t n = 0;
    while (Step()) ++n;
    return n;
  }

  uint64_t RunUntil(Micros until) {
    uint64_t n = 0;
    while (!queue_.empty()) {
      const Event& top = queue_.top();
      if (cancelled_.count(top.id) > 0) {
        cancelled_.erase(top.id);
        queue_.pop();
        continue;
      }
      if (top.when > until) break;
      Step();
      ++n;
    }
    if (now_ < until) now_ = until;
    return n;
  }

  bool Empty() const { return queue_.size() == cancelled_.size(); }
  uint64_t events_processed() const { return events_processed_; }

  void Clear() {
    while (!queue_.empty()) queue_.pop();
    cancelled_.clear();
    pending_.clear();
  }

 private:
  struct Event {
    Micros when;
    uint64_t seq;
    EventId id;
    std::function<void()> fn;
  };
  struct EventCmp {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  Micros now_ = 0;
  uint64_t next_seq_ = 1;
  EventId next_id_ = 1;
  uint64_t events_processed_ = 0;
  std::priority_queue<Event, std::vector<Event>, EventCmp> queue_;
  std::unordered_set<EventId> cancelled_;
  std::unordered_set<EventId> pending_;
};

/// Drives one loop through a seeded operation mix and logs every
/// observable: which event fired at what time, each Cancel/Step/Run
/// result, Empty(), Now() and events_processed(). Both loops draw from
/// identically seeded generators, so their logs agree exactly when they
/// fire the same events in the same order and answer every call alike.
template <typename Loop>
class Replay {
 public:
  explicit Replay(uint64_t seed) : rng_(seed) {}

  std::vector<int64_t> Go(int steps) {
    for (int i = 0; i < steps; ++i) {
      const uint64_t op = rng_.NextU64(100);
      if (op < 35) {
        ScheduleOne();
      } else if (op < 55) {
        CancelOne();
      } else if (op < 70) {
        Log(1000, static_cast<int64_t>(
                      loop_.RunUntil(loop_.Now() + rng_.NextInt(-5, 40))));
      } else if (op < 90) {
        Log(1001, loop_.Step() ? 1 : 0);
      } else if (op < 93) {
        loop_.Clear();
        Log(1002, 0);
      } else {
        Log(1003, static_cast<int64_t>(loop_.Run()));
      }
      Observe();
    }
    Log(1003, static_cast<int64_t>(loop_.Run()));
    Observe();
    return log_;
  }

 private:
  /// Small delay alphabet: many ties on `when`, some negative delays.
  Micros Delay() {
    static constexpr Micros kDelays[] = {-7, 0, 0, 1, 3, 3, 10, 25};
    return kDelays[rng_.NextU64(sizeof(kDelays) / sizeof(kDelays[0]))];
  }

  void ScheduleOne() {
    const int64_t tag = next_tag_++;
    auto fn = [this, tag]() { Fire(tag); };
    if (rng_.NextBool(0.5)) {
      ids_.push_back(loop_.Schedule(Delay(), fn));
    } else {
      ids_.push_back(loop_.ScheduleAt(loop_.Now() + Delay(), fn));
    }
  }

  /// Cancels a live, fired, already-cancelled or reused-slot id (any
  /// earlier id, chosen at random), or an id no loop ever handed out.
  void CancelOne() {
    EventId id = kInvalidEvent;
    const uint64_t pick = rng_.NextU64(10);
    if (pick == 0) {
      id = kInvalidEvent;
    } else if (pick == 1) {
      id = ~EventId{0};
    } else if (!ids_.empty()) {
      id = ids_[rng_.NextU64(ids_.size())];
    }
    Log(2000, loop_.Cancel(id) ? 1 : 0);
  }

  void Fire(int64_t tag) {
    Log(tag, loop_.Now());
    const uint64_t nested = rng_.NextU64(4);
    for (uint64_t i = 0; i + 1 < nested; ++i) ScheduleOne();
    if (rng_.NextBool(0.3)) CancelOne();
    if (rng_.NextBool(0.01)) {
      loop_.Clear();
      Log(1002, 0);
    }
    Observe();
  }

  void Observe() {
    Log(3000, loop_.Empty() ? 1 : 0);
    Log(3001, loop_.Now());
    Log(3002, static_cast<int64_t>(loop_.events_processed()));
  }

  void Log(int64_t what, int64_t value) {
    log_.push_back(what);
    log_.push_back(value);
  }

  Loop loop_;
  Rng rng_;
  int64_t next_tag_ = 1'000'000;
  std::vector<EventId> ids_;
  std::vector<int64_t> log_;
};

TEST(EventLoopPropertyTest, MatchesReferenceLoop) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    const std::vector<int64_t> want = Replay<ReferenceLoop>(seed).Go(2000);
    const std::vector<int64_t> got = Replay<EventLoop>(seed).Go(2000);
    ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << "seed " << seed << " log entry " << i;
    }
  }
}

}  // namespace
}  // namespace sim
}  // namespace geotp
