// Group-commit tests: the GroupCommitter batching/durability state machine
// in isolation, and its integration in the data-source prepare path —
// batched prepares share one fsync, no waiter is acked before the shared
// flush completes, and a crash loses exactly the open batch. Also the
// simulated log device under it: completion order and counters.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "runtime/runtime.h"

#include "sim/event_loop.h"
#include "sim_fixture.h"
#include "storage/group_commit.h"

namespace geotp {
namespace {

using storage::GroupCommitConfig;
using storage::GroupCommitter;
using testing_support::MiniCluster;

TEST(SimStableStorageTest, OverlappingFlushesCompleteInDeadlineOrder) {
  sim::EventLoop loop;
  runtime::SimStableStorage device(&loop);
  std::vector<std::pair<std::string, Micros>> done;
  auto note = [&](const char* name) {
    return [&done, &loop, name]() { done.emplace_back(name, loop.Now()); };
  };
  device.Flush("aaaa", 300, note("slow"));
  device.Flush("bb", 100, [&]() {
    done.emplace_back("fast", loop.Now());
    // A completion may issue the next flush; it takes a freed slot.
    device.Flush("c", 100, note("chained"));
  });
  device.Flush("", 100, note("barrier"));
  EXPECT_EQ(device.fsyncs(), 0u);
  EXPECT_EQ(device.bytes_flushed(), 6u);
  loop.Run();
  const std::vector<std::pair<std::string, Micros>> want = {
      {"fast", 100}, {"barrier", 100}, {"chained", 200}, {"slow", 300}};
  EXPECT_EQ(done, want);
  EXPECT_EQ(device.fsyncs(), 4u);
  EXPECT_EQ(device.bytes_flushed(), 7u);
}

TEST(GroupCommitterTest, SameTickAppendsShareOneFsync) {
  sim::EventLoop loop;
  GroupCommitter committer(&loop, GroupCommitConfig());
  std::vector<Micros> done_at;
  for (int i = 0; i < 5; ++i) {
    committer.Append(2000, [&]() { done_at.push_back(loop.Now()); });
  }
  loop.Run();
  ASSERT_EQ(done_at.size(), 5u);
  for (Micros at : done_at) EXPECT_EQ(at, 2000);
  EXPECT_EQ(committer.stats().fsyncs, 1u);
  EXPECT_EQ(committer.stats().entries, 5u);
  EXPECT_EQ(committer.stats().max_batch_entries, 5u);
}

TEST(GroupCommitterTest, FlushDurationIsMaxOfBatchCosts) {
  sim::EventLoop loop;
  GroupCommitter committer(&loop, GroupCommitConfig());
  Micros cheap_done = 0;
  committer.Append(1000, [&]() { cheap_done = loop.Now(); });
  committer.Append(2200, [&]() {});
  loop.Run();
  // The cheap commit record waits for the batch's slowest entry.
  EXPECT_EQ(cheap_done, 2200);
  EXPECT_EQ(committer.stats().fsyncs, 1u);
}

TEST(GroupCommitterTest, BatchDelayWindowAccumulatesLateArrivals) {
  sim::EventLoop loop;
  GroupCommitConfig config;
  config.max_batch_delay = 500;
  GroupCommitter committer(&loop, config);
  std::vector<Micros> done_at;
  committer.Append(1000, [&]() { done_at.push_back(loop.Now()); });
  // Arrives inside the 500us window: joins the same batch.
  loop.Schedule(300, [&]() {
    committer.Append(1000, [&]() { done_at.push_back(loop.Now()); });
  });
  loop.Run();
  ASSERT_EQ(done_at.size(), 2u);
  // Window closes at 500, flush takes 1000: both durable at 1500.
  EXPECT_EQ(done_at[0], 1500);
  EXPECT_EQ(done_at[1], 1500);
  EXPECT_EQ(committer.stats().fsyncs, 1u);
}

TEST(GroupCommitterTest, FullBatchFlushesBeforeDelayExpires) {
  sim::EventLoop loop;
  GroupCommitConfig config;
  config.max_batch_delay = 10000;
  config.max_batch_size = 3;
  GroupCommitter committer(&loop, config);
  std::vector<Micros> done_at;
  for (int i = 0; i < 3; ++i) {
    committer.Append(1000, [&]() { done_at.push_back(loop.Now()); });
  }
  loop.Run();
  ASSERT_EQ(done_at.size(), 3u);
  for (Micros at : done_at) EXPECT_EQ(at, 1000);  // not 11000
}

TEST(GroupCommitterTest, SerialDeviceQueuesNextBatchBehindInFlightFlush) {
  sim::EventLoop loop;
  GroupCommitter committer(&loop, GroupCommitConfig());
  std::vector<Micros> done_at;
  committer.Append(1000, [&]() { done_at.push_back(loop.Now()); });
  // Arrives while the first flush occupies the device: next batch.
  loop.Schedule(400, [&]() {
    committer.Append(1000, [&]() { done_at.push_back(loop.Now()); });
  });
  loop.Run();
  ASSERT_EQ(done_at.size(), 2u);
  EXPECT_EQ(done_at[0], 1000);
  EXPECT_EQ(done_at[1], 2000);  // device freed at 1000, +1000 flush
  EXPECT_EQ(committer.stats().fsyncs, 2u);
}

TEST(GroupCommitterTest, BusyDeviceBacklogDrainsInMaxBatchSizeChunks) {
  sim::EventLoop loop;
  GroupCommitConfig config;
  config.max_batch_size = 2;
  GroupCommitter committer(&loop, config);
  std::vector<Micros> done_at;
  committer.Append(1000, [&]() { done_at.push_back(loop.Now()); });
  // Five entries arrive while the first flush occupies the device: they
  // drain behind it in ceil(5/2) = 3 batches, not one oversized flush.
  loop.Schedule(500, [&]() {
    for (int i = 0; i < 5; ++i) {
      committer.Append(1000, [&]() { done_at.push_back(loop.Now()); });
    }
  });
  loop.Run();
  ASSERT_EQ(done_at.size(), 6u);
  EXPECT_EQ(done_at[0], 1000);
  EXPECT_EQ(done_at[5], 4000);  // three further serial flushes
  EXPECT_EQ(committer.stats().fsyncs, 4u);
  EXPECT_EQ(committer.stats().max_batch_entries, 2u);
}

TEST(GroupCommitterTest, ResetDropsOpenBatchAndInFlightFlush) {
  sim::EventLoop loop;
  GroupCommitConfig config;
  config.max_batch_delay = 500;
  GroupCommitter committer(&loop, config);
  int fired = 0;
  committer.Append(1000, [&]() { fired++; });
  loop.Schedule(100, [&]() { committer.Reset(); });  // crash mid-window
  loop.Run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(committer.stats().fsyncs, 0u);
  // The committer keeps working after the crash.
  committer.Append(1000, [&]() { fired++; });
  loop.Run();
  EXPECT_EQ(fired, 1);
}

TEST(GroupCommitterTest, DisabledModeFsyncsEveryEntryIndependently) {
  sim::EventLoop loop;
  GroupCommitConfig config;
  config.enabled = false;
  GroupCommitter committer(&loop, config);
  std::vector<Micros> done_at;
  for (int i = 0; i < 4; ++i) {
    committer.Append(2000, [&]() { done_at.push_back(loop.Now()); });
  }
  loop.Run();
  ASSERT_EQ(done_at.size(), 4u);
  for (Micros at : done_at) EXPECT_EQ(at, 2000);  // parallel, not queued
  EXPECT_EQ(committer.stats().fsyncs, 4u);
}

// ---------------------------------------------------------------------------
// Integration: the data-source prepare/commit path
// ---------------------------------------------------------------------------

MiniCluster::Options GeoTpOptions() {
  MiniCluster::Options options;
  // O1 preset: decentralized prepare with immediate dispatch — no
  // latency-aware postponing, so the probe timings below are exact.
  options.dm = middleware::MiddlewareConfig::GeoTPO1();
  return options;
}

TEST(GroupCommitIntegrationTest, ConcurrentPreparesShareTheFsync) {
  MiniCluster cluster(GeoTpOptions());
  // Two distributed transactions over the same two sources, submitted in
  // the same tick: their prepare records at each source share one flush.
  cluster.SendRound(1, {
      MiniCluster::Write(cluster.KeyOn(0, 1), 10),
      MiniCluster::Write(cluster.KeyOn(1, 1), 20),
  }, true);
  cluster.SendRound(2, {
      MiniCluster::Write(cluster.KeyOn(0, 2), 30),
      MiniCluster::Write(cluster.KeyOn(1, 2), 40),
  }, true);
  cluster.RunFor(1000);
  ASSERT_EQ(cluster.source(0).engine().PreparedXids().size(), 2u);
  const auto& gc = cluster.source(0).committer().stats();
  EXPECT_EQ(gc.entries, 2u);
  EXPECT_EQ(gc.fsyncs, 1u);
  EXPECT_EQ(gc.max_batch_entries, 2u);
  // WAL accounting matches: two prepare records, one physical flush.
  EXPECT_EQ(cluster.source(0).engine().wal().fsyncs(), 1u);
}

TEST(GroupCommitIntegrationTest, NoVoteBeforeSharedFsyncCompletes) {
  MiniCluster cluster(GeoTpOptions());
  cluster.SendRound(1, {
      MiniCluster::Write(cluster.KeyOn(0, 1), 10),
      MiniCluster::Write(cluster.KeyOn(1, 1), 20),
  }, true);
  cluster.SendRound(2, {
      MiniCluster::Write(cluster.KeyOn(0, 2), 30),
      MiniCluster::Write(cluster.KeyOn(1, 2), 40),
  }, true);
  // Probe just before each source's batched prepare flush can have
  // completed: request dispatch costs the DM analysis (300us) plus one-way
  // WAN (5ms to source 0), execution costs one write (420us), the agent
  // LAN hop 300us, and the shared prepare fsync 2200us. No branch may be
  // PREPARED (= vote reportable) until the whole flush is done, even
  // though both branches already finished executing.
  cluster.RunFor(8.0);  // past exec + LAN at source 0, inside the fsync
  EXPECT_EQ(cluster.source(0).engine().PreparedXids().size(), 0u);
  EXPECT_EQ(cluster.source(0).committer().pending(), 2u);
  cluster.RunFor(3.0);  // fsync complete
  EXPECT_EQ(cluster.source(0).engine().PreparedXids().size(), 2u);
  EXPECT_EQ(cluster.source(0).committer().stats().fsyncs, 1u);
  // Both transactions commit normally afterwards.
  cluster.RunFor(3000);
  cluster.SendCommit(1);
  cluster.SendCommit(2);
  cluster.RunFor(3000);
  EXPECT_TRUE(cluster.txn(1).result.ok());
  EXPECT_TRUE(cluster.txn(2).result.ok());
}

TEST(GroupCommitIntegrationTest, DmDecisionLogSharesFlushes) {
  MiniCluster cluster(GeoTpOptions());
  cluster.SendRound(1, {
      MiniCluster::Write(cluster.KeyOn(0, 1), 10),
      MiniCluster::Write(cluster.KeyOn(1, 1), 20),
  }, true);
  cluster.SendRound(2, {
      MiniCluster::Write(cluster.KeyOn(0, 2), 30),
      MiniCluster::Write(cluster.KeyOn(1, 2), 40),
  }, true);
  cluster.RunFor(500);
  // Both vote sets complete; the commits arrive in the same tick, so the
  // two FlushLog calls share one decision-log flush.
  cluster.SendCommit(1);
  cluster.SendCommit(2);
  cluster.RunFor(3000);
  ASSERT_TRUE(cluster.txn(1).result.ok());
  ASSERT_TRUE(cluster.txn(2).result.ok());
  EXPECT_EQ(cluster.dm().decision_log().size(), 2u);
  EXPECT_EQ(cluster.dm().stats().log_entries_flushed, 2u);
  EXPECT_EQ(cluster.dm().stats().log_flushes, 1u);
  // The two same-destination commit decisions left as one batch envelope.
  EXPECT_GE(cluster.dm().stats().decision_batches_sent, 1u);
}

}  // namespace
}  // namespace geotp
