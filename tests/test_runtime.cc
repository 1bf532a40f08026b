// Interface-contract tests for the runtime seams (ISSUE: both backends
// must honor the same ITimer / ITransport / IStableStorage semantics).
//
// Each contract runs against BOTH implementations:
//   * SimRuntime — the virtual-time event loop + simulated network;
//   * LoopbackRuntime — real threads, TCP loopback sockets, real files.
// plus a codec section that round-trips every MessageType through the
// loopback wire format (a message added without codec support fails here,
// not at runtime in the smoke).
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "baselines/store_messages.h"
#include "common/compress.h"
#include "gtest/gtest.h"
#include "protocol/messages.h"
#include "protocol/wan_codec.h"
#include "runtime/codec.h"
#include "runtime/loopback_runtime.h"
#include "runtime/runtime.h"
#include "runtime/sim_runtime.h"
#include "sim/event_loop.h"
#include "sim/latency.h"
#include "sim/network.h"

namespace geotp {
namespace runtime {
namespace {

// ---------------------------------------------------------------------------
// Backend harness: builds a runtime, runs a body, then waits for a
// condition — virtually (RunUntil) for sim, in real time for loopback.
// ---------------------------------------------------------------------------

class BackendHarness {
 public:
  virtual ~BackendHarness() = default;
  virtual Runtime* runtime() = 0;
  /// Blocks until `done` returns true (or a generous deadline expires).
  virtual void RunUntilTrue(std::function<bool()> done) = 0;
};

class SimHarness : public BackendHarness {
 public:
  SimHarness()
      : matrix_(8), network_(&loop_, matrix_, /*seed=*/1),
        runtime_(&loop_, &network_) {}

  Runtime* runtime() override { return &runtime_; }
  void RunUntilTrue(std::function<bool()> done) override {
    // Virtual time is free: march forward until the condition holds.
    for (int i = 0; i < 1000 && !done(); ++i) {
      loop_.RunUntil(loop_.Now() + MsToMicros(10));
    }
  }

 private:
  sim::LatencyMatrix matrix_;
  sim::EventLoop loop_;
  sim::Network network_;
  SimRuntime runtime_;
};

class LoopbackHarness : public BackendHarness {
 public:
  LoopbackHarness() {
    LoopbackConfig config;
    config.data_dir =
        ::testing::TempDir() + "geotp-runtime-contract";
    runtime_ = std::make_unique<LoopbackRuntime>(config);
    // Single-process: every node is local, no routes needed.
  }
  ~LoopbackHarness() override { runtime_->Shutdown(); }

  Runtime* runtime() override { return runtime_.get(); }
  void RunUntilTrue(std::function<bool()> done) override {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!done() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

 private:
  std::unique_ptr<LoopbackRuntime> runtime_;
};

enum class Backend { kSim, kLoopback };

std::unique_ptr<BackendHarness> MakeHarness(Backend backend) {
  if (backend == Backend::kSim) return std::make_unique<SimHarness>();
  return std::make_unique<LoopbackHarness>();
}

class RuntimeContractTest : public ::testing::TestWithParam<Backend> {};

// ---------------------------------------------------------------------------
// ITimer contracts
// ---------------------------------------------------------------------------

TEST_P(RuntimeContractTest, TimersFireInDeadlineOrder) {
  auto harness = MakeHarness(GetParam());
  ITimer* timer = harness->runtime()->TimerFor(1);

  std::mutex mu;
  std::vector<int> order;
  std::atomic<int> fired{0};
  auto record = [&](int tag) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(tag);
    fired.fetch_add(1);
  };
  // Scheduled out of order; must fire in deadline order.
  timer->Schedule(MsToMicros(30), [&]() { record(3); });
  timer->Schedule(MsToMicros(10), [&]() { record(1); });
  timer->Schedule(MsToMicros(20), [&]() { record(2); });

  harness->RunUntilTrue([&]() { return fired.load() == 3; });
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST_P(RuntimeContractTest, SameDeadlineTimersFireFifo) {
  auto harness = MakeHarness(GetParam());
  ITimer* timer = harness->runtime()->TimerFor(1);

  std::mutex mu;
  std::vector<int> order;
  std::atomic<int> fired{0};
  auto record = [&](int tag) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(tag);
    fired.fetch_add(1);
  };
  const Micros when = timer->Now() + MsToMicros(5);
  for (int i = 0; i < 4; ++i) {
    timer->ScheduleAt(when, [&, i]() { record(i); });
  }

  harness->RunUntilTrue([&]() { return fired.load() == 4; });
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST_P(RuntimeContractTest, ClockIsMonotonicAcrossCallbacks) {
  auto harness = MakeHarness(GetParam());
  ITimer* timer = harness->runtime()->TimerFor(1);

  std::atomic<bool> monotonic{true};
  std::atomic<int> fired{0};
  auto last = std::make_shared<std::atomic<Micros>>(timer->Now());
  for (int i = 1; i <= 5; ++i) {
    timer->Schedule(MsToMicros(i * 2), [&, last]() {
      const Micros now = timer->Now();
      if (now < last->load()) monotonic.store(false);
      last->store(now);
      fired.fetch_add(1);
    });
  }
  harness->RunUntilTrue([&]() { return fired.load() == 5; });
  EXPECT_TRUE(monotonic.load());
}

TEST_P(RuntimeContractTest, CancelledTimerNeverFires) {
  auto harness = MakeHarness(GetParam());
  ITimer* timer = harness->runtime()->TimerFor(1);

  std::atomic<bool> cancelled_fired{false};
  std::atomic<bool> sentinel_fired{false};
  const TimerId id = timer->Schedule(MsToMicros(5), [&]() {
    cancelled_fired.store(true);
  });
  EXPECT_TRUE(timer->Cancel(id));
  EXPECT_FALSE(timer->Cancel(id));  // second cancel is a no-op
  // A later sentinel proves time advanced past the cancelled deadline.
  timer->Schedule(MsToMicros(20), [&]() { sentinel_fired.store(true); });

  harness->RunUntilTrue([&]() { return sentinel_fired.load(); });
  EXPECT_TRUE(sentinel_fired.load());
  EXPECT_FALSE(cancelled_fired.load());
}

// ---------------------------------------------------------------------------
// ITransport contracts
// ---------------------------------------------------------------------------

TEST_P(RuntimeContractTest, DeliversMessagesWithEnvelopeIntact) {
  auto harness = MakeHarness(GetParam());
  ITransport* transport = harness->runtime()->transport();

  std::mutex mu;
  std::vector<uint64_t> received;
  std::atomic<int> count{0};
  transport->RegisterNode(2, [&](std::unique_ptr<MessageBase> msg) {
    ASSERT_EQ(msg->type(), MessageType::kPingRequest);
    auto& ping = static_cast<protocol::PingRequest&>(*msg);
    EXPECT_EQ(ping.from, 1);
    EXPECT_EQ(ping.to, 2);
    std::lock_guard<std::mutex> lock(mu);
    received.push_back(ping.seq);
    count.fetch_add(1);
  });
  transport->RegisterNode(1, [](std::unique_ptr<MessageBase>) {});

  for (uint64_t seq = 1; seq <= 8; ++seq) {
    auto ping = std::make_unique<protocol::PingRequest>();
    ping->from = 1;
    ping->to = 2;
    ping->seq = seq;
    transport->Send(std::move(ping));
  }

  harness->RunUntilTrue([&]() { return count.load() == 8; });
  std::lock_guard<std::mutex> lock(mu);
  // Same-pair messages keep their send order on both backends.
  EXPECT_EQ(received, (std::vector<uint64_t>{1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST_P(RuntimeContractTest, RequestResponseAcrossTwoNodes) {
  auto harness = MakeHarness(GetParam());
  ITransport* transport = harness->runtime()->transport();

  std::atomic<bool> ponged{false};
  transport->RegisterNode(2, [&](std::unique_ptr<MessageBase> msg) {
    auto& ping = static_cast<protocol::PingRequest&>(*msg);
    auto pong = std::make_unique<protocol::PingResponse>();
    pong->from = 2;
    pong->to = ping.from;
    pong->seq = ping.seq;
    transport->Send(std::move(pong));
  });
  transport->RegisterNode(1, [&](std::unique_ptr<MessageBase> msg) {
    EXPECT_EQ(msg->type(), MessageType::kPingResponse);
    EXPECT_EQ(static_cast<protocol::PingResponse&>(*msg).seq, 7u);
    ponged.store(true);
  });

  auto ping = std::make_unique<protocol::PingRequest>();
  ping->from = 1;
  ping->to = 2;
  ping->seq = 7;
  transport->Send(std::move(ping));

  harness->RunUntilTrue([&]() { return ponged.load(); });
  EXPECT_TRUE(ponged.load());
}

// ---------------------------------------------------------------------------
// IStableStorage contracts
// ---------------------------------------------------------------------------

TEST_P(RuntimeContractTest, StorageFlushCompletesAndCounts) {
  auto harness = MakeHarness(GetParam());
  Runtime* rt = harness->runtime();
  std::unique_ptr<IStableStorage> device = rt->OpenStorage(1, "contract.log");

  std::atomic<int> durable{0};
  device->Flush("alpha", MsToMicros(1), [&]() { durable.fetch_add(1); });
  device->Flush("beta", MsToMicros(1), [&]() { durable.fetch_add(1); });

  harness->RunUntilTrue([&]() { return durable.load() == 2; });
  EXPECT_EQ(durable.load(), 2);
  EXPECT_EQ(device->fsyncs(), 2u);
  EXPECT_EQ(device->bytes_flushed(), 9u);  // "alpha" + "beta"
}

INSTANTIATE_TEST_SUITE_P(Backends, RuntimeContractTest,
                         ::testing::Values(Backend::kSim, Backend::kLoopback),
                         [](const ::testing::TestParamInfo<Backend>& info) {
                           return info.param == Backend::kSim ? "Sim"
                                                              : "Loopback";
                         });

// ---------------------------------------------------------------------------
// Codec: every MessageType round-trips bit-stably.
//
// Equality via re-encoding: decode(encode(m)) must re-encode to the same
// bytes, which covers every serialized field without per-type comparators.
// ---------------------------------------------------------------------------

void ExpectRoundTrip(const MessageBase& msg) {
  const std::string bytes = EncodeMessage(msg);
  std::unique_ptr<MessageBase> decoded = DecodeMessage(bytes);
  ASSERT_NE(decoded, nullptr)
      << "decode failed for type " << static_cast<int>(msg.type());
  EXPECT_EQ(decoded->type(), msg.type());
  EXPECT_EQ(decoded->from, msg.from);
  EXPECT_EQ(decoded->to, msg.to);
  EXPECT_EQ(EncodeMessage(*decoded), bytes)
      << "re-encode mismatch for type " << static_cast<int>(msg.type());

  // Truncation at every boundary must fail cleanly, never crash or
  // accept a partial message.
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_EQ(DecodeMessage(bytes.substr(0, cut)), nullptr)
        << "truncated decode succeeded at " << cut << "/" << bytes.size();
  }
}

template <typename T>
std::unique_ptr<T> Stamped() {
  auto msg = std::make_unique<T>();
  msg->from = 3;
  msg->to = 9;
  return msg;
}

protocol::ClientOp SampleOp() {
  protocol::ClientOp op;
  op.key = RecordKey{1, 42};
  op.is_write = true;
  op.value = -7;
  op.is_delta = true;
  return op;
}

sharding::ShardRange SampleRange() {
  sharding::ShardRange range;
  range.table = 1;
  range.lo = 100;
  range.hi = 200;
  range.owner = 4;
  range.version = 9;
  return range;
}

protocol::ReplEntry SampleEntry(bool with_migration) {
  protocol::ReplEntry entry;
  entry.index = 11;
  entry.epoch = 2;
  entry.type = protocol::ReplEntryType::kCommit;
  entry.xid = Xid{77, 3};
  entry.coordinator = 1;
  entry.writes.push_back(protocol::ReplWrite{RecordKey{1, 5}, 50});
  entry.writes.push_back(protocol::ReplWrite{RecordKey{1, 6}, -3});
  entry.at = 12345;
  if (with_migration) {
    protocol::MigrationRecord record;
    record.migration_id = 8;
    record.range = SampleRange();
    record.dest = 5;
    record.dest_leader = 6;
    record.new_version = 10;
    record.balancer = 1;
    record.timeout = MsToMicros(500);
    record.delta_next_seq = 4;
    entry.migration =
        std::make_shared<const protocol::MigrationRecord>(record);
  }
  entry.ingest_migration_id = 8;
  entry.ingest_chunk_seq = 2;
  entry.ingest_content_hash = 0x9e3779b97f4a7c15ull;
  return entry;
}

TEST(RuntimeCodecTest, ClientMessagesRoundTrip) {
  auto round = Stamped<protocol::ClientRoundRequest>();
  round->client_tag = 5;
  round->txn_id = 99;
  round->tenant = 7;
  round->ops = {SampleOp(), SampleOp()};
  round->last_round = true;
  ExpectRoundTrip(*round);

  auto resp = Stamped<protocol::ClientRoundResponse>();
  resp->client_tag = 5;
  resp->txn_id = 99;
  resp->status = Status::Aborted("deadlock victim");
  resp->values = {1, -2, 3};
  ExpectRoundTrip(*resp);

  auto finish = Stamped<protocol::ClientFinishRequest>();
  finish->client_tag = 5;
  finish->txn_id = 99;
  finish->commit = false;
  ExpectRoundTrip(*finish);

  auto result = Stamped<protocol::ClientTxnResult>();
  result->client_tag = 5;
  result->txn_id = 99;
  result->status = Status::TimedOut("lock wait");
  ExpectRoundTrip(*result);

  auto shed = Stamped<protocol::OverloadedResponse>();
  shed->client_tag = 5;
  shed->tenant = 7;
  shed->retry_after_hint = MsToMicros(25);
  ExpectRoundTrip(*shed);
}

// The trace context is an envelope-level field: every message carries one
// absence byte when unsampled, or the three span ids when sampled. Both
// shapes must round-trip bit-stably on any message type.
TEST(RuntimeCodecTest, TraceContextRoundTrip) {
  auto bare = Stamped<protocol::BranchExecuteRequest>();
  bare->xid = Xid{99, 2};
  bare->ops = {SampleOp()};
  ExpectRoundTrip(*bare);
  const std::string without = EncodeMessage(*bare);

  auto traced = Stamped<protocol::BranchExecuteRequest>();
  traced->xid = Xid{99, 2};
  traced->ops = {SampleOp()};
  traced->trace =
      obs::TraceContext{0xfeedface12345678ull, 0x1111ull, 0x2222ull};
  ExpectRoundTrip(*traced);
  const std::string with = EncodeMessage(*traced);

  // Unsampled costs exactly one absence byte; sampling adds the 3 ids.
  EXPECT_EQ(with.size(), without.size() + 3 * sizeof(uint64_t));

  std::unique_ptr<MessageBase> decoded = DecodeMessage(with);
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(decoded->trace.trace_id, traced->trace.trace_id);
  EXPECT_EQ(decoded->trace.span_id, traced->trace.span_id);
  EXPECT_EQ(decoded->trace.parent_span_id, traced->trace.parent_span_id);

  std::unique_ptr<MessageBase> decoded_bare = DecodeMessage(without);
  ASSERT_NE(decoded_bare, nullptr);
  EXPECT_FALSE(decoded_bare->trace.valid());

  // Same invariants on a client-facing envelope.
  auto round = Stamped<protocol::ClientRoundRequest>();
  round->txn_id = 7;
  round->ops = {SampleOp()};
  round->trace = obs::TraceContext{0xabcull, 0xdefull, 0x123ull};
  ExpectRoundTrip(*round);
  std::unique_ptr<MessageBase> round_decoded =
      DecodeMessage(EncodeMessage(*round));
  ASSERT_NE(round_decoded, nullptr);
  EXPECT_EQ(round_decoded->trace.trace_id, round->trace.trace_id);
}

TEST(RuntimeCodecTest, BranchMessagesRoundTrip) {
  auto exec = Stamped<protocol::BranchExecuteRequest>();
  exec->xid = Xid{99, 2};
  exec->round_seq = 3;
  exec->begin_branch = true;
  exec->ops = {SampleOp()};
  exec->last_statement = true;
  exec->peers = {2, 3, 4};
  exec->coordinator = 1;
  ExpectRoundTrip(*exec);

  auto exec_resp = Stamped<protocol::BranchExecuteResponse>();
  exec_resp->xid = Xid{99, 2};
  exec_resp->round_seq = 3;
  exec_resp->status = Status::Conflict("version check");
  exec_resp->values = {17};
  exec_resp->local_exec_latency = 250;
  exec_resp->rolled_back = true;
  ExpectRoundTrip(*exec_resp);

  auto prepare = Stamped<protocol::PrepareRequest>();
  prepare->xid = Xid{99, 2};
  ExpectRoundTrip(*prepare);

  auto batch = Stamped<protocol::PrepareBatch>();
  batch->xids = {Xid{99, 2}, Xid{100, 3}};
  ExpectRoundTrip(*batch);

  auto vote = Stamped<protocol::VoteMessage>();
  vote->xid = Xid{99, 2};
  vote->vote = protocol::Vote::kRollbackOnly;
  ExpectRoundTrip(*vote);

  auto decision = Stamped<protocol::DecisionRequest>();
  decision->xid = Xid{99, 2};
  decision->commit = false;
  decision->one_phase = true;
  ExpectRoundTrip(*decision);

  auto decisions = Stamped<protocol::DecisionBatch>();
  decisions->items = {protocol::DecisionItem{Xid{99, 2}, true, false},
                      protocol::DecisionItem{Xid{100, 3}, false, true}};
  ExpectRoundTrip(*decisions);

  auto ack = Stamped<protocol::DecisionAck>();
  ack->xid = Xid{99, 2};
  ack->committed = true;
  ack->one_phase = true;
  ack->status = Status::OK();
  ExpectRoundTrip(*ack);

  auto peer_abort = Stamped<protocol::PeerAbortRequest>();
  peer_abort->txn_id = 99;
  peer_abort->origin = 4;
  ExpectRoundTrip(*peer_abort);
}

TEST(RuntimeCodecTest, ReplicationMessagesRoundTrip) {
  auto append = Stamped<protocol::ReplAppendRequest>();
  append->group = 2;
  append->epoch = 3;
  append->prev_index = 10;
  append->prev_epoch = 2;
  append->entries = {SampleEntry(false), SampleEntry(true)};
  append->commit_watermark = 9;
  append->compact_floor = 5;
  ExpectRoundTrip(*append);

  // The sealed shape: entries packed and compressed into the envelope.
  // Framing must carry the codec/length/hash fields bit-stably — they are
  // what the receiver's bounds and corruption checks run against.
  auto sealed = Stamped<protocol::ReplAppendRequest>();
  sealed->group = 2;
  sealed->epoch = 3;
  sealed->prev_index = 10;
  sealed->prev_epoch = 2;
  for (int i = 0; i < 8; ++i) sealed->entries.push_back(SampleEntry(false));
  sealed->commit_watermark = 9;
  protocol::SealAppendPayload(common::WireCodec::kBlock, sealed.get());
  EXPECT_TRUE(sealed->entries.empty());
  EXPECT_FALSE(sealed->payload.empty());
  ExpectRoundTrip(*sealed);

  auto append_ack = Stamped<protocol::ReplAppendAck>();
  append_ack->group = 2;
  append_ack->epoch = 3;
  append_ack->ack_index = 12;
  append_ack->ok = false;
  append_ack->codec_mask = common::SupportedCodecMask();
  ExpectRoundTrip(*append_ack);

  auto vote_req = Stamped<protocol::ReplVoteRequest>();
  vote_req->group = 2;
  vote_req->epoch = 4;
  vote_req->last_log_epoch = 3;
  vote_req->last_log_index = 12;
  ExpectRoundTrip(*vote_req);

  auto vote_resp = Stamped<protocol::ReplVoteResponse>();
  vote_resp->group = 2;
  vote_resp->epoch = 4;
  vote_resp->granted = true;
  vote_resp->voter_last_index = 11;
  ExpectRoundTrip(*vote_resp);

  auto announce = Stamped<protocol::LeaderAnnounce>();
  announce->group = 2;
  announce->epoch = 4;
  announce->leader = 5;
  ExpectRoundTrip(*announce);

  auto not_leader = Stamped<protocol::NotLeaderResponse>();
  not_leader->group = 2;
  not_leader->epoch = 4;
  not_leader->leader_hint = 5;
  ExpectRoundTrip(*not_leader);

  auto follower_read = Stamped<protocol::FollowerReadRequest>();
  follower_read->group = 2;
  follower_read->txn_id = 99;
  follower_read->round_seq = 1;
  follower_read->keys = {RecordKey{1, 5}, RecordKey{1, 6}};
  follower_read->max_staleness = MsToMicros(50);
  ExpectRoundTrip(*follower_read);

  auto follower_resp = Stamped<protocol::FollowerReadResponse>();
  follower_resp->group = 2;
  follower_resp->txn_id = 99;
  follower_resp->round_seq = 1;
  follower_resp->ok = true;
  follower_resp->staleness = 120;
  follower_resp->values = {4, 5};
  ExpectRoundTrip(*follower_resp);
}

TEST(RuntimeCodecTest, ShardingMessagesRoundTrip) {
  auto migrate = Stamped<protocol::ShardMigrateRequest>();
  migrate->migration_id = 8;
  migrate->range = SampleRange();
  migrate->dest = 5;
  migrate->dest_leader = 6;
  migrate->new_version = 10;
  migrate->timeout = MsToMicros(500);
  ExpectRoundTrip(*migrate);

  auto cancel = Stamped<protocol::ShardMigrateCancel>();
  cancel->migration_id = 8;
  ExpectRoundTrip(*cancel);

  auto chunk = Stamped<protocol::ShardSnapshotChunk>();
  chunk->migration_id = 8;
  chunk->group = 5;
  chunk->range = SampleRange();
  chunk->seq = 3;
  chunk->last = true;
  chunk->epoch = 2;
  chunk->base_index = 40;
  chunk->base_epoch = 2;
  chunk->records = {protocol::ReplWrite{RecordKey{1, 7}, 70}};
  ExpectRoundTrip(*chunk);

  // Sealed (compressed) chunk: the envelope fields ride the same frame.
  auto sealed_chunk = Stamped<protocol::ShardSnapshotChunk>();
  sealed_chunk->migration_id = 8;
  sealed_chunk->group = 5;
  sealed_chunk->range = SampleRange();
  sealed_chunk->seq = 4;
  for (uint64_t k = 0; k < 64; ++k) {
    sealed_chunk->records.push_back(
        protocol::ReplWrite{RecordKey{1, 100 + k}, static_cast<int64_t>(k)});
  }
  protocol::SealChunkPayload(common::WireCodec::kBlock, sealed_chunk.get());
  EXPECT_TRUE(sealed_chunk->records.empty());
  EXPECT_NE(sealed_chunk->content_hash, 0u);
  ExpectRoundTrip(*sealed_chunk);

  auto chunk_ack = Stamped<protocol::ShardSnapshotAck>();
  chunk_ack->migration_id = 8;
  chunk_ack->seq = 3;
  chunk_ack->credit = 4;
  chunk_ack->codec_mask = common::SupportedCodecMask();
  ExpectRoundTrip(*chunk_ack);

  auto offer = Stamped<protocol::ShardSeedOffer>();
  offer->migration_id = 8;
  offer->group = 5;
  offer->range = SampleRange();
  offer->epoch = 2;
  offer->base_index = 40;
  offer->base_epoch = 2;
  for (uint64_t seq = 1; seq <= 3; ++seq) {
    protocol::SeedDigest digest;
    digest.seq = seq;
    digest.hash = 0x1000 + seq;
    digest.lo = RecordKey{1, 100 * seq};
    digest.hi = RecordKey{1, 100 * seq + 99};
    digest.last = seq == 3;
    offer->digests.push_back(digest);
  }
  ExpectRoundTrip(*offer);

  auto decline = Stamped<protocol::ShardSeedDecline>();
  decline->migration_id = 8;
  decline->group = 5;
  decline->epoch = 2;
  decline->declined = {1, 2};
  decline->delta_seq = 7;
  decline->credit = 3;
  decline->codec_mask = common::SupportedCodecMask();
  ExpectRoundTrip(*decline);

  auto delta = Stamped<protocol::ShardDeltaBatch>();
  delta->migration_id = 8;
  delta->seq = 2;
  delta->writes = {protocol::ReplWrite{RecordKey{1, 8}, 80}};
  ExpectRoundTrip(*delta);

  auto delta_ack = Stamped<protocol::ShardDeltaAck>();
  delta_ack->migration_id = 8;
  delta_ack->seq = 2;
  ExpectRoundTrip(*delta_ack);

  auto cutover = Stamped<protocol::ShardCutoverReady>();
  cutover->migration_id = 8;
  cutover->range = SampleRange();
  cutover->logged = true;
  ExpectRoundTrip(*cutover);

  auto aborted = Stamped<protocol::ShardMigrateAborted>();
  aborted->migration_id = 8;
  ExpectRoundTrip(*aborted);

  auto map_update = Stamped<protocol::ShardMapUpdate>();
  map_update->entries = {SampleRange(), SampleRange()};
  ExpectRoundTrip(*map_update);

  auto redirect = Stamped<protocol::ShardRedirect>();
  redirect->txn_id = 99;
  redirect->round_seq = 2;
  redirect->entry = SampleRange();
  ExpectRoundTrip(*redirect);
}

TEST(RuntimeCodecTest, MonitorMessagesRoundTrip) {
  auto ping = Stamped<protocol::PingRequest>();
  ping->seq = 12;
  ping->sent_at = 3456;
  ping->shard_epoch = 2;
  ExpectRoundTrip(*ping);

  auto pong = Stamped<protocol::PingResponse>();
  pong->seq = 12;
  pong->sent_at = 3456;
  pong->inflight = 17;
  pong->run_queue = 9;
  pong->run_queue_limit = 32;
  pong->shard_epoch = 3;
  pong->map_entries = {SampleRange()};
  ExpectRoundTrip(*pong);
}

TEST(RuntimeCodecTest, BaselineStoreMessagesRoundTrip) {
  baselines::StagedOp staged;
  staged.key = RecordKey{1, 9};
  staged.expected_version = 4;
  staged.is_write = true;
  staged.write_value = 90;

  auto read_req = Stamped<baselines::StoreReadRequest>();
  read_req->txn = 99;
  read_req->req_id = 1;
  read_req->keys = {RecordKey{1, 9}};
  ExpectRoundTrip(*read_req);

  auto read_resp = Stamped<baselines::StoreReadResponse>();
  read_resp->txn = 99;
  read_resp->req_id = 1;
  read_resp->status = Status::OK();
  read_resp->results = {baselines::ReadResult{90, 4}};
  ExpectRoundTrip(*read_resp);

  auto prep = Stamped<baselines::StorePrepareRequest>();
  prep->txn = 99;
  prep->ops = {staged};
  ExpectRoundTrip(*prep);

  auto prep_resp = Stamped<baselines::StorePrepareResponse>();
  prep_resp->txn = 99;
  prep_resp->status = Status::Conflict("stale version");
  ExpectRoundTrip(*prep_resp);

  auto store_decision = Stamped<baselines::StoreDecisionRequest>();
  store_decision->txn = 99;
  store_decision->commit = false;
  ExpectRoundTrip(*store_decision);

  auto store_ack = Stamped<baselines::StoreDecisionAck>();
  store_ack->txn = 99;
  store_ack->commit = false;
  ExpectRoundTrip(*store_ack);

  auto yb_batch = Stamped<baselines::YbBatchRequest>();
  yb_batch->txn = 99;
  yb_batch->req_id = 2;
  yb_batch->ops = {staged};
  ExpectRoundTrip(*yb_batch);

  auto yb_resp = Stamped<baselines::YbBatchResponse>();
  yb_resp->txn = 99;
  yb_resp->req_id = 2;
  yb_resp->status = Status::OK();
  yb_resp->results = {baselines::ReadResult{90, 4}};
  ExpectRoundTrip(*yb_resp);

  auto resolve = Stamped<baselines::YbResolveRequest>();
  resolve->txn = 99;
  resolve->commit = true;
  ExpectRoundTrip(*resolve);
}

TEST(RuntimeCodecTest, MalformedInputDecodesToNull) {
  EXPECT_EQ(DecodeMessage(""), nullptr);
  EXPECT_EQ(DecodeMessage("x"), nullptr);
  // Unknown type tag.
  std::string junk(10, '\xff');
  EXPECT_EQ(DecodeMessage(junk), nullptr);
  // Trailing garbage after a valid message is rejected (AtEnd check).
  auto ping = Stamped<protocol::PingRequest>();
  std::string bytes = EncodeMessage(*ping);
  bytes.push_back('\0');
  EXPECT_EQ(DecodeMessage(bytes), nullptr);
}

// Hostile field values reject the frame: an enum byte past the enum's last
// enumerator, and an element count the frame cannot hold.
TEST(RuntimeCodecTest, ForgedFieldsDecodeToNull) {
  constexpr size_t kEnvelope = 2 + 4 + 4 + 1;  // tag, from, to, no trace

  auto vote = Stamped<protocol::VoteMessage>();
  vote->xid = Xid{99, 2};
  std::string bytes = EncodeMessage(*vote);
  ASSERT_NE(DecodeMessage(bytes), nullptr);
  bytes.back() = '\xff';  // the vote is the last field
  EXPECT_EQ(DecodeMessage(bytes), nullptr);

  auto result = Stamped<protocol::ClientTxnResult>();
  result->status = Status::Aborted("deadlock victim");
  bytes = EncodeMessage(*result);
  bytes[kEnvelope + 16] = '\xff';  // status code, after tag and txn id
  EXPECT_EQ(DecodeMessage(bytes), nullptr);

  auto append = Stamped<protocol::ReplAppendRequest>();
  append->entries = {SampleEntry(false)};
  bytes = EncodeMessage(*append);
  // Entry type: after group, epoch, prev_index, prev_epoch, the entry
  // count, and the entry's index and epoch.
  bytes[kEnvelope + 4 + 8 + 8 + 8 + 4 + 8 + 8] = '\x7f';
  EXPECT_EQ(DecodeMessage(bytes), nullptr);

  auto batch = Stamped<protocol::PrepareBatch>();
  batch->xids = {Xid{99, 2}};
  bytes = EncodeMessage(*batch);
  ASSERT_NE(DecodeMessage(bytes), nullptr);
  bytes.replace(kEnvelope, 4, "\xff\xff\xff\xff");
  EXPECT_EQ(DecodeMessage(bytes), nullptr);
  // Two 12-byte xids cannot fit in the 12 bytes that follow.
  bytes.replace(kEnvelope, 4, std::string("\x02\x00\x00\x00", 4));
  EXPECT_EQ(DecodeMessage(bytes), nullptr);
}

// The enum is the codec's checklist: if someone appends a MessageType
// this static count forces them here (and into codec.cc) on the same PR.
TEST(RuntimeCodecTest, EveryMessageTypeIsCovered) {
  // kShardSeedDecline is the last enumerator; 0 is kUnknown.
  EXPECT_EQ(static_cast<int>(MessageType::kShardSeedDecline), 45);
}

}  // namespace
}  // namespace runtime
}  // namespace geotp
