// Microbenchmarks (google-benchmark) for the building blocks: lock
// manager, engine operations (grant-apply-commit, park-cancel), hotspot
// footprint (ordered index + LRU), geo-scheduler planning, event loop
// (schedule/run, lock-wait schedule/cancel), network send/deliver, zipfian
// sampling, the key-ordered record store (point ops, bulk load,
// committed range reads), the WAN block codec on log-shipping sized
// payloads, and group-commit record encoding. These quantify the DM-side overheads the
// paper reports as negligible (Fig. 6c "analysis ~1ms" for a whole
// transaction; the per-call costs here are sub-microsecond).
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/compress.h"
#include "common/random.h"
#include "core/geo_scheduler.h"
#include "core/hotspot_footprint.h"
#include "sim/event_loop.h"
#include "protocol/wan_codec.h"
#include "sim/network.h"
#include "storage/engine.h"
#include "storage/group_commit.h"
#include "storage/lock_manager.h"
#include "storage/record_store.h"

namespace geotp {
namespace {

void BM_LockAcquireRelease(benchmark::State& state) {
  storage::LockManager lm;
  uint64_t txn = 1;
  for (auto _ : state) {
    const Xid xid{txn++, 0};
    for (uint64_t k = 0; k < 5; ++k) {
      lm.RequestLock(xid, RecordKey{1, k}, storage::LockMode::kExclusive,
                     [](Status) {});
    }
    lm.ReleaseAll(xid);
  }
  state.SetItemsProcessed(state.iterations() * 5);
}
BENCHMARK(BM_LockAcquireRelease);

void BM_LockContendedQueue(benchmark::State& state) {
  const auto waiters = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    storage::LockManager lm;
    lm.RequestLock(Xid{1, 0}, RecordKey{1, 7}, storage::LockMode::kExclusive,
                   [](Status) {});
    state.ResumeTiming();
    for (uint64_t w = 0; w < waiters; ++w) {
      lm.RequestLock(Xid{100 + w, 0}, RecordKey{1, 7},
                     storage::LockMode::kExclusive, [](Status) {});
    }
    lm.ReleaseAll(Xid{1, 0});  // grants cascade through the queue
    for (uint64_t w = 0; w < waiters; ++w) lm.ReleaseAll(Xid{100 + w, 0});
  }
}
BENCHMARK(BM_LockContendedQueue)->Arg(4)->Arg(16)->Arg(64);

void BM_DeadlockCheckDeepChain(benchmark::State& state) {
  // Chain of N transactions each holding key i and waiting on key i+1;
  // the check walks the chain.
  const auto n = static_cast<uint64_t>(state.range(0));
  storage::LockManager lm;
  for (uint64_t i = 0; i < n; ++i) {
    lm.RequestLock(Xid{i, 0}, RecordKey{1, i}, storage::LockMode::kExclusive,
                   [](Status) {});
  }
  for (uint64_t i = 0; i + 1 < n; ++i) {
    lm.RequestLock(Xid{i, 0}, RecordKey{1, i + 1},
                   storage::LockMode::kExclusive, [](Status) {});
  }
  uint64_t probe = n + 1;
  for (auto _ : state) {
    // A fresh txn queueing at the chain tail: full DFS, no cycle.
    const Xid xid{probe++, 0};
    storage::LockRequestId id = lm.RequestLock(
        xid, RecordKey{1, 0}, storage::LockMode::kExclusive, [](Status) {});
    lm.CancelRequest(id, Status::Aborted("bench"));
  }
}
BENCHMARK(BM_DeadlockCheckDeepChain)->Arg(8)->Arg(32);

void BM_EngineExecuteOp(benchmark::State& state) {
  // The TPC-C pattern at one source: a branch write-locks keys nobody
  // holds (granted at once), applies its writes and commits.
  storage::TransactionEngine engine;
  uint64_t txn = 1;
  uint64_t key = 0;
  int64_t sink = 0;
  for (auto _ : state) {
    const Xid xid{txn++, 0};
    (void)engine.Begin(xid);
    for (int64_t i = 0; i < 5; ++i) {
      storage::Operation op;
      op.key = RecordKey{1, key};
      op.is_write = true;
      op.write_value = i;
      key = (key + 1) % 10000;
      engine.ExecuteOp(xid, op, [&sink](Status, int64_t value) {
        sink += value;
      });
    }
    (void)engine.Commit(xid, 0);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 5);
}
BENCHMARK(BM_EngineExecuteOp);

void BM_EngineExecuteOpParkCancel(benchmark::State& state) {
  // A branch's op parks behind a long-running holder, its lock-wait
  // timeout cancels it, and the branch rolls back.
  storage::TransactionEngine engine;
  const Xid holder{1, 0};
  const RecordKey hot{1, 7};
  (void)engine.Begin(holder);
  storage::Operation op;
  op.key = hot;
  op.is_write = true;
  engine.ExecuteOp(holder, op, [](Status, int64_t) {});
  uint64_t txn = 2;
  int cancelled = 0;
  for (auto _ : state) {
    const Xid xid{txn++, 0};
    (void)engine.Begin(xid);
    engine.ExecuteOp(xid, op, [&cancelled](Status status, int64_t) {
      cancelled += status.IsTimedOut() ? 1 : 0;
    });
    engine.CancelPendingOp(xid, Status::TimedOut("lock wait"));
    (void)engine.Rollback(xid, 0);
  }
  benchmark::DoNotOptimize(cancelled);
}
BENCHMARK(BM_EngineExecuteOpParkCancel);

void BM_FootprintDispatchComplete(benchmark::State& state) {
  core::HotspotFootprint fp;
  Rng rng(1);
  std::vector<core::ChargedKey> charged(5);
  for (auto _ : state) {
    for (auto& record : charged) {
      record.key = RecordKey{1, rng.NextU64(10000)};
      record.slot = fp.OnDispatch(record.key);
    }
    fp.OnComplete(charged, 1000, true);
  }
  state.SetItemsProcessed(state.iterations() * 5);
}
BENCHMARK(BM_FootprintDispatchComplete);

void BM_FootprintForecast(benchmark::State& state) {
  core::HotspotFootprint fp;
  Rng rng(2);
  for (int i = 0; i < 50000; ++i) {
    RecordKey key{1, rng.NextU64(100000)};
    fp.OnComplete({{key, fp.OnDispatch(key)}}, 500, true);
  }
  std::vector<RecordKey> keys(5);
  std::vector<const core::RecordStats*> stats;
  for (auto _ : state) {
    for (auto& key : keys) key = RecordKey{1, rng.NextU64(100000)};
    // One lookup per key, shared by Eq. 5 and Eq. 9 (as the scheduler does).
    stats.clear();
    fp.Resolve(keys, &stats);
    const core::RecordStats* const* first = stats.data();
    benchmark::DoNotOptimize(
        core::HotspotFootprint::ForecastLel(first, first + stats.size()));
    benchmark::DoNotOptimize(core::HotspotFootprint::AbortProbability(
        first, first + stats.size()));
  }
}
BENCHMARK(BM_FootprintForecast);

void BM_SchedulerPlanRound(benchmark::State& state) {
  sim::EventLoop loop;
  sim::Network net(&loop, sim::LatencyMatrix(8));
  core::LatencyMonitor monitor(0, &net, &loop, {});
  core::HotspotFootprint fp;
  core::SchedulerConfig config;
  config.policy = core::SchedulerPolicy::kLatencyAwareForecast;
  core::GeoScheduler scheduler(config, &monitor, &fp);
  Rng rng(3);
  std::vector<core::ParticipantPlanInput> inputs(3);
  for (int i = 0; i < 3; ++i) {
    inputs[static_cast<size_t>(i)].data_source = i + 1;
    inputs[static_cast<size_t>(i)].keys = {RecordKey{1, rng.NextU64(100)}};
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.ScheduleRound(inputs, -1, rng));
  }
}
BENCHMARK(BM_SchedulerPlanRound);

void BM_EventLoopScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventLoop loop;
    for (int i = 0; i < 1000; ++i) {
      loop.Schedule((i * 31) % 997, []() {});
    }
    loop.Run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventLoopScheduleRun);

void BM_EventLoopScheduleCancel(benchmark::State& state) {
  // The lock-wait pattern: arm a timeout, cancel it when the lock is
  // granted, then schedule the row-cost event and run it.
  sim::EventLoop loop;
  uint64_t fired = 0;
  for (auto _ : state) {
    const sim::EventId timeout =
        loop.Schedule(50000, [&fired]() { fired += 1000; });
    loop.Cancel(timeout);
    loop.Schedule(10, [&fired]() { ++fired; });
    loop.RunUntil(loop.Now() + 10);
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventLoopScheduleCancel);

void BM_NetworkSendDeliver(benchmark::State& state) {
  // A burst of 64 messages over one WAN link, delivered in latency order.
  sim::EventLoop loop;
  sim::LatencyMatrix matrix(2);
  matrix.SetSymmetric(0, 1, sim::LinkSpec::FromRttMs(73.0));
  sim::Network net(&loop, std::move(matrix));
  uint64_t delivered = 0;
  net.RegisterNode(1, [&delivered](std::unique_ptr<runtime::MessageBase>) {
    ++delivered;
  });
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      auto msg = std::make_unique<runtime::MessageBase>();
      msg->from = 0;
      msg->to = 1;
      net.Send(std::move(msg));
    }
    loop.Run();
  }
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_NetworkSendDeliver);

void BM_BoundedZipfSample(benchmark::State& state) {
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BoundedZipfSample(0, 4000000, 0.9, rng));
  }
}
BENCHMARK(BM_BoundedZipfSample);

/// A store preloaded with `records` ascending keys of table 1, the way a
/// restored backup (perfbench's preload) fills it.
void Preload(storage::RecordStore& store, uint64_t records) {
  for (uint64_t k = 0; k < records; ++k) store.Apply(RecordKey{1, k}, 0);
}

void BM_RecordStoreGetApply(benchmark::State& state) {
  const auto residents = static_cast<uint64_t>(state.range(0));
  storage::RecordStore store;
  Preload(store, residents);
  Rng rng(5);
  for (auto _ : state) {
    // A read-modify-write of a random resident key, as a write op does.
    const RecordKey key{1, rng.NextU64(residents)};
    const auto record = store.Get(key);
    store.Apply(key, (record ? record->value : 0) + 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecordStoreGetApply)->Arg(45000)->Arg(250000);

void BM_RecordStorePreload(benchmark::State& state) {
  for (auto _ : state) {
    storage::RecordStore store;
    Preload(store, 250000);
    benchmark::DoNotOptimize(store.size());
  }
  state.SetItemsProcessed(state.iterations() * 250000);
}
BENCHMARK(BM_RecordStorePreload)->Unit(benchmark::kMillisecond);

void BM_CommittedRangeChunk(benchmark::State& state) {
  // One migration pump's read: 512 committed records from a 250k store
  // while 128 live branches (half of them prepared) hold dirty writes.
  constexpr uint64_t kResidents = 250000;
  storage::TransactionEngine engine;
  Preload(engine.store(), kResidents);
  Rng rng(6);
  for (uint64_t b = 0; b < 128; ++b) {
    const Xid xid{b + 1, 0};
    (void)engine.Begin(xid);
    for (int w = 0; w < 4; ++w) {
      storage::Operation op;
      op.key = RecordKey{1, rng.NextU64(kResidents)};
      op.is_write = true;
      op.write_value = static_cast<int64_t>(b);
      engine.ExecuteOp(xid, op, [](Status, int64_t) {});
      if (engine.HasPendingOp(xid)) {
        engine.CancelPendingOp(xid, Status::Aborted("bench"));
      }
    }
    if (b % 2 == 0) (void)engine.Prepare(xid, 0);
  }
  for (auto _ : state) {
    const uint64_t lo = rng.NextU64(kResidents - 512);
    benchmark::DoNotOptimize(engine.CommittedRange(
        RecordKey{1, lo}, RecordKey{1, kResidents}, 512));
  }
}
BENCHMARK(BM_CommittedRangeChunk);

/// `records` packed writes, the shape of a log-shipping batch's payload.
std::string PackedWrites(int64_t records) {
  Rng rng(8);
  std::vector<protocol::ReplWrite> writes;
  for (int64_t i = 0; i < records; ++i) {
    writes.push_back(protocol::ReplWrite{RecordKey{1, rng.NextU64(1000000)},
                                         static_cast<int64_t>(i % 100)});
  }
  return protocol::PackWrites(writes);
}

void BM_BlockCodecCompress(benchmark::State& state) {
  const std::string raw = PackedWrites(state.range(0));
  common::ICompressor* codec =
      common::CompressorFor(common::WireCodec::kBlock);
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec->Compress(
        reinterpret_cast<const uint8_t*>(raw.data()), raw.size()));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(raw.size()));
}
BENCHMARK(BM_BlockCodecCompress)->Arg(16)->Arg(512);

void BM_BlockCodecDecompress(benchmark::State& state) {
  const std::string raw = PackedWrites(state.range(0));
  const std::string wire =
      common::CompressorFor(common::WireCodec::kBlock)
          ->Compress(reinterpret_cast<const uint8_t*>(raw.data()), raw.size());
  common::IDecompressor* codec =
      common::DecompressorFor(common::WireCodec::kBlock);
  std::string out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        codec->Decompress(reinterpret_cast<const uint8_t*>(wire.data()),
                          wire.size(), raw.size(), &out));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(raw.size()));
}
BENCHMARK(BM_BlockCodecDecompress)->Arg(16)->Arg(512);

void BM_GroupCommitBatch(benchmark::State& state) {
  // One group-commit batch of commit records: encode, flush, ack.
  sim::EventLoop loop;
  storage::GroupCommitter committer(&loop, storage::GroupCommitConfig());
  const int64_t batch = state.range(0);
  uint64_t txn = uint64_t{1} << 48;
  int64_t acked = 0;
  for (auto _ : state) {
    for (int64_t i = 0; i < batch; ++i) {
      committer.Append(1000, storage::LogRecord::Commit(Xid{++txn, 2}),
                       [&acked]() { ++acked; });
    }
    loop.Run();
  }
  benchmark::DoNotOptimize(acked);
}
BENCHMARK(BM_GroupCommitBatch)->Arg(8);

}  // namespace
}  // namespace geotp

BENCHMARK_MAIN();
