#include "deployment.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <memory>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "datasource/data_source.h"
#include "middleware/middleware.h"
#include "obs/trace.h"
#include "runtime/sim_runtime.h"
#include "sharding/shard_map.h"
#include "sim/event_loop.h"
#include "sim/network.h"
#include "sim/topology.h"
#include "workload/driver.h"
#include "workload/runner.h"

namespace geotp {
namespace perfbench {

namespace {

// ---------------------------------------------------------------------------
// Workload table
// ---------------------------------------------------------------------------

std::vector<WorkloadSpec> AllWorkloads() {
  std::vector<WorkloadSpec> out;

  // The paper's headline configuration at the throughput knee: YCSB over
  // the default four-region topology, unreplicated, only written keys
  // resident (a working set that fits in cache). Latency-aware postponing
  // and decentralized prepare decide its tail; replication, sharding and
  // the WAN codec do no work here, so it is their bypass workload.
  WorkloadSpec ycsb;
  ycsb.name = "ycsb-geo";
  ycsb.terminals = 256;
  ycsb.warmup = SecToMicros(5);
  ycsb.measure = SecToMicros(40);
  ycsb.ycsb.ops_per_txn = 5;
  ycsb.ycsb.read_ratio = 0.5;
  ycsb.ycsb.theta = 0.9;
  ycsb.ycsb.distributed_ratio = 0.2;
  ycsb.ycsb.nodes_per_distributed_txn = 2;
  out.push_back(ycsb);

  // Long, write-heavy multi-table transactions on hot warehouse/district
  // rows: bound by lock contention rather than RTT. TPC-C's p99 needs a
  // long window before it stops moving with the seed.
  WorkloadSpec tpcc;
  tpcc.name = "tpcc-geo";
  tpcc.tpcc = true;
  tpcc.terminals = 128;
  tpcc.warmup = SecToMicros(5);
  tpcc.measure = SecToMicros(150);
  tpcc.tpcc_config.warehouses_per_node = 16;
  tpcc.tpcc_config.distributed_ratio = 0.2;
  out.push_back(tpcc);

  // ycsb-geo with every source a 3-replica group: log shipping, quorum
  // gating of prepare/commit, and the WAN codec on every shipped batch.
  WorkloadSpec replicated = ycsb;
  replicated.name = "ycsb-replicated";
  replicated.replicas = 3;
  out.push_back(replicated);

  // Live migration: the zipf head is mirrored onto the 251 ms source so
  // the balancer moves and splits hot ranges, and every store is preloaded
  // with its 250k-record partition so each migration streams real
  // resident data (the scan-per-ack cost lives here).
  WorkloadSpec sharded;
  sharded.name = "elastic-sharded";
  sharded.terminals = 128;
  sharded.warmup = SecToMicros(1);
  sharded.measure = SecToMicros(40);
  sharded.ycsb = ycsb.ycsb;
  sharded.ycsb.records_per_node = 250000;
  sharded.mirrored_share = 0.3;
  sharded.balancer.split_enabled = false;
  sharded.sharding = true;
  sharded.preload = true;
  out.push_back(sharded);

  // ycsb-replicated with jitter on the 1 ms leader-follower links, which
  // reorders messages between replicas. Not a benchmark workload: on some
  // seeds (e.g. 203) a leader aborts on a log-index check in the log
  // shipper. Kept runnable as the reproducer.
  WorkloadSpec reordered = replicated;
  reordered.name = "replicated-lan-jitter";
  reordered.jitter_followers = true;
  out.push_back(reordered);

  // Replication and live migration together. Not a benchmark workload:
  // on some seeds (e.g. 6) a source leader loses committed writes that
  // its followers applied, and the migration then ships the stale value;
  // the correctness gate fails. Kept runnable as the reproducer.
  WorkloadSpec elastic = ycsb;
  elastic.name = "elastic-replicated";
  elastic.measure = SecToMicros(20);
  elastic.ycsb.records_per_node = 250000;
  elastic.mirrored_share = 1.0;
  elastic.replicas = 3;
  elastic.sharding = true;
  elastic.preload = true;
  out.push_back(elastic);
  return out;
}

// ---------------------------------------------------------------------------
// Topology
// ---------------------------------------------------------------------------

/// The paper's deployment: the DM and client in Beijing, sources at these
/// RTTs from the DM.
constexpr std::array<double, 4> kSourceRttsMs = {0.0, 27.0, 73.0, 251.0};
/// Gaussian jitter on every WAN link, as a fraction of its one-way mean.
/// Real WAN links jitter; without it every uncontended transaction of a
/// class has the same latency and the median is a structural constant.
constexpr double kJitterFrac = 0.05;
/// Followers live in their leader's region, this far from it.
constexpr double kFollowerRttMs = 1.0;
constexpr uint64_t kShardChunksPerSource = 8;

struct Topology {
  NodeId client = kInvalidNode;
  NodeId dm = kInvalidNode;
  /// groups[i][0] is data source i (the seed leader); the rest follow.
  std::vector<std::vector<NodeId>> groups;
  sim::LatencyMatrix matrix{1};
};

/// The paper's deployment (sim::DefaultTopology) extended with followers
/// that live in their leader's region.
Topology BuildTopology(const WorkloadSpec& spec) {
  static const char* const kRegions[] = {"beijing", "shanghai", "singapore",
                                         "london"};
  static_assert(sizeof(kRegions) / sizeof(kRegions[0]) == kSourceRttsMs.size(),
                "one region per source");
  sim::TopologyBuilder builder;
  Topology topo;
  topo.client = builder.AddNode(sim::NodeRole::kClient, "client", "beijing");
  topo.dm = builder.AddNode(sim::NodeRole::kMiddleware, "dm", "beijing");
  auto link = [&](NodeId a, NodeId b, double rtt_ms) {
    builder.SetRttMsJitter(a, b, rtt_ms, kJitterFrac);
  };
  const size_t n = kSourceRttsMs.size();
  std::vector<std::string> region(n);
  for (size_t i = 0; i < n; ++i) {
    region[i] = kSourceRttsMs[i] <= 0.0 ? "beijing" : kRegions[i];
    topo.groups.push_back({builder.AddNode(sim::NodeRole::kDataSource,
                                           "ds" + std::to_string(i + 1),
                                           region[i])});
  }
  for (size_t i = 0; i < n; ++i) {
    for (int k = 1; k < spec.replicas; ++k) {
      topo.groups[i].push_back(builder.AddNode(
          sim::NodeRole::kDataSource,
          "ds" + std::to_string(i + 1) + "f" + std::to_string(k), region[i]));
    }
  }
  for (size_t i = 0; i < n; ++i) {
    const double rtt = kSourceRttsMs[i];
    for (size_t r = 0; r < topo.groups[i].size(); ++r) {
      const NodeId node = topo.groups[i][r];
      const double extra = r == 0 ? 0.0 : kFollowerRttMs;
      if (rtt > 0.0) {
        link(topo.dm, node, rtt + extra);
        link(topo.client, node, rtt + extra);
      }
      if (r > 0 && spec.jitter_followers) {
        link(topo.groups[i][0], node, extra);
      } else if (r > 0) {
        builder.SetRttMs(topo.groups[i][0], node, extra);
      }
    }
    // Inter-source links as in sim::DefaultTopology: max of the two DM
    // RTTs between distinct regions, LAN between co-located sources.
    for (size_t j = i + 1; j < n; ++j) {
      if (rtt <= 0.0 && kSourceRttsMs[j] <= 0.0) continue;
      for (NodeId a : topo.groups[i]) {
        for (NodeId b : topo.groups[j]) {
          link(a, b, std::max(rtt, kSourceRttsMs[j]));
        }
      }
    }
  }
  topo.matrix = builder.Build();
  return topo;
}

// ---------------------------------------------------------------------------
// Load generation seam
// ---------------------------------------------------------------------------

/// Counts the distinct transactions the closed loop starts (retries reuse
/// the spec and do not call Next()).
class CountingGenerator : public workload::WorkloadGenerator {
 public:
  explicit CountingGenerator(std::unique_ptr<workload::WorkloadGenerator> inner)
      : inner_(std::move(inner)) {}

  workload::TxnSpec Next(Rng& rng) override {
    ++produced_;
    fresh_ = true;
    return inner_->Next(rng);
  }
  /// True once after each Next(): the driver submits the new transaction's
  /// first round right after generating it.
  bool TakeFresh() {
    const bool fresh = fresh_;
    fresh_ = false;
    return fresh;
  }
  void RegisterTables(middleware::Catalog* catalog) const override {
    inner_->RegisterTables(catalog);
  }
  uint64_t produced() const { return produced_; }

 private:
  std::unique_ptr<workload::WorkloadGenerator> inner_;
  uint64_t produced_ = 0;
  bool fresh_ = false;
};

/// The client's side of the wire. Timestamps each transaction's first
/// submission and its commit reply, giving exact latencies (the driver's
/// own histogram rounds to 1% buckets); counts like the driver does: a
/// commit inside the measurement window, latency spanning retries. Also
/// tracks which terminals still await a reply, so a drain can tell when
/// the last result has reached the client.
class ClientTap : public runtime::ITransport {
 public:
  ClientTap(runtime::ITransport* inner, runtime::ITimer* timer,
            CountingGenerator* generator, Micros from, Micros to)
      : inner_(inner),
        timer_(timer),
        generator_(generator),
        from_(from),
        to_(to) {}

  void RegisterNode(NodeId node, Handler handler) override {
    inner_->RegisterNode(node, [this, handler = std::move(handler)](
                                   std::unique_ptr<runtime::MessageBase> msg) {
      switch (msg->type()) {
        case runtime::MessageType::kClientTxnResult: {
          const auto& result = static_cast<protocol::ClientTxnResult&>(*msg);
          const Micros now = timer_->Now();
          if (result.status.ok() && now >= from_ && now < to_) {
            latencies_.push_back(now - first_submit_[result.client_tag]);
          }
          Replied(result.client_tag);
          break;
        }
        case runtime::MessageType::kClientRoundResponse:
          Replied(static_cast<protocol::ClientRoundResponse&>(*msg).client_tag);
          break;
        case runtime::MessageType::kOverloadedResponse:
          Replied(static_cast<protocol::OverloadedResponse&>(*msg).client_tag);
          break;
        default:
          break;
      }
      handler(std::move(msg));
    });
  }

  void Send(std::unique_ptr<runtime::MessageBase> msg) override {
    if (msg->type() == runtime::MessageType::kClientRoundRequest) {
      const auto& req = static_cast<protocol::ClientRoundRequest&>(*msg);
      if (generator_->TakeFresh()) first_submit_[req.client_tag] = timer_->Now();
      Awaits(req.client_tag);
    } else if (msg->type() == runtime::MessageType::kClientFinishRequest) {
      Awaits(static_cast<protocol::ClientFinishRequest&>(*msg).client_tag);
    }
    inner_->Send(std::move(msg));
  }

  std::vector<Micros>& latencies() { return latencies_; }
  /// Terminals with a request the DM has not answered yet.
  size_t awaiting() const { return awaiting_.size(); }

 private:
  void Awaits(uint64_t tag) { awaiting_.insert(tag); }
  void Replied(uint64_t tag) { awaiting_.erase(tag); }

  runtime::ITransport* inner_;
  runtime::ITimer* timer_;
  CountingGenerator* generator_;
  Micros from_;
  Micros to_;
  std::unordered_map<uint64_t, Micros> first_submit_;
  std::unordered_set<uint64_t> awaiting_;
  std::vector<Micros> latencies_;
};

/// YCSB from two client populations: a `mirrored_share` of transactions
/// has its hot set on the last source, the rest on the first.
class MixedYcsbGenerator : public workload::WorkloadGenerator {
 public:
  MixedYcsbGenerator(workload::YcsbConfig config, double mirrored_share)
      : mirrored_share_(mirrored_share),
        local_(WithMirror(config, false)),
        mirrored_(WithMirror(config, true)) {}

  workload::TxnSpec Next(Rng& rng) override {
    // One population: no draw, so the transaction stream is the plain
    // generator's.
    if (mirrored_share_ <= 0.0) return local_.Next(rng);
    if (mirrored_share_ >= 1.0) return mirrored_.Next(rng);
    return rng.NextDouble() < mirrored_share_ ? mirrored_.Next(rng)
                                              : local_.Next(rng);
  }
  void RegisterTables(middleware::Catalog* catalog) const override {
    local_.RegisterTables(catalog);
  }

 private:
  static workload::YcsbConfig WithMirror(workload::YcsbConfig config,
                                         bool mirror) {
    config.mirror_keyspace = mirror;
    return config;
  }

  double mirrored_share_;
  workload::YcsbGenerator local_;
  workload::YcsbGenerator mirrored_;
};

using Oracle = std::unordered_map<RecordKey, int64_t, RecordKeyHash>;

// ---------------------------------------------------------------------------
// Program-side counters (stats structs the actors already keep)
// ---------------------------------------------------------------------------

using Counters = std::map<std::string, double>;

struct Actors {
  sim::EventLoop* loop = nullptr;
  sim::Network* network = nullptr;
  middleware::MiddlewareNode* dm = nullptr;
  workload::ClientDriver* driver = nullptr;
  std::vector<datasource::DataSourceNode*> nodes;  ///< every replica
};

Counters CollectCounters(const Actors& a) {
  Counters c;
  c["events"] = static_cast<double>(a.loop->events_processed());
  c["messages"] = static_cast<double>(a.network->total_messages());
  const middleware::MiddlewareStats& dm = a.dm->stats();
  c["dm_committed"] = static_cast<double>(dm.committed);
  c["dm_committed_distributed"] =
      static_cast<double>(dm.committed_distributed);
  c["dm_log_flushes"] = static_cast<double>(dm.log_flushes);
  c["dm_admission_blocks"] = static_cast<double>(dm.admission_blocks);
  c["dm_shard_redirects"] = static_cast<double>(dm.shard_redirects);
  double decentralized = 0, explicit_prepares = 0, early_aborts = 0,
         lock_timeouts = 0, grants_now = 0, grants_waited = 0, deadlocks = 0,
         gc_fsyncs = 0, gc_entries = 0, shipped = 0, batches = 0,
         retransmits = 0, repl_raw = 0, repl_wire = 0, chunks = 0,
         chunk_resends = 0, mig_raw = 0, mig_wire = 0;
  for (datasource::DataSourceNode* node : a.nodes) {
    const datasource::DataSourceStats& ds = node->stats();
    decentralized += static_cast<double>(ds.decentralized_prepares);
    explicit_prepares += static_cast<double>(ds.explicit_prepares);
    early_aborts += static_cast<double>(ds.early_aborts_sent);
    lock_timeouts += static_cast<double>(ds.lock_timeouts);
    const storage::LockStats& locks = node->engine().locks().stats();
    grants_now += static_cast<double>(locks.grants_immediate);
    grants_waited += static_cast<double>(locks.grants_after_wait);
    deadlocks += static_cast<double>(locks.deadlocks);
    gc_fsyncs += static_cast<double>(node->committer().stats().fsyncs);
    gc_entries += static_cast<double>(node->committer().stats().entries);
    if (const replication::Replicator* r = node->replicator()) {
      const replication::LogShipperStats& s = r->shipper_stats();
      shipped += static_cast<double>(s.entries_shipped);
      batches += static_cast<double>(s.append_batches_shipped);
      retransmits += static_cast<double>(s.retransmissions);
      repl_raw += static_cast<double>(s.wan_bytes_raw + r->stats().wan_bytes_raw);
      repl_wire +=
          static_cast<double>(s.wan_bytes_wire + r->stats().wan_bytes_wire);
    }
    const sharding::ShardMigratorStats& m = node->migrator().stats();
    chunks += static_cast<double>(m.snapshot_chunks_sent);
    chunk_resends += static_cast<double>(m.chunk_retransmits);
    mig_raw += static_cast<double>(m.wan_bytes_raw);
    mig_wire += static_cast<double>(m.wan_bytes_wire);
  }
  c["ds_decentralized_prepares"] = decentralized;
  c["ds_explicit_prepares"] = explicit_prepares;
  c["ds_early_aborts"] = early_aborts;
  c["ds_lock_timeouts"] = lock_timeouts;
  c["lock_grants_immediate"] = grants_now;
  c["lock_grants_after_wait"] = grants_waited;
  c["lock_deadlocks"] = deadlocks;
  c["wal_fsyncs"] = gc_fsyncs;
  c["wal_entries"] = gc_entries;
  c["repl_entries_shipped"] = shipped;
  c["repl_append_batches"] = batches;
  c["repl_retransmits"] = retransmits;
  c["repl_wan_raw"] = repl_raw;
  c["repl_wan_wire"] = repl_wire;
  c["mig_chunks_sent"] = chunks;
  c["mig_chunk_retransmits"] = chunk_resends;
  c["mig_wan_raw"] = mig_raw;
  c["mig_wan_wire"] = mig_wire;
  if (sharding::ShardBalancer* b = a.dm->balancer()) {
    c["balancer_started"] = static_cast<double>(b->stats().migrations_started);
    c["balancer_completed"] =
        static_cast<double>(b->stats().migrations_completed);
  } else {
    c["balancer_started"] = 0;
    c["balancer_completed"] = 0;
  }
  const metrics::RunStats& run = a.driver->stats();
  c["client_retries"] = static_cast<double>(run.retries);
  c["client_abort_events"] = static_cast<double>(run.abort_events);
  c["client_committed"] = static_cast<double>(run.committed);
  return c;
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// The count table: window deltas normalised as the per-layer metrics
/// report them.
Counters CountTable(const Counters& start, const Counters& end) {
  Counters d;
  for (const auto& [name, value] : end) d[name] = value - start.at(name);
  const double txns = d["client_committed"];
  Counters t;
  t["sim.events_per_txn"] = Ratio(d["events"], txns);
  t["sim.msgs_per_txn"] = Ratio(d["messages"], txns);
  t["workload.retries_per_txn"] = Ratio(d["client_retries"], txns);
  t["middleware.log_fsyncs_per_txn"] = Ratio(d["dm_log_flushes"], txns);
  t["middleware.admission_blocks_per_txn"] =
      Ratio(d["dm_admission_blocks"], txns);
  t["middleware.dist_ratio"] =
      Ratio(d["dm_committed_distributed"], d["dm_committed"]);
  t["datasource.decentralized_prepare_frac"] =
      Ratio(d["ds_decentralized_prepares"],
            d["ds_decentralized_prepares"] + d["ds_explicit_prepares"]);
  t["datasource.early_aborts_per_txn"] = Ratio(d["ds_early_aborts"], txns);
  t["storage.lock_wait_frac"] =
      Ratio(d["lock_grants_after_wait"],
            d["lock_grants_immediate"] + d["lock_grants_after_wait"]);
  t["storage.deadlocks_per_ktxn"] = 1000.0 * Ratio(d["lock_deadlocks"], txns);
  t["storage.lock_timeouts_per_ktxn"] =
      1000.0 * Ratio(d["ds_lock_timeouts"], txns);
  t["storage.fsyncs_per_txn"] = Ratio(d["wal_fsyncs"], txns);
  t["storage.entries_per_fsync"] = Ratio(d["wal_entries"], d["wal_fsyncs"]);
  t["replication.entries_per_batch"] =
      Ratio(d["repl_entries_shipped"], d["repl_append_batches"]);
  t["replication.retransmits_per_ktxn"] =
      1000.0 * Ratio(d["repl_retransmits"], txns);
  t["replication.wan_wire_bytes_per_txn"] = Ratio(d["repl_wan_wire"], txns);
  t["replication.compress_ratio"] =
      Ratio(d["repl_wan_raw"], d["repl_wan_wire"]);
  // Over the whole run: a migration started in warmup may finish in the
  // window.
  t["sharding.migrations_completed_frac"] =
      Ratio(end.at("balancer_completed"), end.at("balancer_started"));
  t["sharding.chunks_sent"] = d["mig_chunks_sent"];
  t["sharding.chunk_retransmits"] = d["mig_chunk_retransmits"];
  t["sharding.redirects_per_ktxn"] =
      1000.0 * Ratio(d["dm_shard_redirects"], txns);
  t["sharding.wan_wire_bytes_per_txn"] = Ratio(d["mig_wan_wire"], txns);
  t["sharding.compress_ratio"] = Ratio(d["mig_wan_raw"], d["mig_wan_wire"]);
  t["wan_bytes_per_txn"] =
      Ratio(d["repl_wan_wire"] + d["mig_wan_wire"], txns);
  return t;
}

// ---------------------------------------------------------------------------
// Virtual-time spans
// ---------------------------------------------------------------------------

/// Nearest-rank percentile in ms.
double PercentileMs(std::vector<Micros> values, double pct) {
  if (values.empty()) return 0.0;
  const auto n = static_cast<double>(values.size());
  const size_t rank = static_cast<size_t>(
      std::max(1.0, std::ceil(pct / 100.0 * n))) - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(rank),
                   values.end());
  return MicrosToMs(values[rank]);
}

double MeanMs(const std::vector<Micros>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (Micros v : values) sum += static_cast<double>(v);
  return MicrosToMs(1) * sum / static_cast<double>(values.size());
}

/// Span statistics over spans that start inside [from, to). `committed` is
/// the window's commit count, for per-transaction totals.
Counters SpanTable(const std::vector<obs::SpanRecord>& spans, Micros from,
                   Micros to, double committed) {
  std::map<std::string, std::vector<Micros>> by_name;
  // trace -> node -> last branch_exec end (the final round's alignment)
  std::map<uint64_t, std::map<NodeId, Micros>> exec_end;
  // (trace, node) -> first branch_exec start / commit fsync end
  std::map<std::pair<uint64_t, NodeId>, std::pair<Micros, Micros>> hold;
  for (const obs::SpanRecord& span : spans) {
    if (span.start < from || span.start >= to || span.end < span.start) {
      continue;
    }
    by_name[span.name].push_back(span.Duration());
    if (span.name == "ds.branch_exec") {
      Micros& end = exec_end[span.trace_id][span.node];
      end = std::max(end, span.end);
      auto [it, fresh] = hold.try_emplace({span.trace_id, span.node},
                                          span.start, Micros{-1});
      if (!fresh) it->second.first = std::min(it->second.first, span.start);
    }
  }
  for (const obs::SpanRecord& span : spans) {
    if (span.name != "ds.commit_fsync" || span.end < span.start) continue;
    auto it = hold.find({span.trace_id, span.node});
    if (it != hold.end()) {
      it->second.second = std::max(it->second.second, span.end);
    }
  }
  std::vector<Micros> skew, held, distributed_wait;
  for (const auto& [trace, ends] : exec_end) {
    if (ends.size() < 2) continue;
    Micros lo = ends.begin()->second, hi = lo;
    for (const auto& [node, end] : ends) {
      lo = std::min(lo, end);
      hi = std::max(hi, end);
    }
    skew.push_back(hi - lo);
  }
  // The prepare wait of distributed transactions: what latency-aware
  // postponing aligns (single-source ones prepare with their execution).
  for (const obs::SpanRecord& span : spans) {
    if (span.name != "dm.prepare_wait" || span.start < from ||
        span.start >= to || span.end < span.start) {
      continue;
    }
    const auto it = exec_end.find(span.trace_id);
    if (it != exec_end.end() && it->second.size() >= 2) {
      distributed_wait.push_back(span.Duration());
    }
  }
  for (const auto& [key, span] : hold) {
    if (span.second >= span.first) held.push_back(span.second - span.first);
  }
  std::vector<Micros> quorum = by_name["ds.quorum"];
  quorum.insert(quorum.end(), by_name["ds.commit_quorum"].begin(),
                by_name["ds.commit_quorum"].end());
  Counters t;
  double analysis = 0.0;
  for (Micros v : by_name["dm.analysis"]) analysis += MicrosToMs(v);
  t["middleware.analysis_ms_per_txn"] = Ratio(analysis, committed);
  t["middleware.prepare_wait_ms_p50"] = PercentileMs(distributed_wait, 50);
  t["middleware.prepare_wait_ms_p99"] = PercentileMs(distributed_wait, 99);
  t["middleware.commit_ms_p50"] = PercentileMs(by_name["dm.commit"], 50);
  t["core.branch_skew_ms_p50"] = PercentileMs(skew, 50);
  t["core.branch_skew_ms_p99"] = PercentileMs(skew, 99);
  t["datasource.branch_exec_ms_mean"] = MeanMs(by_name["ds.branch_exec"]);
  t["storage.branch_hold_ms_p50"] = PercentileMs(held, 50);
  t["storage.branch_hold_ms_p99"] = PercentileMs(held, 99);
  t["storage.prepare_fsync_ms_p50"] =
      PercentileMs(by_name["ds.prepare_fsync"], 50);
  t["replication.quorum_ms_mean"] = MeanMs(quorum);
  return t;
}

// ---------------------------------------------------------------------------
// Correctness gate
// ---------------------------------------------------------------------------

uint64_t Mix(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Order-independent digest of a store's committed values (absent and 0
/// are the same value: keys never written read as 0 everywhere).
uint64_t StoreDigest(const storage::RecordStore& store) {
  uint64_t digest = 0;
  for (const auto& [key, record] : store.records()) {
    if (record.value == 0) continue;
    digest += Mix(RecordKeyHash()(key) ^ static_cast<uint64_t>(record.value));
  }
  return digest;
}

int64_t ValueOf(const storage::RecordStore& store, const RecordKey& key) {
  const auto record = store.Get(key);
  return record ? record->value : 0;
}

}  // namespace

bool FindWorkload(const std::string& name, WorkloadSpec* out) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    if (spec.name == name) {
      *out = spec;
      return true;
    }
  }
  return false;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : AllWorkloads()) names.push_back(spec.name);
  return names;
}

std::string DescribeWorkload(const WorkloadSpec& spec) {
  std::ostringstream os;
  os << spec.name << ": GeoTP (O1-O3), closed loop, " << spec.terminals
     << " terminals, warmup " << MicrosToSec(spec.warmup) << " s + measure "
     << MicrosToSec(spec.measure) << " s virtual; DM->source RTTs";
  for (double rtt : kSourceRttsMs) os << " " << rtt;
  os << " ms; replicas " << spec.replicas;
  if (spec.replicas > 1) {
    os << " (followers +" << kFollowerRttMs << " ms, WAN compression on)";
  }
  if (spec.tpcc) {
    os << "; TPC-C standard mix, " << spec.tpcc_config.warehouses_per_node
       << " warehouses/source, " << spec.tpcc_config.distributed_ratio * 100
       << "% distributed";
  } else {
    os << "; YCSB " << spec.ycsb.ops_per_txn << " ops, "
       << spec.ycsb.read_ratio * 100 << "% reads, theta " << spec.ycsb.theta
       << " (" << spec.mirrored_share * 100 << "% of txns with the head on "
       << "the last source)" << ", "
       << spec.ycsb.distributed_ratio * 100 << "% distributed over "
       << spec.ycsb.nodes_per_distributed_txn << " sources, "
       << spec.ycsb.records_per_node << " keys/source";
  }
  os << "; preload " << (spec.preload ? "on" : "off (written keys only)")
     << "; sharding " << (spec.sharding ? "on + balancer" : "off")
     << "; group commit on at sources and DM (max_batch_delay 0, "
        "max_batch_size 64)";
  return os.str();
}

namespace {

/// A fully assembled simulated deployment. Construction is the set-up the
/// benchmark times: topology, actors, preload, wiring.
class Deployment {
 public:
  Deployment(const WorkloadSpec& spec, uint64_t seed, Instrument instrument)
      : spec_(spec),
        topo_(BuildTopology(spec)),
        network_(&loop_, topo_.matrix, seed),
        sim_runtime_(&loop_, &network_) {
    if (instrument == Instrument::kDecorated) {
      tracing_ = std::make_unique<TracingRuntime>(&sim_runtime_);
    }
    for (const auto& group : topo_.groups) logical_.push_back(group[0]);
    std::unique_ptr<workload::WorkloadGenerator> inner;
    if (spec.tpcc) {
      workload::TpccConfig tpcc = spec.tpcc_config;
      tpcc.data_sources = logical_;
      inner = std::make_unique<workload::TpccGenerator>(tpcc);
    } else {
      workload::YcsbConfig ycsb = spec.ycsb;
      ycsb.data_sources = logical_;
      inner = std::make_unique<MixedYcsbGenerator>(ycsb, spec.mirrored_share);
    }
    generator_ = std::make_unique<CountingGenerator>(std::move(inner));

    middleware::MiddlewareConfig dm_config =
        workload::ConfigForSystem(workload::SystemKind::kGeoTP);
    middleware::Catalog catalog;
    generator_->RegisterTables(&catalog);
    if (spec.sharding) {
      catalog.InstallShardMap(sharding::ShardMap::FromRangePartition(
          spec.ycsb.table_id, spec.ycsb.records_per_node, logical_,
          kShardChunksPerSource));
      dm_config.balancer = spec.balancer;
      dm_config.balancer.enabled = true;
    }
    if (spec.replicas > 1) {
      for (const auto& group : topo_.groups) {
        catalog.SetReplicaGroup(group[0], group);
      }
    }

    for (size_t i = 0; i < topo_.groups.size(); ++i) {
      for (NodeId replica : topo_.groups[i]) {
        datasource::DataSourceConfig ds_config =
            datasource::DataSourceConfig::MySql();
        ds_config.early_abort = dm_config.early_abort;
        auto node = std::make_unique<datasource::DataSourceNode>(
            Env(replica, Role::kDataSource), ds_config);
        if (spec.replicas > 1) {
          replication::GroupConfig group;
          group.logical = topo_.groups[i][0];
          group.replicas = topo_.groups[i];
          group.middlewares = {topo_.dm};
          node->EnableReplication(group);
        }
        if (spec.preload) {
          // A restored backup: every replica starts with the partition.
          const uint64_t base = i * spec.ycsb.records_per_node;
          for (uint64_t k = 0; k < spec.ycsb.records_per_node; ++k) {
            node->engine().store().Apply(
                RecordKey{spec.ycsb.table_id, base + k}, 0);
          }
        }
        node->Attach();
        node_by_id_[replica] = node.get();
        nodes_.push_back(std::move(node));
      }
    }

    dm_ = std::make_unique<middleware::MiddlewareNode>(
        Env(topo_.dm, Role::kMiddleware), /*ordinal=*/0, std::move(catalog),
        dm_config);
    dm_->Attach();

    workload::DriverConfig driver_config;
    driver_config.terminals = spec.terminals;
    driver_config.warmup = spec.warmup;
    driver_config.measure = spec.measure;
    driver_config.seed = seed * 7919 + 17;
    runtime::ActorEnv client_env = Env(topo_.client, Role::kClient);
    tap_ = std::make_unique<ClientTap>(client_env.transport, client_env.timer,
                                       generator_.get(), spec.warmup,
                                       spec.warmup + spec.measure);
    client_env.transport = tap_.get();
    driver_ = std::make_unique<workload::ClientDriver>(
        client_env, topo_.dm, generator_.get(), driver_config);
    driver_->Attach();
    driver_->SetCommitObserver([this](const workload::TxnSpec& txn) {
      committed_all_++;
      for (const auto& round : txn.rounds) {
        for (const protocol::ClientOp& op : round) {
          if (!op.is_write) continue;
          int64_t& slot = oracle_[op.key];
          slot = op.is_delta ? slot + op.value : op.value;
        }
      }
    });
  }

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// Drives the closed loop through warmup and the measurement window and
  /// fills the host-measured and virtual-time parts of `result`.
  void Measure(RepResult* result) {
    driver_->Start();
    loop_.RunUntil(spec_.warmup);
    const Counters counters_start = CollectCounters(ActorSet());
    const LayerTotals layers_start = SnapshotTotals();
    const SeamCounters seams_start =
        tracing_ ? tracing_->counters() : SeamCounters();
    SetCountingAllocations(tracing_ != nullptr);
    const int64_t wall_start = NowNs();
    const int64_t cpu_start = ProcessCpuNs();
    loop_.RunUntil(spec_.warmup + spec_.measure);
    const int64_t cpu_end = ProcessCpuNs();
    const int64_t wall_end = NowNs();
    SetCountingAllocations(false);
    const LayerTotals layers_end = SnapshotTotals();
    const SeamCounters seams_end =
        tracing_ ? tracing_->counters() : SeamCounters();
    const Counters counters_end = CollectCounters(ActorSet());

    const metrics::RunStats& run = driver_->stats();
    const auto committed = static_cast<double>(run.committed);
    result->window_wall_s = static_cast<double>(wall_end - wall_start) / 1e9;
    result->host_us_per_txn =
        Ratio(static_cast<double>(cpu_end - cpu_start) / 1e3, committed);
    std::vector<Micros>& latencies = tap_->latencies();
    if (latencies.size() != run.latency.count()) {
      result->errors.push_back("client tap saw " +
                               std::to_string(latencies.size()) +
                               " window commits, the driver " +
                               std::to_string(run.latency.count()));
    }
    auto& v = result->virtual_metrics;
    v["tps"] = run.ThroughputTps();
    v["p50_ms"] = PercentileMs(latencies, 50);
    v["p99_ms"] = PercentileMs(latencies, 99);
    v["abort_rate"] = run.AbortRate();
    v["attempts_per_commit"] = Ratio(
        committed + static_cast<double>(run.abort_events), committed);
    v["committed"] = committed;
    v["latency_samples"] = static_cast<double>(latencies.size());
    result->counts = CountTable(counters_start, counters_end);
    result->counts["core.footprint_bytes"] =
        static_cast<double>(dm_->footprint().ApproxBytes());
    if (tracing_) {
      result->layers = layers_end - layers_start;
      result->seams = seams_end - seams_start;
      // Loop time outside every callback belongs to the simulator.
      result->layers.self_ns[static_cast<size_t>(Layer::kSim)] +=
          (wall_end - wall_start) - result->layers.top_level_ns;
    }
  }

  /// Quiesces the driver, drains until nothing is in flight (and every
  /// follower has caught up), then checks the stores.
  void DrainAndCheck(RepResult* result) {
    driver_->Stop();
    // Replica digests cost a pass over every store, so they are compared
    // only once the DM is idle, and at most every 100 ms of virtual time.
    // Followers that stop applying entries while still differing have
    // diverged for good; waiting longer cannot fix them.
    const Micros stop = loop_.Now();
    const Micros deadline = stop + SecToMicros(60);
    Micros next_digest = stop;
    uint64_t applied_at_digest = ~uint64_t{0};
    Micros last_progress = stop;
    bool converged = false;
    while (loop_.Now() < deadline) {
      const uint64_t applied = FollowerEntriesApplied();
      if (applied != applied_at_digest) last_progress = loop_.Now();
      if (Idle() && loop_.Now() >= next_digest &&
          applied != applied_at_digest) {
        converged = ReplicasConverged();
        if (converged) break;
        applied_at_digest = applied;
        next_digest = loop_.Now() + MsToMicros(100);
      }
      if (Idle() && loop_.Now() - last_progress > SecToMicros(2)) break;
      loop_.RunUntil(loop_.Now() + MsToMicros(10));
    }
    std::fprintf(stderr,
                 "drain: %.2f s virtual after quiesce; DM in flight %zu, "
                 "client awaiting %zu, migrations in flight %zu, replicas "
                 "%s\n",
                 MicrosToSec(loop_.Now() - stop), dm_->InFlight(),
                 tap_->awaiting(),
                 dm_->balancer() ? dm_->balancer()->InFlight() : size_t{0},
                 converged ? "converged" : "NOT converged");
    result->drained = Idle();
    result->attempted = generator_->produced();
    result->committed_all = committed_all_;
    result->failed = driver_->stats().retry_exhausted +
                     (result->drained ? 0 : tap_->awaiting());
    if (result->committed_all + result->failed > result->attempted) {
      result->errors.push_back("more outcomes than attempted transactions");
    } else {
      result->abandoned =
          result->attempted - result->committed_all - result->failed;
    }
    if (!result->drained) {
      result->errors.push_back(
          "did not drain: " + std::to_string(tap_->awaiting()) +
          " terminals still await a reply, " +
          std::to_string(dm_->InFlight()) + " txns in flight at the DM");
    }
    if (result->abandoned > static_cast<uint64_t>(spec_.terminals)) {
      result->errors.push_back(
          "transactions lost: " + std::to_string(result->abandoned) +
          " unresolved with " + std::to_string(spec_.terminals) +
          " terminals");
    }
    CheckOracle(result);
    CheckReplicas(result);
    for (const auto& node : nodes_) {
      result->store_records += node->engine().store().size();
      result->store_bytes += node->engine().store().ApproxBytes();
    }
    result->counts["storage.store_records"] =
        static_cast<double>(result->store_records);
  }

 private:
  runtime::ActorEnv Env(NodeId node, Role role) {
    return tracing_ ? tracing_->EnvFor(node, role)
                    : sim_runtime_.EnvFor(node);
  }

  Actors ActorSet() {
    Actors a;
    a.loop = &loop_;
    a.network = &network_;
    a.dm = dm_.get();
    a.driver = driver_.get();
    for (const auto& node : nodes_) a.nodes.push_back(node.get());
    return a;
  }

  bool Idle() const {
    return dm_->InFlight() == 0 && tap_->awaiting() == 0 &&
           (dm_->balancer() == nullptr || dm_->balancer()->InFlight() == 0);
  }

  datasource::DataSourceNode& LeaderOf(NodeId logical) {
    return *node_by_id_.at(dm_->catalog().LeaderOf(logical));
  }

  uint64_t FollowerEntriesApplied() {
    uint64_t applied = 0;
    for (const auto& node : nodes_) {
      if (node->replicator() != nullptr) {
        applied += node->replicator()->stats().entries_applied;
      }
    }
    return applied;
  }

  bool ReplicasConverged() {
    for (const auto& group : topo_.groups) {
      if (group.size() < 2) continue;
      datasource::DataSourceNode& leader = LeaderOf(group[0]);
      const uint64_t digest = StoreDigest(leader.engine().store());
      for (NodeId member : group) {
        datasource::DataSourceNode* node = node_by_id_.at(member);
        if (node != &leader &&
            StoreDigest(node->engine().store()) != digest) {
          return false;
        }
      }
    }
    return true;
  }

  /// Every key at its owner under the final shard map holds exactly the
  /// sum of the committed deltas; no other owned key holds a value.
  void CheckOracle(RepResult* result) {
    const middleware::Catalog& catalog = dm_->catalog();
    result->oracle_keys = oracle_.size();
    for (const auto& [key, expected] : oracle_) {
      const NodeId owner = catalog.LeaderOf(catalog.Route(key));
      const auto it = node_by_id_.find(owner);
      if (it == node_by_id_.end() ||
          ValueOf(it->second->engine().store(), key) != expected) {
        if (++result->oracle_mismatches <= 10) ReportKey(key, expected, owner);
      }
    }
    for (NodeId logical : logical_) {
      for (const auto& [key, record] :
           LeaderOf(logical).engine().store().records()) {
        if (record.value != 0 && oracle_.count(key) == 0 &&
            catalog.Route(key) == logical) {
          // A write nobody committed.
          if (++result->oracle_mismatches <= 10) {
            ReportKey(key, 0, catalog.LeaderOf(logical));
          }
        }
      }
    }
    if (result->oracle_mismatches > 0) {
      result->errors.push_back(std::to_string(result->oracle_mismatches) +
                               " oracle mismatches");
    }
  }

  /// One stderr line per mismatching key: the expected value and what
  /// every replica of every group holds for it.
  void ReportKey(const RecordKey& key, int64_t expected, NodeId owner) {
    std::fprintf(stderr, "MISMATCH key=(%u,%llu) expected=%lld owner=%d:",
                 key.table, static_cast<unsigned long long>(key.key),
                 static_cast<long long>(expected), owner);
    for (const auto& node : nodes_) {
      const auto record = node->engine().store().Get(key);
      if (record) {
        std::fprintf(stderr, " node%d=%lld", node->id(),
                     static_cast<long long>(record->value));
      }
    }
    std::fprintf(stderr, "\n");
  }

  /// Every follower's committed store equals its leader's.
  void CheckReplicas(RepResult* result) {
    for (const auto& group : topo_.groups) {
      if (group.size() < 2) continue;
      result->replica_groups_checked++;
      const storage::RecordStore& lead = LeaderOf(group[0]).engine().store();
      for (NodeId member : group) {
        const storage::RecordStore& other =
            node_by_id_.at(member)->engine().store();
        if (&other == &lead) continue;
        for (const auto& [key, record] : lead.records()) {
          if (record.value != ValueOf(other, key) &&
              ++result->replica_mismatches <= 10) {
            std::fprintf(stderr,
                         "REPLICA MISMATCH group %d key=(%u,%llu): leader "
                         "%lld, node%d %lld\n",
                         group[0], key.table,
                         static_cast<unsigned long long>(key.key),
                         static_cast<long long>(record.value), member,
                         static_cast<long long>(ValueOf(other, key)));
          }
        }
        for (const auto& [key, record] : other.records()) {
          if (record.value != 0 && lead.Get(key) == std::nullopt) {
            result->replica_mismatches++;
          }
        }
      }
    }
    if (result->replica_mismatches > 0) {
      result->errors.push_back(std::to_string(result->replica_mismatches) +
                               " follower records differ from their leader");
    }
  }

  const WorkloadSpec& spec_;
  Topology topo_;
  sim::EventLoop loop_;
  sim::Network network_;
  runtime::SimRuntime sim_runtime_;
  std::unique_ptr<TracingRuntime> tracing_;
  std::vector<NodeId> logical_;
  std::unique_ptr<CountingGenerator> generator_;
  std::vector<std::unique_ptr<datasource::DataSourceNode>> nodes_;
  std::unordered_map<NodeId, datasource::DataSourceNode*> node_by_id_;
  std::unique_ptr<middleware::MiddlewareNode> dm_;
  std::unique_ptr<ClientTap> tap_;
  std::unique_ptr<workload::ClientDriver> driver_;
  Oracle oracle_;
  uint64_t committed_all_ = 0;
};

}  // namespace

RepResult RunRep(const WorkloadSpec& spec, uint64_t seed,
                 Instrument instrument) {
  RepResult result;
  if (instrument == Instrument::kSpans) {
    obs::TraceConfig trace_config;
    trace_config.sample_rate = 1.0;
    trace_config.max_spans = size_t{1} << 23;
    obs::GlobalTracer().Reset();
    obs::GlobalTracer().Enable(trace_config);
  }
  const int64_t setup_start = NowNs();
  Deployment deployment(spec, seed, instrument);
  result.setup_s = static_cast<double>(NowNs() - setup_start) / 1e9;
  deployment.Measure(&result);
  deployment.DrainAndCheck(&result);
  if (instrument == Instrument::kSpans) {
    obs::GlobalTracer().Disable();
    if (obs::GlobalTracer().dropped() > 0) {
      result.errors.push_back("tracer dropped spans");
    }
    result.spans = SpanTable(obs::GlobalTracer().Snapshot(), spec.warmup,
                             spec.warmup + spec.measure,
                             result.virtual_metrics.at("committed"));
    obs::GlobalTracer().Reset();
  }
  return result;
}

double MeasureSetup(const WorkloadSpec& spec, uint64_t seed) {
  const int64_t start = NowNs();
  Deployment deployment(spec, seed, Instrument::kNone);
  return static_cast<double>(NowNs() - start) / 1e9;
}

}  // namespace perfbench
}  // namespace geotp
