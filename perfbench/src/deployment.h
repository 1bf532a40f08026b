// One benchmark repetition: assemble a simulated GeoTP deployment for a
// workload, drive it closed-loop through warmup + measurement, quiesce and
// drain it, and check every committed write against an oracle.
#ifndef GEOTP_PERFBENCH_DEPLOYMENT_H_
#define GEOTP_PERFBENCH_DEPLOYMENT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "accounting.h"
#include "common/types.h"
#include "sharding/balancer.h"
#include "tracing_runtime.h"
#include "workload/tpcc.h"
#include "workload/ycsb.h"

namespace geotp {
namespace perfbench {

/// Full configuration of a workload. Every value here is fixed by the
/// workload name; only the seed varies between runs.
struct WorkloadSpec {
  std::string name;
  bool tpcc = false;
  int terminals = 256;
  Micros warmup = SecToMicros(5);
  Micros measure = SecToMicros(20);
  workload::YcsbConfig ycsb;
  /// Share of YCSB transactions drawn with the zipf head mirrored onto the
  /// last (251 ms) source; the rest keep it on the DM-local source. Between
  /// 0 and 1 this models two client populations with different hot sets.
  double mirrored_share = 0.0;
  workload::TpccConfig tpcc_config;
  /// Replicas per data source (1 = unreplicated). Followers sit in their
  /// leader's region.
  int replicas = 1;
  /// Jitter on the leader-follower links too (they are fixed-latency LAN
  /// links otherwise). Only the replication-reordering reproducer sets it.
  bool jitter_followers = false;
  /// Elastic sharding: chunked shard map + the DM's balancer.
  bool sharding = false;
  sharding::BalancerConfig balancer;
  /// Pre-populate every replica's store with its partition (YCSB only).
  bool preload = false;
};

/// Looks up a workload by name; false if unknown.
bool FindWorkload(const std::string& name, WorkloadSpec* out);
std::vector<std::string> WorkloadNames();
/// One-paragraph description of the configuration (printed by every run).
std::string DescribeWorkload(const WorkloadSpec& spec);

enum class Instrument {
  kNone,       ///< plain SimRuntime: the end-to-end measurement
  kDecorated,  ///< TracingRuntime: per-layer host time, allocations, codec
  kSpans,      ///< the program's own tracer on (virtual-time spans)
};

/// Outcome of one repetition. `virtual_metrics` and `counts` are
/// deterministic for a seed; everything else is host-measured.
struct RepResult {
  double setup_s = 0.0;
  double host_us_per_txn = 0.0;  ///< process CPU in the window / commit
  double window_wall_s = 0.0;

  /// tps, p50_ms, p99_ms, abort_rate, attempts_per_commit, plus sample
  /// counts.
  std::map<std::string, double> virtual_metrics;
  /// Program-side work counters over the measurement window, per
  /// committed txn where the name says so (the deterministic count table).
  std::map<std::string, double> counts;
  /// Virtual-time span statistics (Instrument::kSpans only).
  std::map<std::string, double> spans;

  // Correctness gate.
  uint64_t attempted = 0;      ///< distinct txns the generator produced
  uint64_t committed_all = 0;  ///< commits seen by the observer, any time
  uint64_t failed = 0;         ///< unresolved at drain + retry-exhausted
  uint64_t abandoned = 0;      ///< aborted, then not retried after quiesce
  bool drained = false;
  uint64_t oracle_keys = 0;
  uint64_t oracle_mismatches = 0;
  uint64_t replica_groups_checked = 0;
  uint64_t replica_mismatches = 0;
  uint64_t store_records = 0;
  uint64_t store_bytes = 0;
  std::vector<std::string> errors;

  // Instrument::kDecorated only: window deltas at the seams.
  LayerTotals layers;
  SeamCounters seams;
};

RepResult RunRep(const WorkloadSpec& spec, uint64_t seed,
                 Instrument instrument);

/// Assembles the deployment (and preload) without running it; returns the
/// assembly time in seconds. Cheap deployments sample set-up this way.
double MeasureSetup(const WorkloadSpec& spec, uint64_t seed);

}  // namespace perfbench
}  // namespace geotp

#endif  // GEOTP_PERFBENCH_DEPLOYMENT_H_
