// GeoScheduler: latency-aware subtransaction scheduling (paper §IV-B/C,
// Algorithm 2).
//
// Given the participants of one interactive round and the records each
// will touch, the scheduler computes a postpone delay per participant so
// every subtransaction finishes its execution+prepare at the same instant:
//
//   basic (Eq. 3):     t_start(Tij) = max_s tau_s              - tau_j
//   forecast (Eq. 8):  t_start(Tij) = max_s (tau_s + LEL^_s)   - (tau_j + LEL^_j)
//
// with tau from the LatencyMonitor and LEL^ from the HotspotFootprint.
// The forecast path additionally applies late transaction scheduling
// (Eq. 9): transactions whose predicted abort probability is too high are
// delayed (blocked) and eventually aborted after a retry budget.
//
// Baseline policies are expressed in the same vocabulary:
//  * kImmediate — dispatch everything now (SSP);
//  * kChiller   — the lowest-latency ("inner region") participant is
//    dispatched only after the remote ones complete (postpone = max tau);
//  * QURO is not a postponing policy (it reorders operations inside each
//    batch) and is handled by the coordinator via ReorderQuro().
#ifndef GEOTP_CORE_GEO_SCHEDULER_H_
#define GEOTP_CORE_GEO_SCHEDULER_H_

#include <vector>

#include "common/random.h"
#include "common/types.h"
#include "core/hotspot_footprint.h"
#include "core/latency_monitor.h"
#include "protocol/messages.h"

namespace geotp {
namespace core {

enum class SchedulerPolicy : uint8_t {
  kImmediate,
  kLatencyAware,          ///< O2: Eq. 3
  kLatencyAwareForecast,  ///< O2+O3: Eq. 8 (+ Eq. 9 when admission on)
  kChiller,
};

const char* SchedulerPolicyName(SchedulerPolicy policy);

struct AdmissionConfig {
  bool enabled = false;
  /// Retry budget before the transaction is aborted (Algorithm 2 line 16).
  int retry_limit = 10;
  /// Delay before re-evaluating a blocked transaction. Long enough for a
  /// hot-record queue to drain meaningfully between evaluations; too short
  /// turns blocking into an abort storm (see bench_fig12_ablation).
  Micros retry_backoff = MsToMicros(20);
  /// Abort probability above which admission even bothers sampling
  /// (tiny probabilities always admit, saving RNG noise).
  double min_considered_probability = 0.05;
};

struct SchedulerConfig {
  SchedulerPolicy policy = SchedulerPolicy::kImmediate;
  AdmissionConfig admission;
  /// Scale factor on the forecasted LEL (paper §IV-C: "in cases of
  /// inaccurate runtime predictions, we can scale down the predicted
  /// latency before incorporating it into calculations" — the measured
  /// LEL embeds queue waits, so the raw forecast over-postpones and the
  /// delayed subtransaction becomes the new bottleneck).
  double forecast_scale = 0.3;
};

/// One participant of the round: target data source + records.
struct ParticipantPlanInput {
  NodeId data_source = kInvalidNode;
  std::vector<RecordKey> keys;
};

struct SubtxnPlan {
  NodeId data_source = kInvalidNode;
  Micros postpone = 0;
};

enum class AdmissionVerdict : uint8_t { kAdmit, kBlock, kAbort };

struct ScheduleDecision {
  AdmissionVerdict verdict = AdmissionVerdict::kAdmit;
  Micros retry_backoff = 0;  ///< meaningful when verdict == kBlock
  std::vector<SubtxnPlan> plans;
};

class GeoScheduler {
 public:
  GeoScheduler(SchedulerConfig config, const LatencyMonitor* monitor,
               const HotspotFootprint* footprint);

  /// Plans one round. `attempt` counts admission retries for this round
  /// (Algorithm 2's retry_cnt); pass 0 on first try.
  ScheduleDecision ScheduleRound(
      const std::vector<ParticipantPlanInput>& participants, int attempt,
      Rng& rng) const;

  /// QURO preprocessing: reorders a batch so reads come before writes
  /// (exclusive locks acquired as late as possible), stably.
  static void ReorderQuro(std::vector<protocol::ClientOp>& ops);

  const SchedulerConfig& config() const { return config_; }

 private:
  SchedulerConfig config_;
  const LatencyMonitor* monitor_;
  const HotspotFootprint* footprint_;
  // Per-round scratch, reused so planning a round allocates only its
  // decision: every key's stats, resolved once for Eq. 9 and Eq. 5, and
  // each participant's effective latency.
  mutable std::vector<const RecordStats*> resolved_;
  mutable std::vector<Micros> effective_;
};

}  // namespace core
}  // namespace geotp

#endif  // GEOTP_CORE_GEO_SCHEDULER_H_
