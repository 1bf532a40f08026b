#include "core/geo_scheduler.h"

#include <algorithm>

#include "common/logging.h"

namespace geotp {
namespace core {

const char* SchedulerPolicyName(SchedulerPolicy policy) {
  switch (policy) {
    case SchedulerPolicy::kImmediate:
      return "immediate";
    case SchedulerPolicy::kLatencyAware:
      return "latency-aware";
    case SchedulerPolicy::kLatencyAwareForecast:
      return "latency-aware+forecast";
    case SchedulerPolicy::kChiller:
      return "chiller";
  }
  return "?";
}

GeoScheduler::GeoScheduler(SchedulerConfig config,
                           const LatencyMonitor* monitor,
                           const HotspotFootprint* footprint)
    : config_(config), monitor_(monitor), footprint_(footprint) {}

ScheduleDecision GeoScheduler::ScheduleRound(
    const std::vector<ParticipantPlanInput>& participants, int attempt,
    Rng& rng) const {
  ScheduleDecision decision;
  decision.plans.reserve(participants.size());

  // Every key of the round is looked up once, participants first, then
  // keys; Eq. 9 and Eq. 5 read the same resolved stats in that order.
  // attempt < 0 disables admission for this call (re-scheduling of later
  // rounds / prepare dispatch — only whole transactions are admitted).
  const bool forecast =
      config_.policy == SchedulerPolicy::kLatencyAwareForecast &&
      footprint_ != nullptr;
  const bool admission = attempt >= 0 && forecast &&
                         config_.admission.enabled && !participants.empty();
  resolved_.clear();
  if (forecast) {
    for (const auto& p : participants) footprint_->Resolve(p.keys, &resolved_);
  }
  const RecordStats* const* resolved = resolved_.data();

  // Late transaction scheduling (Eq. 9): predict the abort probability
  // over every record the round touches; block high-risk transactions.
  if (admission) {
    const double abort_prob = HotspotFootprint::AbortProbability(
        resolved, resolved + resolved_.size());
    if (abort_prob > config_.admission.min_considered_probability &&
        rng.NextDouble() < abort_prob) {
      if (attempt + 1 >= config_.admission.retry_limit) {
        decision.verdict = AdmissionVerdict::kAbort;  // Algorithm 2 line 18
      } else {
        decision.verdict = AdmissionVerdict::kBlock;
        decision.retry_backoff = config_.admission.retry_backoff;
      }
      return decision;
    }
  }

  // Effective latency per participant: tau (+ scaled LEL forecast).
  effective_.assign(participants.size(), 0);
  const RecordStats* const* keys_begin = resolved;
  for (size_t i = 0; i < participants.size(); ++i) {
    const auto& p = participants[i];
    Micros tau =
        monitor_ != nullptr ? monitor_->RttEstimate(p.data_source) : 0;
    Micros lel = 0;
    if (forecast) {
      const RecordStats* const* keys_end = keys_begin + p.keys.size();
      lel = static_cast<Micros>(
          config_.forecast_scale *
          static_cast<double>(
              HotspotFootprint::ForecastLel(keys_begin, keys_end)));
      keys_begin = keys_end;
    }
    effective_[i] = tau + lel;
  }
  const Micros lat_max =
      participants.empty()
          ? 0
          : *std::max_element(effective_.begin(), effective_.end());

  for (size_t i = 0; i < participants.size(); ++i) {
    SubtxnPlan plan;
    plan.data_source = participants[i].data_source;
    switch (config_.policy) {
      case SchedulerPolicy::kImmediate:
        plan.postpone = 0;
        break;
      case SchedulerPolicy::kLatencyAware:
      case SchedulerPolicy::kLatencyAwareForecast:
        // Eq. 3 / Eq. 8.
        plan.postpone = lat_max - effective_[i];
        break;
      case SchedulerPolicy::kChiller: {
        // Inner-region (lowest-latency) participant executes after the
        // remote ones complete; everyone else dispatches now. Single-
        // participant rounds never postpone.
        const Micros my_tau =
            monitor_ != nullptr
                ? monitor_->RttEstimate(participants[i].data_source)
                : 0;
        Micros min_tau = my_tau;
        Micros max_tau = my_tau;
        for (const auto& p : participants) {
          const Micros tau =
              monitor_ != nullptr ? monitor_->RttEstimate(p.data_source) : 0;
          min_tau = std::min(min_tau, tau);
          max_tau = std::max(max_tau, tau);
        }
        const bool is_inner = my_tau == min_tau && min_tau < max_tau;
        plan.postpone = is_inner && participants.size() > 1 ? max_tau : 0;
        break;
      }
    }
    if (plan.postpone < 0) plan.postpone = 0;
    decision.plans.push_back(plan);
  }
  return decision;
}

void GeoScheduler::ReorderQuro(std::vector<protocol::ClientOp>& ops) {
  // Stable partition: reads first, writes last — exclusive locks are
  // acquired as late as possible (QURO's reordering, §VIII).
  std::stable_partition(ops.begin(), ops.end(),
                        [](const protocol::ClientOp& op) {
                          return !op.is_write;
                        });
}

}  // namespace core
}  // namespace geotp
