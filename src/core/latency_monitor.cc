#include "core/latency_monitor.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"

namespace geotp {
namespace core {

LatencyMonitor::LatencyMonitor(NodeId self, runtime::ITransport* transport,
                               runtime::ITimer* timer,
                               std::vector<NodeId> targets,
                               LatencyMonitorConfig config)
    : self_(self),
      network_(transport),
      timer_(timer),
      targets_(std::move(targets)),
      config_(config) {}

void LatencyMonitor::Start() {
  if (running_) return;
  running_ = true;
  SendPings();
}

void LatencyMonitor::SendPings() {
  if (!running_) return;
  // Resolve the probe set fresh each round: after a failover the provider
  // points at the new leader (and the followers), not the crashed seed.
  std::vector<PingTarget> targets;
  if (provider_) {
    targets = provider_();
  } else {
    targets.reserve(targets_.size());
    for (NodeId node : targets_) targets.push_back(PingTarget{node, node});
  }
  const uint64_t shard_epoch = epoch_provider_ ? epoch_provider_() : 0;
  for (const PingTarget& target : targets) {
    alias_of_[target.node] = target.alias;
    auto ping = std::make_unique<protocol::PingRequest>();
    ping->from = self_;
    ping->to = target.node;
    ping->seq = ++seq_;
    ping->sent_at = timer_->Now();
    ping->shard_epoch = shard_epoch;
    network_->Send(std::move(ping));
    ++pings_sent_;
  }
  timer_->Schedule(config_.ping_interval, [this]() { SendPings(); });
}

void LatencyMonitor::OnPong(const protocol::PingResponse& pong) {
  ++pongs_received_;
  const Micros sample = timer_->Now() - pong.sent_at;
  last_pong_at_[pong.from] = timer_->Now();
  RecordSample(pong.from, sample);
  RecordLoad(pong.from, pong.inflight);
  RecordOccupancy(pong.from, pong.run_queue, pong.run_queue_limit);
  auto alias = alias_of_.find(pong.from);
  if (alias != alias_of_.end() && alias->second != pong.from &&
      alias->second != kInvalidNode) {
    RecordSample(alias->second, sample);
    RecordLoad(alias->second, pong.inflight);
    RecordOccupancy(alias->second, pong.run_queue, pong.run_queue_limit);
  }
}

void LatencyMonitor::RecordOccupancy(NodeId node, uint64_t run_queue,
                                     uint64_t limit) {
  // No bound reported means the source runs unbounded: no saturation
  // signal, decay the estimate toward 0 rather than pinning it.
  const double sample =
      limit == 0 ? 0.0
                 : static_cast<double>(run_queue) / static_cast<double>(limit);
  const double alpha = config_.ewma_alpha;
  auto it = occupancy_estimates_.find(node);
  if (it == occupancy_estimates_.end()) {
    occupancy_estimates_[node] = sample;
    return;
  }
  it->second = alpha * it->second + (1.0 - alpha) * sample;
}

void LatencyMonitor::RecordLoad(NodeId node, uint64_t inflight) {
  const double alpha = config_.ewma_alpha;
  auto it = load_estimates_.find(node);
  if (it == load_estimates_.end()) {
    load_estimates_[node] = static_cast<double>(inflight);
    return;
  }
  it->second = alpha * it->second + (1.0 - alpha) * static_cast<double>(inflight);
}

void LatencyMonitor::RecordSample(NodeId node, Micros sample) {
  if (config_.bootstrap_first_sample && !seeded_[node]) {
    seeded_[node] = true;
    estimates_[node] = sample;
    return;
  }
  const double alpha = config_.ewma_alpha;
  estimates_[node] = static_cast<Micros>(
      alpha * static_cast<double>(estimates_[node]) +
      (1.0 - alpha) * static_cast<double>(sample));
}

Micros LatencyMonitor::RttEstimate(NodeId node) const {
  auto it = estimates_.find(node);
  return it == estimates_.end() ? 0 : it->second;
}

double LatencyMonitor::LoadEstimate(NodeId node) const {
  auto it = load_estimates_.find(node);
  return it == load_estimates_.end() ? 0.0 : it->second;
}

double LatencyMonitor::OccupancyEstimate(NodeId node) const {
  auto it = occupancy_estimates_.find(node);
  return it == occupancy_estimates_.end() ? 0.0 : it->second;
}

double LatencyMonitor::MaxOccupancy() const {
  double worst = 0.0;
  for (const auto& [node, occupancy] : occupancy_estimates_) {
    worst = std::max(worst, occupancy);
  }
  return worst;
}

Micros LatencyMonitor::SampleAge(NodeId node) const {
  auto it = last_pong_at_.find(node);
  if (it == last_pong_at_.end()) return std::numeric_limits<Micros>::max();
  return timer_->Now() - it->second;
}

Micros LatencyMonitor::MaxRtt(const std::vector<NodeId>& nodes) const {
  Micros max_rtt = 0;
  for (NodeId node : nodes) max_rtt = std::max(max_rtt, RttEstimate(node));
  return max_rtt;
}

}  // namespace core
}  // namespace geotp
