#include "sim/network.h"

#include <chrono>
#include <utility>

#include "common/logging.h"
#include "obs/profiler.h"

namespace geotp {
namespace sim {

Network::Network(EventLoop* loop, LatencyMatrix matrix, uint64_t seed)
    : loop_(loop),
      matrix_(std::move(matrix)),
      rng_(seed),
      handlers_(static_cast<size_t>(matrix_.num_nodes())),
      stats_(static_cast<size_t>(matrix_.num_nodes())),
      partitioned_(static_cast<size_t>(matrix_.num_nodes()), false) {}

void Network::RegisterNode(NodeId node, Handler handler) {
  GEOTP_CHECK(node >= 0 && node < num_nodes(), "node " << node);
  handlers_[static_cast<size_t>(node)] = std::move(handler);
}

void Network::Partition(NodeId node) {
  GEOTP_CHECK(node >= 0 && node < num_nodes(), "node " << node);
  partitioned_[static_cast<size_t>(node)] = true;
}

void Network::Restore(NodeId node) {
  GEOTP_CHECK(node >= 0 && node < num_nodes(), "node " << node);
  partitioned_[static_cast<size_t>(node)] = false;
}

bool Network::IsPartitioned(NodeId node) const {
  GEOTP_CHECK(node >= 0 && node < num_nodes(), "node " << node);
  return partitioned_[static_cast<size_t>(node)];
}

void Network::Send(std::unique_ptr<MessageBase> msg) {
  const NodeId from = msg->from;
  const NodeId to = msg->to;
  GEOTP_CHECK(from >= 0 && from < num_nodes(), "from " << from);
  GEOTP_CHECK(to >= 0 && to < num_nodes(), "to " << to);
  // A partitioned sender cannot emit messages either.
  if (partitioned_[static_cast<size_t>(from)]) return;

  stats_[static_cast<size_t>(from)].messages_sent++;
  ++total_messages_;

  const Micros delay = matrix_.SampleOneWay(from, to, rng_);
  // std::function requires copyable callables, so park the unique_ptr in a
  // shared holder; the event fires exactly once and moves it out.
  auto holder = std::make_shared<std::unique_ptr<MessageBase>>(std::move(msg));
  loop_->Schedule(delay, [this, to, holder]() {
    if (partitioned_[static_cast<size_t>(to)]) return;  // dropped at the NIC
    auto& handler = handlers_[static_cast<size_t>(to)];
    GEOTP_CHECK(handler != nullptr, "no handler for node " << to);
    stats_[static_cast<size_t>(to)].messages_received++;
    obs::Profiler& profiler = obs::GlobalProfiler();
    if (!profiler.enabled()) {
      handler(std::move(*holder));
      return;
    }
    // Sim-perf profile (ROADMAP direction 4): host time the simulator
    // spends handling each message kind — virtual time is stopped here,
    // so this is pure simulator overhead attribution.
    const int msg_type = static_cast<int>((*holder)->type());
    const auto t0 = std::chrono::steady_clock::now();
    handler(std::move(*holder));
    const auto t1 = std::chrono::steady_clock::now();
    profiler.RecordHandler(
        msg_type,
        static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()));
  });
}

const TrafficStats& Network::StatsFor(NodeId node) const {
  GEOTP_CHECK(node >= 0 && node < num_nodes(), "node " << node);
  return stats_[static_cast<size_t>(node)];
}

}  // namespace sim
}  // namespace geotp
