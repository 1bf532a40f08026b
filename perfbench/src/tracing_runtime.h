// Decorating runtime: wraps the ITimer / ITransport / IStableStorage that
// the benchmark hands each actor through runtime::ActorEnv, and attributes
// the host cost of every callback to a layer (accounting.h).
//
// Attribution rules:
//   * A delivered message runs in a frame of the layer that owns its
//     handler, decided by the receiving actor's role and the MessageType
//     (LayerFor).
//   * A timer callback inherits the layer of the frame that scheduled it.
//     Timers scheduled outside any frame (during deployment assembly) start
//     as the actor's default layer and adopt the layer of the first
//     message they send, so periodic chains (pings, heartbeats, balancer
//     ticks) land on the layer that owns them.
//   * Flush completions of a storage device are charged to `storage`.
//   * Send is a child frame charged to `sim`. Every delivered message is
//     also encoded and decoded with the real wire codec, in a child frame
//     charged to `runtime`: the cost the loopback runtime would pay.
//
// The decorators never change what the program does: the wrapped
// callbacks run in the same order at the same virtual times.
#ifndef GEOTP_PERFBENCH_TRACING_RUNTIME_H_
#define GEOTP_PERFBENCH_TRACING_RUNTIME_H_

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "accounting.h"
#include "runtime/runtime.h"

namespace geotp {
namespace perfbench {

enum class Role { kClient, kMiddleware, kDataSource };

/// Owning layer of a message handler on an actor of `role`.
Layer LayerFor(Role role, runtime::MessageType type);

constexpr size_t kNumMessageTypes = 64;

/// Counters gathered at the decorated seams (cumulative).
struct SeamCounters {
  std::array<uint64_t, kNumMessageTypes> delivered{};
  std::array<int64_t, kNumMessageTypes> handler_ns{};
  uint64_t codec_messages = 0;
  uint64_t codec_bytes = 0;
  int64_t codec_ns = 0;
  uint64_t codec_failures = 0;
  uint64_t flushes = 0;
  uint64_t flush_bytes = 0;
  uint64_t timers = 0;

  SeamCounters operator-(const SeamCounters& base) const;
};

/// Wraps one backend Runtime; EnvFor(node, role) returns an env whose
/// seams are decorated for that actor. Decorators live as long as this
/// object.
class TracingRuntime {
 public:
  explicit TracingRuntime(runtime::Runtime* inner);
  TracingRuntime(const TracingRuntime&) = delete;
  TracingRuntime& operator=(const TracingRuntime&) = delete;
  ~TracingRuntime();

  runtime::ActorEnv EnvFor(NodeId node, Role role);
  const SeamCounters& counters() const { return counters_; }

 private:
  class Timer;
  class Transport;
  class Storage;
  class StorageFactory;

  runtime::Runtime* inner_;
  SeamCounters counters_;
  std::vector<std::unique_ptr<Timer>> timers_;
  std::vector<std::unique_ptr<Transport>> transports_;
  std::vector<std::unique_ptr<StorageFactory>> factories_;
};

}  // namespace perfbench
}  // namespace geotp

#endif  // GEOTP_PERFBENCH_TRACING_RUNTIME_H_
