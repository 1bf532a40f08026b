#include "tracing_runtime.h"

#include <utility>

#include "runtime/codec.h"

namespace geotp {
namespace perfbench {

using runtime::MessageType;

Layer LayerFor(Role role, MessageType type) {
  if (role == Role::kClient) return Layer::kWorkload;
  const Layer home =
      role == Role::kMiddleware ? Layer::kMiddleware : Layer::kDatasource;
  switch (type) {
    case MessageType::kClientRoundRequest:
    case MessageType::kClientFinishRequest:
    case MessageType::kBranchExecuteRequest:
    case MessageType::kBranchExecuteResponse:
    case MessageType::kPrepareRequest:
    case MessageType::kPrepareBatch:
    case MessageType::kVoteMessage:
    case MessageType::kDecisionRequest:
    case MessageType::kDecisionBatch:
    case MessageType::kDecisionAck:
    case MessageType::kPeerAbortRequest:
    case MessageType::kFollowerReadResponse:
      return home;
    // Leadership changes are replication's work at a replica and failover
    // re-routing at the DM.
    case MessageType::kLeaderAnnounce:
    case MessageType::kNotLeaderResponse:
    case MessageType::kReplAppendRequest:
    case MessageType::kReplAppendAck:
    case MessageType::kReplVoteRequest:
    case MessageType::kReplVoteResponse:
    case MessageType::kFollowerReadRequest:
      return role == Role::kMiddleware ? Layer::kMiddleware
                                       : Layer::kReplication;
    case MessageType::kShardMigrateRequest:
    case MessageType::kShardMigrateCancel:
    case MessageType::kShardSnapshotChunk:
    case MessageType::kShardSnapshotAck:
    case MessageType::kShardDeltaBatch:
    case MessageType::kShardDeltaAck:
    case MessageType::kShardCutoverReady:
    case MessageType::kShardMigrateAborted:
    case MessageType::kShardMapUpdate:
    case MessageType::kShardRedirect:
    case MessageType::kShardSeedOffer:
    case MessageType::kShardSeedDecline:
      return Layer::kSharding;
    case MessageType::kPingRequest:
    case MessageType::kPingResponse:
      return Layer::kCore;
    default:
      return Layer::kUnattributed;
  }
}

SeamCounters SeamCounters::operator-(const SeamCounters& base) const {
  SeamCounters out;
  for (size_t i = 0; i < kNumMessageTypes; ++i) {
    out.delivered[i] = delivered[i] - base.delivered[i];
    out.handler_ns[i] = handler_ns[i] - base.handler_ns[i];
  }
  out.codec_messages = codec_messages - base.codec_messages;
  out.codec_bytes = codec_bytes - base.codec_bytes;
  out.codec_ns = codec_ns - base.codec_ns;
  out.codec_failures = codec_failures - base.codec_failures;
  out.flushes = flushes - base.flushes;
  out.flush_bytes = flush_bytes - base.flush_bytes;
  out.timers = timers - base.timers;
  return out;
}

namespace {

/// Wraps `fn` so it runs in a frame of the layer current at wrap time.
std::function<void()> InheritLayer(std::function<void()> fn, Layer fallback) {
  const bool inherited = InFrame();
  const Layer layer = CurrentLayer(fallback);
  AllocPause pause;  // the wrapper is the decorator's cost, not the program's
  return [layer, reclassifiable = !inherited, fn = std::move(fn)]() {
    Frame frame(layer, reclassifiable);
    fn();
  };
}

}  // namespace

class TracingRuntime::Timer : public runtime::ITimer {
 public:
  Timer(runtime::ITimer* inner, Layer home, SeamCounters* counters)
      : inner_(inner), home_(home), counters_(counters) {}

  Micros Now() const override { return inner_->Now(); }
  runtime::TimerId Schedule(Micros delay, std::function<void()> fn) override {
    counters_->timers++;
    return inner_->Schedule(delay, InheritLayer(std::move(fn), home_));
  }
  runtime::TimerId ScheduleAt(Micros when, std::function<void()> fn) override {
    counters_->timers++;
    return inner_->ScheduleAt(when, InheritLayer(std::move(fn), home_));
  }
  bool Cancel(runtime::TimerId id) override { return inner_->Cancel(id); }

 private:
  runtime::ITimer* inner_;
  Layer home_;
  SeamCounters* counters_;
};

class TracingRuntime::Transport : public runtime::ITransport {
 public:
  Transport(runtime::ITransport* inner, Role role, SeamCounters* counters)
      : inner_(inner), role_(role), counters_(counters) {}

  void RegisterNode(NodeId node, Handler handler) override {
    Handler wrapped;
    {
      AllocPause pause;
      wrapped = [this, handler = std::move(handler)](
                    std::unique_ptr<runtime::MessageBase> msg) {
        Deliver(handler, std::move(msg));
      };
    }
    inner_->RegisterNode(node, std::move(wrapped));
  }

  void Send(std::unique_ptr<runtime::MessageBase> msg) override {
    const Layer owner = LayerFor(role_, msg->type());
    if (CurrentReclassifiable() && owner != Layer::kUnattributed) {
      Reclassify(owner);
    }
    Frame frame(Layer::kSim);
    inner_->Send(std::move(msg));
  }

  void Partition(NodeId node) override { inner_->Partition(node); }
  void Restore(NodeId node) override { inner_->Restore(node); }
  bool IsPartitioned(NodeId node) const override {
    return inner_->IsPartitioned(node);
  }

 private:
  void Deliver(const Handler& handler,
               std::unique_ptr<runtime::MessageBase> msg) {
    const size_t type = static_cast<size_t>(msg->type());
    const int64_t start = NowNs();
    {
      Frame frame(LayerFor(role_, msg->type()));
      Codec(*msg);
      handler(std::move(msg));
    }
    if (type < kNumMessageTypes) {
      counters_->delivered[type]++;
      counters_->handler_ns[type] += NowNs() - start;
    }
  }

  /// The loopback runtime's per-message wire cost, paid on the sim path:
  /// encode + decode with the real codec, result discarded.
  void Codec(const runtime::MessageBase& msg) {
    Frame frame(Layer::kRuntime);
    const int64_t start = NowNs();
    const std::string bytes = runtime::EncodeMessage(msg);
    const bool ok = runtime::DecodeMessage(bytes) != nullptr;
    counters_->codec_ns += NowNs() - start;
    counters_->codec_messages++;
    counters_->codec_bytes += bytes.size();
    if (!ok) counters_->codec_failures++;
  }

  runtime::ITransport* inner_;
  Role role_;
  SeamCounters* counters_;
};

class TracingRuntime::Storage : public runtime::IStableStorage {
 public:
  Storage(std::unique_ptr<runtime::IStableStorage> inner,
          SeamCounters* counters)
      : inner_(std::move(inner)), counters_(counters) {}

  void Flush(std::string batch, Micros cost_hint,
             std::function<void()> done) override {
    counters_->flushes++;
    counters_->flush_bytes += batch.size();
    std::function<void()> wrapped;
    {
      AllocPause pause;
      wrapped = [done = std::move(done)]() {
        Frame frame(Layer::kStorage);
        done();
      };
    }
    inner_->Flush(std::move(batch), cost_hint, std::move(wrapped));
  }
  uint64_t fsyncs() const override { return inner_->fsyncs(); }
  uint64_t bytes_flushed() const override { return inner_->bytes_flushed(); }

 private:
  std::unique_ptr<runtime::IStableStorage> inner_;
  SeamCounters* counters_;
};

class TracingRuntime::StorageFactory : public runtime::IStorageFactory {
 public:
  StorageFactory(runtime::IStorageFactory* inner, SeamCounters* counters)
      : inner_(inner), counters_(counters) {}

  std::unique_ptr<runtime::IStableStorage> OpenStorage(
      NodeId node, const std::string& name) override {
    return std::make_unique<Storage>(inner_->OpenStorage(node, name),
                                     counters_);
  }

 private:
  runtime::IStorageFactory* inner_;
  SeamCounters* counters_;
};

TracingRuntime::TracingRuntime(runtime::Runtime* inner) : inner_(inner) {}

TracingRuntime::~TracingRuntime() = default;

runtime::ActorEnv TracingRuntime::EnvFor(NodeId node, Role role) {
  const Layer home = role == Role::kClient       ? Layer::kWorkload
                     : role == Role::kMiddleware ? Layer::kMiddleware
                                                 : Layer::kDatasource;
  timers_.push_back(
      std::make_unique<Timer>(inner_->TimerFor(node), home, &counters_));
  transports_.push_back(std::make_unique<Transport>(
      inner_->transport(), role, &counters_));
  factories_.push_back(std::make_unique<StorageFactory>(inner_, &counters_));
  return runtime::ActorEnv{node, timers_.back().get(),
                           transports_.back().get(), factories_.back().get()};
}

}  // namespace perfbench
}  // namespace geotp
