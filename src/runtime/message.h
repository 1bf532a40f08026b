// MessageBase / MessageType: the wire-level message vocabulary of the
// protocol stack, independent of any execution backend. The same message
// structs travel either through sim::Network (virtual time, sampled link
// latency) or through the loopback runtime's TCP sockets (real threads,
// real wire bytes via runtime/codec.h).
#ifndef GEOTP_RUNTIME_MESSAGE_H_
#define GEOTP_RUNTIME_MESSAGE_H_

#include <cstdint>

#include "common/types.h"
#include "obs/trace.h"

namespace geotp {
namespace runtime {

/// Tag identifying each concrete message type so receivers can dispatch
/// with one switch instead of a dynamic_cast chain (the cast chains showed
/// up prominently in simulator profiles) and the loopback codec can frame
/// messages on the wire. Values cover every message in src/protocol and
/// src/baselines; the runtimes themselves never interpret them.
enum class MessageType : uint16_t {
  kUnknown = 0,
  // Client <-> middleware.
  kClientRoundRequest,
  kClientRoundResponse,
  kClientFinishRequest,
  kClientTxnResult,
  // Middleware <-> data source.
  kBranchExecuteRequest,
  kBranchExecuteResponse,
  kPrepareRequest,
  kPrepareBatch,
  kVoteMessage,
  kDecisionRequest,
  kDecisionBatch,
  kDecisionAck,
  kPeerAbortRequest,
  // Replication.
  kReplAppendRequest,
  kReplAppendAck,
  kReplVoteRequest,
  kReplVoteResponse,
  kLeaderAnnounce,
  kNotLeaderResponse,
  kFollowerReadRequest,
  kFollowerReadResponse,
  // Elastic sharding (src/sharding).
  kShardMigrateRequest,
  kShardMigrateCancel,
  kShardSnapshotChunk,
  kShardSnapshotAck,
  kShardDeltaBatch,
  kShardDeltaAck,
  kShardCutoverReady,
  kShardMigrateAborted,
  kShardMapUpdate,
  kShardRedirect,
  // Latency monitoring.
  kPingRequest,
  kPingResponse,
  // Baseline stores (src/baselines).
  kStoreReadRequest,
  kStoreReadResponse,
  kStorePrepareRequest,
  kStorePrepareResponse,
  kStoreDecisionRequest,
  kStoreDecisionAck,
  kYbBatchRequest,
  kYbBatchResponse,
  kYbResolveRequest,
  // Overload control (appended so earlier wire values stay stable).
  kOverloadedResponse,
  // Incremental re-seed handshake (appended likewise).
  kShardSeedOffer,
  kShardSeedDecline,
};

/// Base class for anything sent between actors. Concrete message types
/// live in src/protocol (and src/baselines for the baseline stores).
struct MessageBase {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  /// Distributed-tracing context piggybacked on every envelope. Invalid
  /// (trace_id 0) unless the transaction was sampled; the codec encodes
  /// an invalid context as a single absence byte.
  obs::TraceContext trace;
  virtual ~MessageBase() = default;

  /// Dispatch tag; every concrete message fixes it through Message<>.
  virtual MessageType type() const { return MessageType::kUnknown; }
};

/// Tagged base of every concrete message: the struct names its
/// MessageType once, and the codec's type table reads it back at compile
/// time through kMessageType.
template <MessageType kType>
struct Message : MessageBase {
  static constexpr MessageType kMessageType = kType;
  MessageType type() const override { return kType; }
};

}  // namespace runtime
}  // namespace geotp

#endif  // GEOTP_RUNTIME_MESSAGE_H_
