#include "runtime/codec.h"

#include <array>

#include "baselines/store_messages.h"
#include "common/logging.h"
#include "common/wire.h"
#include "protocol/messages.h"

namespace geotp {
namespace runtime {
namespace {

struct BodyCodec {
  MessageType type = MessageType::kUnknown;
  void (*encode)(const MessageBase& msg, wire::Writer& w) = nullptr;
  std::unique_ptr<MessageBase> (*decode)(wire::Reader& r) = nullptr;
};

template <typename T>
void EncodeBody(const MessageBase& msg, wire::Writer& w) {
  w(static_cast<const T&>(msg));
}

template <typename T>
std::unique_ptr<MessageBase> DecodeBody(wire::Reader& r) {
  auto msg = std::make_unique<T>();
  r(*msg);
  return msg;
}

/// Body codecs indexed by MessageType tag; slot 0 (kUnknown) stays empty.
template <typename... Ts>
constexpr std::array<BodyCodec, sizeof...(Ts) + 1> BodyCodecs() {
  std::array<BodyCodec, sizeof...(Ts) + 1> table{};
  ((table[static_cast<size_t>(Ts::kMessageType)] =
        BodyCodec{Ts::kMessageType, &EncodeBody<Ts>, &DecodeBody<Ts>}),
   ...);
  return table;
}

// Every concrete message, once. A tag outside the table fails to compile.
constexpr auto kBodyCodecs = BodyCodecs<
    protocol::ClientRoundRequest, protocol::ClientRoundResponse,
    protocol::ClientFinishRequest, protocol::ClientTxnResult,
    protocol::BranchExecuteRequest, protocol::BranchExecuteResponse,
    protocol::PrepareRequest, protocol::PrepareBatch, protocol::VoteMessage,
    protocol::DecisionRequest, protocol::DecisionBatch, protocol::DecisionAck,
    protocol::PeerAbortRequest, protocol::ReplAppendRequest,
    protocol::ReplAppendAck, protocol::ReplVoteRequest,
    protocol::ReplVoteResponse, protocol::LeaderAnnounce,
    protocol::NotLeaderResponse, protocol::FollowerReadRequest,
    protocol::FollowerReadResponse, protocol::ShardMigrateRequest,
    protocol::ShardMigrateCancel, protocol::ShardSnapshotChunk,
    protocol::ShardSnapshotAck, protocol::ShardDeltaBatch,
    protocol::ShardDeltaAck, protocol::ShardCutoverReady,
    protocol::ShardMigrateAborted, protocol::ShardMapUpdate,
    protocol::ShardRedirect, protocol::PingRequest, protocol::PingResponse,
    baselines::StoreReadRequest, baselines::StoreReadResponse,
    baselines::StorePrepareRequest, baselines::StorePrepareResponse,
    baselines::StoreDecisionRequest, baselines::StoreDecisionAck,
    baselines::YbBatchRequest, baselines::YbBatchResponse,
    baselines::YbResolveRequest, protocol::OverloadedResponse,
    protocol::ShardSeedOffer, protocol::ShardSeedDecline>();

constexpr bool EveryTagHasACodec() {
  for (size_t tag = 1; tag < kBodyCodecs.size(); ++tag) {
    if (kBodyCodecs[tag].type != static_cast<MessageType>(tag)) return false;
  }
  return true;
}
static_assert(EveryTagHasACodec(),
              "each MessageType needs exactly one struct in kBodyCodecs");
static_assert(kBodyCodecs.size() ==
                  static_cast<size_t>(MessageType::kShardSeedDecline) + 1,
              "every MessageType needs an entry in kBodyCodecs");

}  // namespace

std::string EncodeMessage(const MessageBase& msg) {
  const auto tag = static_cast<uint16_t>(msg.type());
  GEOTP_CHECK(tag != 0 && tag < kBodyCodecs.size(),
              "codec: cannot encode message type " << tag);
  std::string out;
  wire::Writer w(&out);
  w(tag, msg.from, msg.to);
  // Trace context: one absence byte for the (default) unsampled case so
  // disabled tracing costs one wire byte, not 24.
  if (msg.trace.valid()) {
    w(uint8_t{1}, msg.trace.trace_id, msg.trace.span_id,
      msg.trace.parent_span_id);
  } else {
    w(uint8_t{0});
  }
  kBodyCodecs[tag].encode(msg, w);
  return out;
}

std::unique_ptr<MessageBase> DecodeMessage(const std::string& bytes) {
  wire::Reader r(bytes);
  uint16_t tag = 0;
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  uint8_t traced = 0;
  r(tag, from, to, traced);
  obs::TraceContext trace;
  if (traced != 0) r(trace.trace_id, trace.span_id, trace.parent_span_id);
  if (!r.ok() || tag == 0 || tag >= kBodyCodecs.size()) return nullptr;
  std::unique_ptr<MessageBase> out = kBodyCodecs[tag].decode(r);
  if (!r.AtEnd()) return nullptr;
  out->from = from;
  out->to = to;
  out->trace = trace;
  return out;
}

}  // namespace runtime
}  // namespace geotp
