#include "protocol/wan_codec.h"

#include "common/wire.h"

namespace geotp {
namespace protocol {
namespace {

// A packed payload is a wire vector: u32 count, then each element's
// Fields() in order (common/wire.h).
template <typename T>
std::string Pack(const std::vector<T>& items) {
  std::string out;
  out.reserve(sizeof(uint32_t) + items.size() * wire::MinBytes<T>());
  wire::Writer writer(&out);
  writer(items);
  return out;
}

template <typename T>
bool Unpack(const std::string& bytes, std::vector<T>* items) {
  items->clear();
  wire::Reader reader(bytes);
  reader(*items);
  return reader.AtEnd();
}

}  // namespace

std::string PackWrites(const std::vector<ReplWrite>& writes) {
  return Pack(writes);
}

bool UnpackWrites(const std::string& bytes,
                  std::vector<ReplWrite>* writes) {
  return Unpack(bytes, writes);
}

std::string PackEntries(const std::vector<ReplEntry>& entries) {
  return Pack(entries);
}

bool UnpackEntries(const std::string& bytes,
                   std::vector<ReplEntry>* entries) {
  return Unpack(bytes, entries);
}

EnvelopeBytes SealAppendPayload(common::WireCodec codec,
                                ReplAppendRequest* req) {
  EnvelopeBytes bytes;
  if (req->entries.empty()) return bytes;  // heartbeats stay bare
  const std::string raw = PackEntries(req->entries);
  bytes.raw = raw.size();
  if (codec == common::WireCodec::kRaw) {
    // Pre-negotiation receiver: ship the plain vector (no envelope); it
    // still counts as raw-sized WAN traffic.
    bytes.wire = raw.size();
    return bytes;
  }
  const common::WireCodec used =
      common::EncodePayload(codec, raw, &req->payload);
  req->payload_codec = static_cast<uint8_t>(used);
  req->payload_uncompressed_len = static_cast<uint32_t>(raw.size());
  req->payload_hash = common::ContentHash64(raw);
  req->entries.clear();
  bytes.wire = req->payload.size();
  return bytes;
}

bool OpenAppendPayload(ReplAppendRequest* req) {
  if (req->payload.empty()) return true;  // plain (or heartbeat) frame
  std::string raw;
  if (!common::DecodePayload(
          static_cast<common::WireCodec>(req->payload_codec), req->payload,
          req->payload_uncompressed_len, req->payload_hash, &raw)) {
    return false;
  }
  if (!UnpackEntries(raw, &req->entries)) return false;
  req->payload.clear();
  return true;
}

EnvelopeBytes SealChunkPayload(common::WireCodec codec,
                               ShardSnapshotChunk* chunk) {
  EnvelopeBytes bytes;
  const std::string raw = PackWrites(chunk->records);
  bytes.raw = raw.size();
  // Always set: the hash is the chunk's identity in the re-seed
  // handshake, whatever codec the stream negotiated.
  chunk->content_hash = common::ContentHash64(raw);
  if (codec == common::WireCodec::kRaw) {
    bytes.wire = raw.size();
    return bytes;
  }
  const common::WireCodec used =
      common::EncodePayload(codec, raw, &chunk->payload);
  chunk->payload_codec = static_cast<uint8_t>(used);
  chunk->payload_uncompressed_len = static_cast<uint32_t>(raw.size());
  chunk->records.clear();
  bytes.wire = chunk->payload.size();
  return bytes;
}

bool OpenChunkPayload(ShardSnapshotChunk* chunk) {
  if (chunk->payload.empty()) return true;
  std::string raw;
  if (!common::DecodePayload(
          static_cast<common::WireCodec>(chunk->payload_codec),
          chunk->payload, chunk->payload_uncompressed_len,
          chunk->content_hash, &raw)) {
    return false;
  }
  if (!UnpackWrites(raw, &chunk->records)) return false;
  chunk->payload.clear();
  return true;
}

}  // namespace protocol
}  // namespace geotp
