// Wire codec for the loopback runtime: every concrete MessageType can be
// serialized to a flat byte string and rebuilt on the far side of a TCP
// socket.
//
// Format: little-endian fixed-width integers, length-prefixed strings and
// vectors. The envelope is the u16 MessageType tag, `from`/`to`, and the
// trace context (one absence byte when unsampled); then the message's
// fields in the order its Fields() list names them. The envelope is
// written here by hand; the fields come from the walker in common/wire.h,
// the same one the WAN packing uses, so no field list is repeated in the
// codec. The format is a process-boundary transport detail, not a storage
// format: there is no version negotiation, and both ends of a loopback
// deployment run the same binary.
//
// The simulator never touches this codec (messages cross sim::Network as
// live C++ objects). codec.cc's type table fails the build when a
// MessageType has no struct, and the contract tests round-trip every type
// through the codec.
#ifndef GEOTP_RUNTIME_CODEC_H_
#define GEOTP_RUNTIME_CODEC_H_

#include <memory>
#include <string>

#include "runtime/message.h"

namespace geotp {
namespace runtime {

/// Serializes `msg` (tag + from/to + fields). Aborts on a message type the
/// codec does not know — every type in MessageType must be encodable.
std::string EncodeMessage(const MessageBase& msg);

/// Rebuilds a message from EncodeMessage output. Returns nullptr on a
/// malformed or truncated buffer (the loopback transport drops the frame
/// and logs; a bounds overrun never reads past the buffer).
std::unique_ptr<MessageBase> DecodeMessage(const std::string& bytes);

}  // namespace runtime
}  // namespace geotp

#endif  // GEOTP_RUNTIME_CODEC_H_
