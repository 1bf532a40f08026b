// Field walker behind every byte encoding of a wire struct: the loopback
// frame codec (runtime/codec.cc) and the packed WAN payloads
// (protocol/wan_codec.cc).
//
// A wire struct declares its fields once, in wire order:
//
//   struct ReplWrite {
//     RecordKey key;
//     int64_t value = 0;
//     template <typename V> void Fields(V&& v) { v(key, value); }
//   };
//
// Writer walks that list to append bytes; Reader walks the same list to
// fill a default-constructed value. Fields() is non-const so one list
// serves both directions; the Writer only reads through it.
//
// Layout: integers little-endian at their declared width (little-endian
// hosts only); bool and enums as their one-byte value; std::string and
// std::vector as a u32 length or count, then the contents;
// shared_ptr<const T> as a presence byte, then T; Status as its code byte,
// then its message.
//
// The Reader is total. It never reads past its input, rejects an enum byte
// above the enum's last enumerator (declared by a `WireMax(E)` overload
// next to the enum, found by ADL), and refuses a vector count the rest of
// the input could not hold even at the element's minimum encoded size, so a
// forged count never drives an allocation. A failure latches; callers test
// ok() or AtEnd() once, after the walk.
#ifndef GEOTP_COMMON_WIRE_H_
#define GEOTP_COMMON_WIRE_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/status.h"

namespace geotp {
namespace wire {

class Writer {
 public:
  explicit Writer(std::string* out) : out_(out) {}

  template <typename... Ts>
  void operator()(const Ts&... fields) {
    (Put(fields), ...);
  }

 private:
  template <typename T>
  void Put(const T& v) {
    if constexpr (std::is_enum_v<T>) {
      Put(static_cast<std::underlying_type_t<T>>(v));
    } else if constexpr (std::is_same_v<T, bool>) {
      out_->push_back(v ? 1 : 0);
    } else if constexpr (std::is_arithmetic_v<T>) {
      out_->append(reinterpret_cast<const char*>(&v), sizeof(v));
    } else {
      const_cast<T&>(v).Fields(*this);
    }
  }
  void Put(const std::string& s) {
    Put(static_cast<uint32_t>(s.size()));
    out_->append(s);
  }
  void Put(const Status& s) {
    Put(s.code());
    Put(s.message());
  }
  template <typename T>
  void Put(const std::vector<T>& items) {
    Put(static_cast<uint32_t>(items.size()));
    for (const T& item : items) Put(item);
  }
  template <typename T>
  void Put(const std::shared_ptr<const T>& p) {
    Put(p != nullptr);
    if (p != nullptr) Put(*p);
  }

  std::string* out_;
};

/// Bytes of the shortest encoding of a T: its default value, whose
/// strings and vectors are empty and whose pointers are null.
template <typename T>
size_t MinBytes() {
  if constexpr (std::is_arithmetic_v<T> || std::is_enum_v<T>) {
    return sizeof(T);
  } else {
    static const size_t bytes = [] {
      std::string out;
      Writer writer(&out);
      writer(T{});
      return out.size();
    }();
    return bytes;
  }
}

class Reader {
 public:
  explicit Reader(const std::string& in) : in_(in) {}

  template <typename... Ts>
  void operator()(Ts&... fields) {
    (Get(fields), ...);
  }

  bool ok() const { return ok_; }
  bool AtEnd() const { return ok_ && pos_ == in_.size(); }

 private:
  template <typename T>
  void Get(T& v) {
    if constexpr (std::is_enum_v<T>) {
      using Raw = std::underlying_type_t<T>;
      static_assert(std::is_unsigned_v<Raw>, "wire enums are unsigned");
      Raw raw = 0;
      Get(raw);
      if (raw > static_cast<Raw>(WireMax(T{}))) ok_ = false;
      v = static_cast<T>(raw);
    } else if constexpr (std::is_same_v<T, bool>) {
      uint8_t byte = 0;
      Get(byte);
      v = byte != 0;
    } else if constexpr (std::is_arithmetic_v<T>) {
      if (!Take(sizeof(v))) return;
      std::memcpy(&v, in_.data() + pos_ - sizeof(v), sizeof(v));
    } else {
      v.Fields(*this);
    }
  }
  void Get(std::string& s) {
    uint32_t n = 0;
    Get(n);
    if (!Take(n)) return;
    s.assign(in_, pos_ - n, n);
  }
  void Get(Status& s) {
    StatusCode code = StatusCode::kOk;
    std::string message;
    Get(code);
    Get(message);
    s = Status::FromCode(code, std::move(message));
  }
  template <typename T>
  void Get(std::vector<T>& items) {
    uint32_t n = 0;
    Get(n);
    const uint64_t min_bytes = static_cast<uint64_t>(n) * MinBytes<T>();
    if (!ok_ || min_bytes > in_.size() - pos_) {
      ok_ = false;
      return;
    }
    items.reserve(items.size() + n);
    for (uint32_t i = 0; i < n && ok_; ++i) Get(items.emplace_back());
  }
  template <typename T>
  void Get(std::shared_ptr<const T>& p) {
    bool present = false;
    Get(present);
    if (!present) return;
    auto value = std::make_shared<T>();
    Get(*value);
    p = std::move(value);
  }

  /// Consumes `n` bytes, or latches failure if fewer remain.
  bool Take(size_t n) {
    if (!ok_ || in_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    pos_ += n;
    return true;
  }

  const std::string& in_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace wire
}  // namespace geotp

#endif  // GEOTP_COMMON_WIRE_H_
