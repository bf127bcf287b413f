// Binary message serialization (writer side).
//
// dAuth messages travel between networks as length-delimited binary frames
// (the role protobuf plays in the paper's Rust prototype). The format is
// deliberately simple: fixed-width little-endian integers, and
// length-prefixed byte strings. Signing operates over these canonical bytes,
// so serialization must be deterministic — no maps with unspecified order,
// no floats in signed payloads.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/bytes.h"
#include "common/secret.h"

namespace dauth::wire {

/// The wire encoding of every field kind, written through the derived
/// class's `raw(ByteView)`: Writer appends the bytes to a buffer, and other
/// sinks (core/messages.cpp) hash or count the same bytes, so one field list
/// serves a message's encoding, its signed digest and its exact size.
template <typename Sink>
class Encoder {
 public:
  void u8(std::uint8_t v) { put(ByteArray<1>{v}); }
  void u16(std::uint16_t v) { put(little_endian<2>(v)); }
  void u32(std::uint32_t v) { put(little_endian<4>(v)); }
  void u64(std::uint64_t v) { put(little_endian<8>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  template <std::size_t N>
  void fixed(const ByteArray<N>& data) {
    put(ByteView(data));
  }

  /// Serializing a Secret is a deliberate disclosure point (e.g. a RES* in a
  /// UsageProof, which *is* the protocol's release mechanism) — explicit
  /// overload so such sites are greppable rather than silent conversions.
  template <std::size_t N>
  void fixed(const Secret<N>& data) {
    // DAUTH_DISCLOSE(sole sanctioned Secret-to-wire choke point; every call site is itself taint-checked)
    put(ByteView(data));
  }

  /// Length-prefixed (u32) byte string.
  void bytes(ByteView data) {
    u32(static_cast<std::uint32_t>(data.size()));
    put(data);
  }

  /// Length-prefixed UTF-8 string.
  void string(std::string_view s) { bytes(as_bytes(s)); }

 private:
  void put(ByteView data) { static_cast<Sink*>(this)->raw(data); }

  template <std::size_t N>
  static ByteArray<N> little_endian(std::uint64_t v) noexcept {
    ByteArray<N> out;
    for (std::size_t i = 0; i < N; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
    return out;
  }
};

class Writer : public Encoder<Writer> {
 public:
  Writer() = default;

  void reserve(std::size_t size) { buffer_.reserve(size); }

  /// Raw bytes, no length prefix (for fixed-size fields).
  void raw(ByteView data);

  const Bytes& data() const noexcept { return buffer_; }
  Bytes take() && noexcept { return std::move(buffer_); }
  std::size_t size() const noexcept { return buffer_.size(); }

 private:
  Bytes buffer_;
};

}  // namespace dauth::wire
