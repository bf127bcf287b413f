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

class Writer {
 public:
  Writer() = default;

  void reserve(std::size_t size) { buffer_.reserve(size); }

  void u8(std::uint8_t v) { buffer_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  /// Raw bytes, no length prefix (for fixed-size fields).
  void raw(ByteView data) { append(buffer_, data); }

  template <std::size_t N>
  void fixed(const ByteArray<N>& data) {
    raw(ByteView(data));
  }

  /// Serializing a Secret is a deliberate disclosure point (e.g. a RES* in a
  /// UsageProof, which *is* the protocol's release mechanism) — explicit
  /// overload so such sites are greppable rather than silent conversions.
  template <std::size_t N>
  void fixed(const Secret<N>& data) {
    // DAUTH_DISCLOSE(sole sanctioned Secret-to-wire choke point; every call site is itself taint-checked)
    raw(ByteView(data));
  }

  /// Length-prefixed (u32) byte string.
  void bytes(ByteView data);

  /// Length-prefixed UTF-8 string.
  void string(std::string_view s) { bytes(as_bytes(s)); }

  const Bytes& data() const noexcept { return buffer_; }
  Bytes take() && noexcept { return std::move(buffer_); }
  std::size_t size() const noexcept { return buffer_.size(); }

 private:
  Bytes buffer_;
};

}  // namespace dauth::wire
