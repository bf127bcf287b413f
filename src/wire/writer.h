// Binary message serialization (writer side).
//
// dAuth messages travel between networks as length-delimited binary frames
// (the role protobuf plays in the paper's Rust prototype). The format is
// deliberately simple: fixed-width little-endian integers, and
// length-prefixed byte strings. Signing operates over these canonical bytes,
// so serialization must be deterministic — no maps with unspecified order,
// no floats in signed payloads.
//
// A message declares its fields once, in wire order, as
//
//   template <typename F, typename Self>
//   static void fields(F& f, Self& m) { f.field(m.a, m.b); f.tail(m.signature); }
//
// and encode, decode (wire/reader.h), the signed payload and any digest of
// them all walk that list. `field` writes each value by its type:
//   * u8, u16, u32, u64, i64: little-endian; bool: one byte, 0 or 1;
//   * ByteArray<N>, Secret<N>: the N bytes;
//   * Bytes, SecretBytes, std::string, NetworkId, Supi: u32 length, bytes;
//   * std::vector<ByteArray<32>>, a Merkle path: u8 count (at most 32), hashes;
//   * any other std::vector: u32 count, then each element, a message
//     element framed by its u32 length; an EncodedSequence of fixed-size
//     messages (wire/sequence.h) as the std::vector of them;
//   * std::optional<T>: a presence bool, then T when present;
//   * std::variant<A, B, ...>: a u8 tag, the alternative's index + 1, then
//     that alternative;
//   * a message: its fields, in place.
// `tail` holds what a signature does not cover (the signature itself, a
// bundle's position): part of the encoding, left out of the signed part.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/bytes.h"
#include "common/ids.h"
#include "common/secret.h"

namespace dauth::wire {

/// The longest Merkle path on the wire: 16 levels of batch, 16 of round.
inline constexpr std::size_t kMaxPathLength = 32;

/// The wire encoding of every field kind, written through the derived
/// class's `raw(ByteView)`: Writer appends the bytes to a buffer, and other
/// sinks hash or count the same bytes, so one field list serves a message's
/// encoding, its signed digest and its exact size.
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

  /// Length-prefixed (u32) byte string.
  void bytes(ByteView data) {
    u32(static_cast<std::uint32_t>(data.size()));
    put(data);
  }

  /// Length-prefixed UTF-8 string.
  void string(std::string_view s) { bytes(as_bytes(s)); }

  /// Writes each value by its type (see the top of this file).
  template <typename... T>
  void field(const T&... values) {
    (one(values), ...);
  }
  template <typename... T>
  void tail(const T&... values) {
    field(values...);
  }

 private:
  template <std::integral T>
  void one(const T& v) {
    if constexpr (std::same_as<T, bool>) {
      boolean(v);
    } else {
      put(little_endian<sizeof(T)>(static_cast<std::uint64_t>(v)));
    }
  }
  template <std::size_t N>
  void one(const ByteArray<N>& v) {
    fixed(v);
  }
  // The Secret-to-wire choke points: every call site (a hand-written
  // encoder, a field list) is itself taint-checked.
  template <std::size_t N>
  void one(const Secret<N>& v) {
    put(ByteView(v));  // DAUTH_DISCLOSE(sole sanctioned Secret<N>-to-wire choke point)
  }
  void one(const SecretBytes& v) {
    bytes(v);  // DAUTH_DISCLOSE(sole sanctioned SecretBytes-to-wire choke point)
  }
  void one(const Bytes& v) { bytes(v); }
  void one(const std::string& v) { string(v); }
  void one(const NetworkId& v) { string(v.str()); }
  void one(const Supi& v) { string(v.str()); }
  void one(const std::vector<ByteArray<32>>& path) {
    u8(static_cast<std::uint8_t>(path.size()));
    for (const auto& hash : path) fixed(hash);
  }
  template <typename E>
  void one(const std::vector<E>& elements);
  template <typename T>
  void one(const std::optional<T>& value) {
    boolean(value.has_value());
    if (value) one(*value);
  }
  template <typename... A>
  void one(const std::variant<A...>& value) {
    u8(static_cast<std::uint8_t>(value.index() + 1));
    std::visit([this](const auto& alternative) { one(alternative); }, value);
  }
  template <typename M>
  void one(const M& message) {
    if constexpr (requires { message.encode_into(sink()); }) {
      message.encode_into(sink());  // held as its encoding (wire/sequence.h)
    } else {
      M::fields(sink(), message);
    }
  }

  Sink& sink() { return *static_cast<Sink*>(this); }
  void put(ByteView data) { sink().raw(data); }

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

/// Counts the bytes a Writer would hold: a frame's length prefix, and a
/// message's exact size.
class ByteCounter : public Encoder<ByteCounter> {
 public:
  void raw(ByteView data) noexcept { size_ += data.size(); }
  std::size_t size() const noexcept { return size_; }

 private:
  std::size_t size_ = 0;
};

/// Writes the bytes a Writer would hold over a span already sized for them
/// (ByteCounter), in place.
class SpanWriter : public Encoder<SpanWriter> {
 public:
  explicit SpanWriter(MutableByteView out) noexcept : out_(out) {}
  void raw(ByteView data) noexcept {
    std::copy(data.begin(), data.end(), out_.begin());
    out_ = out_.subspan(data.size());
  }

 private:
  MutableByteView out_;
};

/// A type with a field list.
template <typename T>
concept Message = requires(ByteCounter& sink, const T& message) { T::fields(sink, message); };

template <typename Sink>
template <typename E>
void Encoder<Sink>::one(const std::vector<E>& elements) {
  u32(static_cast<std::uint32_t>(elements.size()));
  for (const E& e : elements) {
    if constexpr (Message<E>) {
      ByteCounter length;  // frames are written in place, not built and copied
      E::fields(length, e);
      u32(static_cast<std::uint32_t>(length.size()));
    }
    one(e);
  }
}

/// The part of a message its signature covers: every field before its tail.
template <typename Sink>
struct SignedPart {
  Sink& sink;

  template <typename... T>
  void field(const T&... values) {
    sink.field(values...);
  }
  template <typename... T>
  void tail(const T&...) {}
};

/// A signed message's signed payload into `sink`: its domain label
/// (`T::kDomain`), then its signed part.
template <Message T, typename Sink>
void write_signed(Sink& sink, const T& message) {
  sink.string(T::kDomain);
  SignedPart<Sink> part{sink};
  T::fields(part, message);
}

/// A message's encoding, in a buffer of exactly its size.
template <Message T>
Bytes encode(const T& message) {
  ByteCounter size;
  T::fields(size, message);
  Writer w;
  w.reserve(size.size());
  T::fields(w, message);
  return std::move(w).take();
}

template <Message T>
Bytes signed_payload(const T& message) {
  Writer w;
  write_signed(w, message);
  return std::move(w).take();
}

}  // namespace dauth::wire
