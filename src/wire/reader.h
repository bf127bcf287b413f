// Binary message deserialization (reader side) with strict bounds checking.
//
// All reads throw WireError on truncated or malformed input — a network peer
// is untrusted, so a parse failure must never become undefined behaviour.
// `field` reads what Encoder::field writes (wire/writer.h), into each value
// by its type, so a message's one field list also decodes it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/bytes.h"
#include "wire/writer.h"

namespace dauth::wire {

/// Thrown on any malformed or truncated frame.
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

class Reader {
 public:
  explicit Reader(ByteView data) noexcept : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  bool boolean();

  /// Raw bytes of exactly `n` (for fixed-size fields).
  ByteView raw(std::size_t n);

  template <std::size_t N>
  ByteArray<N> fixed() {
    return take<N>(raw(N));
  }

  /// Length-prefixed (u32) byte string.
  Bytes bytes();

  /// Length-prefixed UTF-8 string.
  std::string string();

  /// Reads each value by its type (see wire/writer.h).
  template <typename... T>
  void field(T&... values) {
    (one(values), ...);
  }
  template <typename... T>
  void tail(T&... values) {
    field(values...);
  }

  std::size_t remaining() const noexcept { return data_.size() - offset_; }
  bool done() const noexcept { return remaining() == 0; }

  /// Throws unless the whole frame was consumed — catches trailing garbage.
  void expect_done() const;

 private:
  void one(bool& v) { v = boolean(); }
  void one(std::uint8_t& v) { v = u8(); }
  void one(std::uint16_t& v) { v = u16(); }
  void one(std::uint32_t& v) { v = u32(); }
  void one(std::uint64_t& v) { v = u64(); }
  void one(std::int64_t& v) { v = i64(); }
  template <std::size_t N>
  void one(ByteArray<N>& v) {
    v = fixed<N>();
  }
  template <std::size_t N>
  void one(Secret<N>& v) {
    v = fixed<N>();
  }
  void one(Bytes& v) { v = bytes(); }
  void one(SecretBytes& v) { v = bytes(); }
  void one(std::string& v) { v = string(); }
  void one(NetworkId& v) { v = NetworkId(string()); }
  void one(Supi& v) { v = Supi(string()); }
  void one(std::vector<ByteArray<32>>& path);
  template <typename E>
  void one(std::vector<E>& elements);
  template <typename T>
  void one(std::optional<T>& value) {
    if (boolean()) {
      one(value.emplace());
    } else {
      value.reset();
    }
  }
  template <typename... A>
  void one(std::variant<A...>& value) {
    const std::uint8_t tag = u8();
    if (tag == 0 || tag > sizeof...(A)) throw WireError("invalid variant tag");
    [&]<std::size_t... I>(std::index_sequence<I...>) {
      ((tag == I + 1 && (one(value.template emplace<I>()), true)) || ...);
    }(std::index_sequence_for<A...>{});
  }
  template <typename M>
  void one(M& message) {
    if constexpr (requires { M::decode_from(*this); }) {
      message = M::decode_from(*this);  // held as its encoding (wire/sequence.h)
    } else {
      M::fields(*this, message);
    }
  }

  void need(std::size_t n) const;

  ByteView data_;
  std::size_t offset_ = 0;
};

/// Decodes a whole frame as one message.
template <Message T>
T decode(ByteView data) {
  Reader r(data);
  T message;
  T::fields(r, message);
  r.expect_done();
  return message;
}

/// Decodes a run of messages encoded back to back (a log-structured value,
/// each entry appended as its encoding), calling `each` on every one in
/// order. Throws WireError at the first that does not decode, once `each`
/// has had every one before it.
template <Message T, typename Fn>
void decode_each(ByteView data, Fn&& each) {
  Reader r(data);
  while (!r.done()) {
    T message;
    T::fields(r, message);
    each(std::move(message));
  }
}

template <typename E>
void Reader::one(std::vector<E>& elements) {
  const std::uint32_t count = u32();
  // The count is the peer's: reserve only what the rest of the frame can
  // hold, each element taking at least its default's encoding (every
  // string, sequence and path empty, a message framed).
  ByteCounter least;
  least.field(std::vector<E>(1));
  const std::size_t min_size = std::max<std::size_t>(least.size() - 4, 1);  // less the count
  elements.clear();
  elements.reserve(std::min<std::size_t>(count, remaining() / min_size));
  for (std::uint32_t i = 0; i < count; ++i) {
    E& e = elements.emplace_back();
    if constexpr (Message<E>) {
      Reader frame(raw(u32()));
      E::fields(frame, e);
      frame.expect_done();
    } else {
      one(e);
    }
  }
}

}  // namespace dauth::wire
