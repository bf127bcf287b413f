// Sequences of fixed-size messages, read and edited in their encoding.
//
// A std::vector<E> encodes as a u32 count, then each element framed by its
// u32 length (wire/writer.h). When every field of E has a fixed width
// (integers, bools, byte arrays, secrets), every element takes the same
// bytes, so a holder of the encoding reads element i at its stride, or cuts
// one out, without decoding the others. A backup serves its held batches
// this way, straight from their records (core/backup_network.h).
#pragma once

#include <algorithm>
#include <concepts>
#include <cstddef>

#include "wire/reader.h"
#include "wire/writer.h"

namespace dauth::wire {

/// The bytes E's fields take; every one of them must have a fixed width.
template <Message E>
std::size_t fixed_size() {
  static const std::size_t size = [] {
    const E element{};
    ByteCounter bytes;
    E::fields(bytes, element);
    return bytes.size();
  }();
  return size;
}

/// The bytes an encoded std::vector<E> of `count` fixed-size elements
/// takes: its count, then each element's frame and fields.
template <Message E>
std::size_t sequence_size(std::size_t count) {
  return 4 + count * (4 + fixed_size<E>());
}

/// An encoded std::vector<E> of fixed-size elements, read in place. `bytes`
/// is the whole encoding, and must have decoded as a std::vector<E> (decode
/// checks every frame), so that every element sits at its stride.
template <Message E>
class FixedSequence {
 public:
  explicit FixedSequence(ByteView bytes) noexcept : bytes_(bytes) {}

  std::size_t size() const noexcept { return (bytes_.size() - 4) / stride(); }
  bool empty() const noexcept { return bytes_.size() == 4; }

  /// Element `i`'s fields, without its frame.
  ByteView fields(std::size_t i) const { return bytes_.subspan(8 + i * stride(), fixed_size<E>()); }

  /// Element `i`, decoded.
  E operator[](std::size_t i) const { return decode<E>(fields(i)); }

  /// Element `i`'s first field, an unsigned integer T, read in place.
  template <std::unsigned_integral T>
  T leading(std::size_t i) const {
    const ByteView field = fields(i).first(sizeof(T));
    T value = 0;
    for (std::size_t k = 0; k < sizeof(T); ++k) value |= static_cast<T>(T{field[k]} << (8 * k));
    return value;
  }

  /// Element `i`'s leading fields, decoded as a P, whose field list must be
  /// a prefix of E's; the rest of the element is not read.
  template <Message P>
  P prefix(std::size_t i) const {
    return decode<P>(fields(i).first(fixed_size<P>()));
  }

  /// Appends to `out` the encoding of this sequence with element `cut` left
  /// out (none when cut >= size()) and `added`, when not null, put last.
  void splice(Bytes& out, std::size_t cut, const E* added = nullptr) const {
    const std::size_t count = size();
    const std::size_t kept = std::min(cut, count);
    put_u32(out, count - (cut < count ? 1 : 0) + (added ? 1 : 0));
    const ByteView elements = bytes_.subspan(4);
    append(out, elements.first(kept * stride()));
    if (cut < count) append(out, elements.subspan((cut + 1) * stride()));
    if (added != nullptr) {
      put_u32(out, fixed_size<E>());
      append(out, encode(*added));
    }
  }

 private:
  static std::size_t stride() { return 4 + fixed_size<E>(); }

  /// A count or a frame: a u32, little-endian.
  static void put_u32(Bytes& out, std::size_t value) {
    for (std::size_t k = 0; k < 4; ++k) out.push_back(static_cast<std::uint8_t>(value >> (8 * k)));
  }

  ByteView bytes_;
};

}  // namespace dauth::wire
