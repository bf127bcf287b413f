// Sequences of fixed-size messages, read, built and edited in their encoding.
//
// A std::vector<E> encodes as a u32 count, then each element framed by its
// u32 length (wire/writer.h). When every field of E has a fixed width
// (integers, bools, byte arrays, secrets), every element takes the same
// bytes, so a holder of the encoding reads element i at its stride, or cuts
// one out, without decoding the others. EncodedSequence<E> owns such an
// encoding and travels as it (a home's pushed leaves, core/messages.h);
// FixedSequence<E> reads one in place (a backup's held batches, straight
// from their records, core/backup_network.h).
#pragma once

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <iterator>
#include <span>
#include <vector>

#include "wire/reader.h"
#include "wire/writer.h"

namespace dauth::wire {

/// Where a fixed-size message's fields sit: its size, and the offsets of its
/// booleans, the one fixed-width field whose every byte value does not
/// decode (wire/reader.h). A field of any other width fails to compile.
class FixedLayout {
 public:
  std::size_t size() const noexcept { return size_; }
  std::span<const std::size_t> booleans() const noexcept { return booleans_; }

  template <typename... T>
  void field(const T&... values) {
    (one(values), ...);
  }
  template <typename... T>
  void tail(const T&... values) {
    field(values...);
  }

 private:
  void one(bool) { booleans_.push_back(size_++); }
  template <std::integral T>
  void one(T) {
    size_ += sizeof(T);
  }
  template <std::size_t N>
  void one(const ByteArray<N>&) {
    size_ += N;
  }
  template <std::size_t N>
  void one(const Secret<N>&) {
    size_ += N;
  }
  template <Message M>
  void one(const M& message) {
    M::fields(*this, message);
  }

  std::size_t size_ = 0;
  std::vector<std::size_t> booleans_;
};

/// E's layout; every one of its fields must have a fixed width.
template <Message E>
const FixedLayout& fixed_layout() {
  static const FixedLayout layout = [] {
    const E element{};
    FixedLayout fields;
    E::fields(fields, element);
    return fields;
  }();
  return layout;
}

/// The bytes E's fields take.
template <Message E>
std::size_t fixed_size() {
  return fixed_layout<E>().size();
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

  /// Each element, decoded as it is reached.
  class iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = E;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = E;

    iterator() = default;
    iterator(const FixedSequence* sequence, std::size_t index) noexcept
        : bytes_(sequence->bytes_), index_(index) {}
    E operator*() const { return FixedSequence(bytes_)[index_]; }
    iterator& operator++() noexcept {
      ++index_;
      return *this;
    }
    iterator operator++(int) noexcept {
      iterator before = *this;
      ++index_;
      return before;
    }
    bool operator==(const iterator& other) const noexcept { return index_ == other.index_; }

   private:
    ByteView bytes_;
    std::size_t index_ = 0;
  };
  iterator begin() const noexcept { return {this, 0}; }
  iterator end() const noexcept { return {this, size()}; }

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

  /// An element's frame and fields.
  static std::size_t stride() { return 4 + fixed_size<E>(); }

 private:
  /// A count or a frame: a u32, little-endian.
  static void put_u32(Bytes& out, std::size_t value) {
    for (std::size_t k = 0; k < 4; ++k) out.push_back(static_cast<std::uint8_t>(value >> (8 * k)));
  }

  ByteView bytes_;
};

/// An encoded std::vector<E> of fixed-size elements, owned: it encodes and
/// decodes exactly as the vector does, and is held as that encoding, so
/// passing it on (encoding, hashing, keeping it in a record) copies bytes
/// and decodes no element. `Buffer` is Bytes, or SecretBytes when an
/// element holds a secret, so that the encoding is wiped as the secret is.
/// Its decode checks the count, every frame and every boolean in one pass,
/// then copies once: it refuses exactly what the vector's decode refuses.
template <Message E, typename Buffer = Bytes>
class EncodedSequence {
 public:
  using value_type = E;

  EncodedSequence() = default;

  /// The encoding of `elements`.
  explicit EncodedSequence(std::span<const E> elements) : EncodedSequence(zeroed(elements.size())) {
    for (std::size_t i = 0; i < elements.size(); ++i) set(i, elements[i]);
  }

  /// `count` elements, each framed and all of its fields zero, to write in
  /// place (set, write_prefix).
  static EncodedSequence zeroed(std::size_t count) {
    EncodedSequence sequence;
    if (count == 0) return sequence;
    sequence.bytes_ = Buffer(sequence_size<E>(count));
    put_u32(sequence.bytes_.data(), count);
    for (std::size_t i = 0; i < count; ++i) {
      put_u32(sequence.bytes_.data() + 4 + i * FixedSequence<E>::stride(), fixed_size<E>());
    }
    return sequence;
  }

  std::size_t size() const noexcept { return view().size(); }
  bool empty() const noexcept { return bytes_.size() == 0; }
  /// The encoding, read in place.
  FixedSequence<E> view() const noexcept {
    static constexpr std::uint8_t kNone[4] = {};  // no elements: a zero count
    return FixedSequence<E>(bytes_.size() == 0 ? ByteView(kNone) : ByteView(bytes_));
  }

  /// Element `i`, decoded.
  E operator[](std::size_t i) const { return view()[i]; }
  typename FixedSequence<E>::iterator begin() const noexcept { return view().begin(); }
  typename FixedSequence<E>::iterator end() const noexcept { return view().end(); }

  /// Writes `element` over element `i`.
  void set(std::size_t i, const E& element) {
    SpanWriter fields(mutable_fields(i));
    E::fields(fields, element);
  }

  /// Writes `head`, a P whose field list is a prefix of E's, over element
  /// `i`'s leading fields, and returns the rest of the element's fields, to
  /// be written in place.
  template <Message P>
  MutableByteView write_prefix(std::size_t i, const P& head) {
    const MutableByteView element = mutable_fields(i);
    SpanWriter fields(element);
    P::fields(fields, head);
    return element.subspan(fixed_size<P>());
  }

  /// Writes the encoding to an Encoder's sink (wire/writer.h).
  template <typename Sink>
  void encode_into(Sink& sink) const {
    if (bytes_.size() == 0) {
      sink.u32(0);
    } else {
      sink.raw(ByteView(bytes_));
    }
  }

  /// Reads one from `reader` (wire/reader.h).
  static EncodedSequence decode_from(Reader& reader) {
    const std::uint32_t count = reader.u32();
    const std::size_t stride = FixedSequence<E>::stride();
    if (count > reader.remaining() / stride) throw WireError("truncated frame");
    const ByteView elements = reader.raw(count * stride);
    const FixedLayout& layout = fixed_layout<E>();
    for (std::size_t at = 0; at < elements.size(); at += stride) {
      if (Reader(elements.subspan(at, 4)).u32() != layout.size()) {
        throw WireError("element frame is not its fixed size");
      }
      for (const std::size_t boolean : layout.booleans()) {
        if (elements[at + 4 + boolean] > 1) throw WireError("invalid boolean");
      }
    }
    EncodedSequence sequence;
    if (count == 0) return sequence;
    sequence.bytes_ = Buffer(4 + elements.size());
    put_u32(sequence.bytes_.data(), count);
    std::copy(elements.begin(), elements.end(), sequence.bytes_.begin() + 4);
    return sequence;
  }

 private:
  MutableByteView mutable_fields(std::size_t i) {
    return MutableByteView(bytes_.data(), bytes_.size())
        .subspan(8 + i * FixedSequence<E>::stride(), fixed_size<E>());
  }
  /// A count or a frame: a u32, little-endian.
  static void put_u32(std::uint8_t* out, std::size_t value) {
    for (std::size_t k = 0; k < 4; ++k) out[k] = static_cast<std::uint8_t>(value >> (8 * k));
  }

  Buffer bytes_;  // empty when there are no elements
};

}  // namespace dauth::wire
