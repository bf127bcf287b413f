#include "wire/reader.h"

namespace dauth::wire {

void Reader::need(std::size_t n) const {
  if (remaining() < n) throw WireError("truncated frame");
}

std::uint8_t Reader::u8() {
  need(1);
  return data_[offset_++];
}

std::uint16_t Reader::u16() {
  need(2);
  std::uint16_t v = static_cast<std::uint16_t>(data_[offset_] |
                                               (std::uint16_t{data_[offset_ + 1]} << 8));
  offset_ += 2;
  return v;
}

std::uint32_t Reader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{data_[offset_ + i]} << (8 * i);
  offset_ += 4;
  return v;
}

std::uint64_t Reader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t{data_[offset_ + i]} << (8 * i);
  offset_ += 8;
  return v;
}

bool Reader::boolean() {
  const std::uint8_t v = u8();
  if (v > 1) throw WireError("invalid boolean");
  return v == 1;
}

ByteView Reader::raw(std::size_t n) {
  need(n);
  ByteView out = data_.subspan(offset_, n);
  offset_ += n;
  return out;
}

Bytes Reader::bytes() {
  const std::uint32_t len = u32();
  return to_bytes(raw(len));
}

std::string Reader::string() {
  const std::uint32_t len = u32();
  const ByteView view = raw(len);
  return std::string(reinterpret_cast<const char*>(view.data()), view.size());
}

void Reader::one(std::vector<ByteArray<32>>& path) {
  const std::uint8_t length = u8();
  if (length > kMaxPathLength) throw WireError("merkle path too long");
  path.resize(length);
  for (auto& hash : path) hash = fixed<32>();
}

void Reader::expect_done() const {
  if (!done()) throw WireError("trailing bytes in frame");
}

}  // namespace dauth::wire
