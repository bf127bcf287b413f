#include "crypto/drbg.h"

#include <cstring>

namespace dauth::crypto {

DeterministicDrbg::DeterministicDrbg(ByteView seed_material) : key_(ByteArray<32>{}) {
  value_.fill(0x01);
  update(seed_material);
}

DeterministicDrbg::DeterministicDrbg(std::string_view label, std::uint64_t seed)
    : key_(ByteArray<32>{}) {
  Bytes material = to_bytes(as_bytes(label));
  for (int i = 0; i < 8; ++i)
    material.push_back(static_cast<std::uint8_t>(seed >> (8 * i)));
  value_.fill(0x01);
  update(material);
}

void DeterministicDrbg::rekey(std::uint8_t separator, ByteView provided) {
  const Secret<32> key = key_.mac({value_, ByteArray<1>{separator}, provided});
  key_ = HmacSha256(key);
}

void DeterministicDrbg::update(ByteView provided) {
  // K = HMAC(K, V || 0x00 || provided); V = HMAC(K, V)
  rekey(0x00, provided);
  value_ = key_.mac({value_});
  if (provided.empty()) return;
  rekey(0x01, provided);
  value_ = key_.mac({value_});
}

void DeterministicDrbg::fill(MutableByteView out) {
  // One generate request per kMaxRequestBytes, each closed by its update.
  std::size_t offset = 0;
  do {
    const std::size_t end =
        out.size() - offset < kMaxRequestBytes ? out.size() : offset + kMaxRequestBytes;
    while (offset < end) {
      value_ = key_.mac({value_});
      const std::size_t n = end - offset < 32 ? end - offset : 32;
      std::memcpy(out.data() + offset, value_.data(), n);
      offset += n;
    }
    update({});
  } while (offset < out.size());
}

Bytes DeterministicDrbg::bytes(std::size_t n) {
  Bytes out(n);
  fill(out);
  return out;
}

std::uint64_t DeterministicDrbg::next_u64() {
  ByteArray<8> raw = array<8>();
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t{raw[i]} << (8 * i);
  return v;
}

void DeterministicDrbg::reseed(ByteView additional) { update(additional); }

}  // namespace dauth::crypto
