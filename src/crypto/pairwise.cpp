#include "crypto/pairwise.h"

#include <cstdint>

#include "common/secret.h"

namespace dauth::crypto {
namespace {

/// `s`'s length as a u32, little-endian.
ByteArray<4> length_of(std::string_view s) {
  const auto n = static_cast<std::uint32_t>(s.size());
  return {static_cast<std::uint8_t>(n), static_cast<std::uint8_t>(n >> 8),
          static_cast<std::uint8_t>(n >> 16), static_cast<std::uint8_t>(n >> 24)};
}

}  // namespace

std::optional<HmacSha256> derive_pairwise_key(const X25519Scalar& own, const X25519Point& peer,
                                              std::string_view label, std::string_view first,
                                              std::string_view second) {
  const Secret<32> shared(x25519(own, peer));
  if (ct_equal(shared, ByteArray<32>{})) return std::nullopt;
  Secret<32> key(HmacSha256(shared).mac({as_bytes(label), length_of(first), as_bytes(first),
                                         length_of(second), as_bytes(second)}));
  return HmacSha256(key);
}

const HmacSha256* PairwiseKeys::get(std::string_view first, std::string_view second,
                                    const X25519Point& peer) {
  std::pair<std::string, std::string> pair(first, second);
  const auto it = keys_.find(pair);
  if (it != keys_.end() && it->second.peer == peer) return &it->second.key;
  auto key = derive_pairwise_key(own_, peer, label_, first, second);
  if (!key) return nullptr;
  return &keys_.insert_or_assign(std::move(pair), Entry{peer, std::move(*key)}).first->second.key;
}

}  // namespace dauth::crypto
