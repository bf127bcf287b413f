#include "crypto/hmac.h"

#include <cstring>
#include <stdexcept>

#include "common/secret.h"

namespace dauth::crypto {
namespace {

constexpr std::size_t kBlockSize = 64;
/// The longest message tail that pads into one block (FIPS 180-4 §5.1.1:
/// the 0x80 byte and the 8-byte length follow it).
constexpr std::size_t kOneBlockTail = kBlockSize - 9;

/// The one-block path's working state, wiped once when done.
struct OneBlock {
  std::uint32_t state[8];
  std::uint8_t block[kBlockSize];

  ~OneBlock() { secure_wipe(this, sizeof(*this)); }

  /// Hashes the `length` <= kOneBlockTail bytes that open `block`, as the
  /// tail of a message whose first block left `midstate`. The digest
  /// replaces the block's first 32 bytes.
  void hash(const std::uint32_t (&midstate)[8], std::size_t length) noexcept {
    std::memcpy(state, midstate, sizeof(state));
    detail::sha256_final_block(state, block, length, kBlockSize + length, block);
  }
};

/// The MAC from the inner digest that opens `one.block`.
Sha256Digest outer_mac(const std::uint32_t (&outer)[8], OneBlock& one) noexcept {
  one.hash(outer, 32);
  Sha256Digest mac;
  std::memcpy(mac.data(), one.block, mac.size());
  return mac;
}

}  // namespace

HmacSha256::HmacSha256(ByteView key) noexcept {
  std::uint8_t key_block[kBlockSize] = {};
  if (key.size() > kBlockSize) {
    Sha256Digest hashed = sha256(key);
    std::memcpy(key_block, hashed.data(), hashed.size());
    secure_wipe(MutableByteView(hashed));
  } else if (!key.empty()) {
    // key.data() may be null for an empty key (HKDF with empty salt);
    // memcpy's pointer arguments must be non-null even for size 0.
    std::memcpy(key_block, key.data(), key.size());
  }
  // The padded key blocks are trivially invertible back to the key.
  std::memcpy(inner_, detail::kSha256InitialState, sizeof(inner_));
  std::memcpy(outer_, detail::kSha256InitialState, sizeof(outer_));
  for (auto& byte : key_block) byte ^= 0x36;
  detail::sha256_compress(inner_, key_block);
  for (auto& byte : key_block) byte ^= 0x36 ^ 0x5c;
  detail::sha256_compress(outer_, key_block);
  secure_wipe(key_block, kBlockSize);
}

HmacSha256::~HmacSha256() {
  secure_wipe(inner_, sizeof(inner_));
  secure_wipe(outer_, sizeof(outer_));
}

Sha256Digest HmacSha256::mac(std::initializer_list<ByteView> parts) const noexcept {
  std::size_t length = 0;
  for (ByteView part : parts) length += part.size();
  if (length > kOneBlockTail) {
    Sha256 inner = start();
    for (ByteView part : parts) inner.update(part);
    return finish(inner);
  }
  OneBlock one;
  std::size_t offset = 0;
  for (ByteView part : parts) {
    if (part.empty()) continue;  // an empty part's data() may be null
    std::memcpy(one.block + offset, part.data(), part.size());
    offset += part.size();
  }
  one.hash(inner_, length);
  return outer_mac(outer_, one);
}

Sha256Digest HmacSha256::finish(Sha256& inner) const noexcept {
  OneBlock one;
  Sha256Digest inner_digest = inner.finish();
  std::memcpy(one.block, inner_digest.data(), inner_digest.size());
  secure_wipe(MutableByteView(inner_digest));
  secure_wipe(&inner, sizeof(inner));
  return outer_mac(outer_, one);
}

Sha256Digest hmac_sha256(ByteView key, ByteView data) { return HmacSha256(key).mac({data}); }

Sha256Digest hkdf_extract(ByteView salt, ByteView ikm) {
  return hmac_sha256(salt, ikm);
}

Bytes hkdf_expand(ByteView prk, ByteView info, std::size_t length) {
  constexpr std::size_t kHashLen = 32;
  if (length > 255 * kHashLen) throw std::invalid_argument("hkdf_expand: length too large");

  const HmacSha256 hmac(prk);
  Bytes okm;
  okm.reserve(length);
  Sha256Digest t{};  // T(i-1): output key material carried between iterations
  std::size_t t_length = 0;
  std::uint8_t counter = 1;
  while (okm.size() < length) {
    t = hmac.mac({ByteView(t.data(), t_length), info, ByteView(&counter, 1)});
    t_length = kHashLen;
    const std::size_t need = length - okm.size();
    append(okm, ByteView(t.data(), need < kHashLen ? need : kHashLen));
    ++counter;
  }
  secure_wipe(MutableByteView(t));
  return okm;
}

Bytes hkdf(ByteView salt, ByteView ikm, ByteView info, std::size_t length) {
  const Sha256Digest prk = hkdf_extract(salt, ikm);
  return hkdf_expand(prk, info, length);
}

}  // namespace dauth::crypto
