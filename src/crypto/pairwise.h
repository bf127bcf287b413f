// Pairwise MAC keys between two federation members, from an X25519
// exchange of long-lived keys (RFC 7748 §6.1).
//
// Each party publishes an X25519 public key. Two parties derive the same
// shared secret, each from its own scalar and the other's point, and from it
// one key per purpose and ordered pair of ids:
//
//   K = HMAC-SHA-256(X25519(own, peer), label || u32 |first| || first
//                                              || u32 |second| || second)
//
// (lengths little-endian, as the wire format frames a string). K is held as
// a keyed HmacSha256, so each MAC under it costs the message's blocks plus
// one compression, and the exchange is paid once per peer.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "crypto/hmac.h"
#include "crypto/x25519.h"

namespace dauth::crypto {

/// The key of the ordered pair (`first`, `second`) for `label`, between the
/// holder of `own` and the holder of `peer`'s scalar; nullopt when the
/// exchange gives the all-zero secret (`peer` is a small-order point), which
/// RFC 7748 §6.1 says to refuse.
std::optional<HmacSha256> derive_pairwise_key(const X25519Scalar& own, const X25519Point& peer,
                                              std::string_view label, std::string_view first,
                                              std::string_view second);

/// One party's pairwise keys for one label: each derived on first use and
/// cached, keyed, until the peer's public key changes.
class PairwiseKeys {
 public:
  PairwiseKeys(X25519Scalar own, std::string label)
      : own_(std::move(own)), label_(std::move(label)) {}

  /// The key of (`first`, `second`), this party being one of them and
  /// `peer` the other's public key; null when derive_pairwise_key refuses.
  const HmacSha256* get(std::string_view first, std::string_view second, const X25519Point& peer);

 private:
  struct Entry {
    X25519Point peer;
    HmacSha256 key;
  };
  X25519Scalar own_;
  std::string label_;
  std::map<std::pair<std::string, std::string>, Entry> keys_;
};

}  // namespace dauth::crypto
