// Bounded memoization of successful Ed25519 verifications.
//
// A federation core re-checks the *same* signed artifact many times: flood
// vectors are replicated to every backup and hedged (§5.1 opt. 3), directory
// entries are re-fetched after TTL expiry, and resync paths re-verify the
// bundle they already accepted. The group equation costs tens of
// microseconds of real CPU (and a calibrated ~0.8 ms in the simulator's
// cost model); re-running it on byte-identical (message, signature, key)
// triples buys nothing.
//
// The cache stores only 32-byte fingerprints of *public* data -- the key
// encoding, the signature and a digest of the message -- never plaintext
// messages and never anything secret, so entries need no wiping and the
// structure is safe to keep for the process lifetime. Only successful
// verifications are memoized: a hit asserts "this exact triple verified
// before", which is sound because ed25519_verify is deterministic. Failed
// verifications always re-run, so an attacker cannot pin a false negative.
//
// Not thread-safe: each ServingNetwork / DirectoryClient owns its own
// instance (bench sweep points run one simulation per thread).
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_set>

#include "common/bytes.h"
#include "crypto/ed25519.h"

namespace dauth::crypto {

class VerifyCache {
 public:
  static constexpr std::size_t kDefaultEntries = 256;

  /// `max_entries` bounds memory (FIFO eviction); 0 disables memoization
  /// entirely (every call verifies afresh and nothing is stored).
  explicit VerifyCache(std::size_t max_entries = kDefaultEntries);

  struct Result {
    bool ok;         // same answer ed25519_verify would give
    bool cache_hit;  // true when the group equation was skipped
  };

  /// Same contract as ed25519_verify, with memoization of successes.
  Result verify(ByteView message, const Ed25519Signature& signature,
                const Ed25519PublicKey& public_key);

  std::uint64_t hits() const noexcept { return hits_; }
  std::uint64_t misses() const noexcept { return misses_; }
  std::uint64_t evictions() const noexcept { return evictions_; }
  std::size_t size() const noexcept { return order_.size(); }
  std::size_t capacity() const noexcept { return max_entries_; }

  /// Drops all entries (counters are kept).
  void clear();

 private:
  using Fingerprint = ByteArray<32>;

  struct FingerprintHash {
    std::size_t operator()(const Fingerprint& fp) const noexcept;
  };

  static Fingerprint fingerprint(ByteView message, const Ed25519Signature& signature,
                                 const Ed25519PublicKey& public_key);

  std::size_t max_entries_;
  std::unordered_set<Fingerprint, FingerprintHash> verified_;
  std::deque<Fingerprint> order_;  // insertion order, for FIFO eviction
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace dauth::crypto
