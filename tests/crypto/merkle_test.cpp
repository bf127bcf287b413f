// The Merkle node hash against the streaming SHA-256 it stands for:
// merkle_node_hash compresses the fixed 65-byte 0x01 || left || right in
// two blocks of its own, and must name the node Sha256 names.
#include "crypto/merkle.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "crypto/drbg.h"

namespace dauth::crypto {
namespace {

Sha256Digest streamed_node(const Sha256Digest& left, const Sha256Digest& right) {
  const std::uint8_t tag = 0x01;
  Sha256 h;
  h.update(ByteView(&tag, 1));
  h.update(left);
  h.update(right);
  return h.finish();
}

TEST(Merkle, NodeHashIsTheStreamedHashOfItsTaggedChildren) {
  DeterministicDrbg rng("merkle-node", 1);
  for (int i = 0; i < 1000; ++i) {
    const Sha256Digest left = rng.array<32>();
    const Sha256Digest right = rng.array<32>();
    EXPECT_EQ(merkle_node_hash(left, right), streamed_node(left, right)) << i;
  }
  Sha256Digest zeros{};
  Sha256Digest ones;
  ones.fill(0xff);
  EXPECT_EQ(merkle_node_hash(zeros, ones), streamed_node(zeros, ones));
  EXPECT_EQ(merkle_node_hash(ones, zeros), streamed_node(ones, zeros));
  // The tag separates a node from a leaf of the same 64 bytes.
  ByteArray<64> children{};
  std::fill(children.begin() + 32, children.end(), 0xff);
  EXPECT_NE(merkle_node_hash(zeros, ones), merkle_leaf_hash(children));
}

}  // namespace
}  // namespace dauth::crypto
