// Binary Merkle hash tree over SHA-256 with RFC 6962 domain separation.
//
// A leaf hashes as SHA-256(0x00 || data) and an interior node as
// SHA-256(0x01 || left || right), so no interior node can ever be presented
// as a leaf (or the reverse). The tree shape is RFC 6962 §2.1's: for n
// leaves the left subtree holds the largest power of two below n, which is
// the same tree as pairing neighbours level by level and promoting an odd
// last node unchanged.
//
// dAuth builds one tree per dissemination batch and one more over a user's
// batch roots, and signs that round root once (core/messages.h). A bundle
// proves membership with two inclusion paths laid end to end: leaf to batch
// root, then batch root to round root; merkle_path_length() says where the
// first one ends.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "crypto/sha256.h"

namespace dauth::crypto {

/// The byte a leaf's hashed data follows.
inline constexpr std::uint8_t kMerkleLeafTag = 0x00;

Sha256Digest merkle_leaf_hash(ByteView data) noexcept;
/// A SHA-256 context primed with the leaf prefix: fed a leaf's data in
/// parts, its finish() is merkle_leaf_hash of their concatenation.
Sha256 merkle_leaf_hasher() noexcept;
Sha256Digest merkle_node_hash(const Sha256Digest& left, const Sha256Digest& right) noexcept;

/// The leaves a path needs from its caller: leaf `index`'s group, the up to
/// eight leaves [first, first + size) under one node of the third level.
struct MerkleGroup {
  std::size_t first = 0;
  std::size_t size = 0;
};

/// One tree, stored from its third level up to its root in a single array:
/// about 0.25 digests per leaf. The leaves stay with the caller, who hands a
/// path the hashes of its leaf's group; the path rehashes the two levels
/// below the stored ones from them (at most seven node hashes).
class MerkleTree {
 public:
  /// Throws std::invalid_argument on an empty leaf list.
  explicit MerkleTree(std::span<const Sha256Digest> leaves);

  /// The `leaf_count`-leaf tree that stores `nodes` (see nodes()), built
  /// without its leaves: the levels above its lowest stored one are rehashed
  /// from that level and must equal the ones given. nullopt when they do
  /// not, or when `nodes` is not as many as such a tree stores.
  static std::optional<MerkleTree> from_nodes(std::size_t leaf_count,
                                              std::span<const Sha256Digest> nodes);

  std::size_t leaf_count() const noexcept { return leaf_count_; }
  const Sha256Digest& root() const noexcept { return nodes_.back(); }
  /// The nodes the tree stores, level by level from the third (or from the
  /// root, for a tree of at most four leaves) up to the root.
  std::span<const Sha256Digest> nodes() const noexcept { return nodes_; }

  /// The group of leaf `index` (index < leaf_count()).
  MerkleGroup group(std::size_t index) const noexcept;

  /// RFC 6962 §2.1.1 audit path of leaf `index`, leaf level first, given the
  /// leaf hashes of group(index). Empty for a one-leaf tree. Throws
  /// std::out_of_range on a bad index and std::invalid_argument when
  /// `group` is not that group of this tree: of another size, or not
  /// rehashing into the node the tree stores above it.
  std::vector<Sha256Digest> path(std::size_t index, std::span<const Sha256Digest> group) const;

 private:
  MerkleTree(std::size_t leaf_count, std::vector<Sha256Digest> nodes)
      : leaf_count_(leaf_count), nodes_(std::move(nodes)) {}
  /// Appends to the stored nodes `level`, the nodes of tree level `depth`,
  /// when it is stored, and every stored level above it.
  void grow(std::vector<Sha256Digest> level, std::size_t depth);
  /// Stored node `index` of `level` (0 = leaves): the root, or a node of the
  /// third level or above.
  const Sha256Digest& stored(std::size_t level, std::size_t index) const;

  std::size_t leaf_count_;
  std::vector<Sha256Digest> nodes_;
};

/// Length of the audit path of leaf `index` in a `count`-leaf tree, i.e.
/// MerkleTree::path(index, group).size(); 0 when index >= count.
std::size_t merkle_path_length(std::size_t index, std::size_t count) noexcept;

/// RFC 9162 §2.1.3.2: the root implied by `leaf` at `index` of a `count`-leaf
/// tree and its audit path, or nullopt when the path cannot belong to such a
/// tree (index out of range, path too short or too long).
std::optional<Sha256Digest> merkle_root_from_path(const Sha256Digest& leaf, std::size_t index,
                                                  std::size_t count,
                                                  std::span<const Sha256Digest> path) noexcept;

}  // namespace dauth::crypto
