#include "crypto/merkle.h"

#include <stdexcept>

namespace dauth::crypto {
namespace {

constexpr std::uint8_t kLeafTag = 0x00;
constexpr std::uint8_t kNodeTag = 0x01;

// Levels 1 and 2 are rehashed on demand (see MerkleTree).
constexpr std::size_t kFirstStoredLevel = 3;

std::size_t level_size(std::size_t leaves, std::size_t level) {
  for (; level > 0; --level) leaves = (leaves + 1) / 2;
  return leaves;
}

}  // namespace

Sha256 merkle_leaf_hasher() noexcept {
  Sha256 h;
  h.update(ByteView(&kLeafTag, 1));
  return h;
}

Sha256Digest merkle_leaf_hash(ByteView data) noexcept {
  Sha256 h = merkle_leaf_hasher();
  h.update(data);
  return h.finish();
}

Sha256Digest merkle_node_hash(const Sha256Digest& left, const Sha256Digest& right) noexcept {
  Sha256 h;
  h.update(ByteView(&kNodeTag, 1));
  h.update(left);
  h.update(right);
  return h.finish();
}

MerkleTree::MerkleTree(std::vector<Sha256Digest> leaves) : leaf_count_(leaves.size()) {
  if (leaf_count_ == 0) throw std::invalid_argument("MerkleTree: no leaves");
  std::vector<Sha256Digest> level = leaves;
  nodes_ = std::move(leaves);
  for (std::size_t depth = 1; level.size() > 1; ++depth) {
    std::vector<Sha256Digest> up;
    up.reserve((level.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      up.push_back(merkle_node_hash(level[i], level[i + 1]));
    }
    if (level.size() % 2 == 1) up.push_back(level.back());  // odd node moves up as is
    if (depth >= kFirstStoredLevel || up.size() == 1) {
      nodes_.insert(nodes_.end(), up.begin(), up.end());
    }
    level = std::move(up);
  }
  nodes_.shrink_to_fit();
}

Sha256Digest MerkleTree::node(std::size_t level, std::size_t index) const {
  if (level == 0) return nodes_[index];
  if (level < kFirstStoredLevel) {
    const std::size_t below = level_size(leaf_count_, level - 1);
    const Sha256Digest left = node(level - 1, 2 * index);
    return 2 * index + 1 < below ? merkle_node_hash(left, node(level - 1, 2 * index + 1)) : left;
  }
  std::size_t offset = leaf_count_;
  for (std::size_t l = kFirstStoredLevel; l < level; ++l) offset += level_size(leaf_count_, l);
  return nodes_[offset + index];
}

std::vector<Sha256Digest> MerkleTree::path(std::size_t index) const {
  if (index >= leaf_count_) throw std::out_of_range("MerkleTree: leaf index out of range");
  std::vector<Sha256Digest> out;
  std::size_t size = leaf_count_;
  for (std::size_t level = 0; size > 1; ++level, size = (size + 1) / 2, index /= 2) {
    const std::size_t sibling = index ^ 1;
    if (sibling < size) out.push_back(node(level, sibling));  // none for a promoted node
  }
  return out;
}

std::size_t merkle_path_length(std::size_t index, std::size_t count) noexcept {
  if (index >= count) return 0;
  std::size_t length = 0;
  for (; count > 1; count = (count + 1) / 2, index /= 2) {
    if ((index ^ 1) < count) ++length;  // a promoted node has no sibling
  }
  return length;
}

std::optional<Sha256Digest> merkle_root_from_path(const Sha256Digest& leaf, std::size_t index,
                                                  std::size_t count,
                                                  std::span<const Sha256Digest> path) noexcept {
  if (index >= count) return std::nullopt;
  std::size_t fn = index;
  std::size_t sn = count - 1;
  Sha256Digest r = leaf;
  for (const Sha256Digest& p : path) {
    if (sn == 0) return std::nullopt;  // path longer than the tree is tall
    if ((fn & 1) == 1 || fn == sn) {
      r = merkle_node_hash(p, r);
      // A last node with no right sibling was promoted: skip those levels.
      while ((fn & 1) == 0 && fn != 0) {
        fn >>= 1;
        sn >>= 1;
      }
    } else {
      r = merkle_node_hash(r, p);
    }
    fn >>= 1;
    sn >>= 1;
  }
  if (sn != 0) return std::nullopt;  // path shorter than the tree is tall
  return r;
}

}  // namespace dauth::crypto
