#include "crypto/merkle.h"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace dauth::crypto {
namespace {

constexpr std::uint8_t kNodeTag = 0x01;
// A node's message: 0x01 || left || right.
constexpr std::size_t kNodeMessage = 1 + 2 * sizeof(Sha256Digest);
// The node messages pair_up writes per sha256_each call, a multiple of its
// sixteen lanes; a level of more is hashed in runs of this many.
constexpr std::size_t kNodesPerRun = 64;

// Levels 0 to 2 are the caller's leaves and their rehash (see MerkleTree).
constexpr std::size_t kFirstStoredLevel = 3;
constexpr std::size_t kGroupLeaves = std::size_t{1} << kFirstStoredLevel;

std::size_t level_size(std::size_t leaves, std::size_t level) {
  for (; level > 0; --level) leaves = (leaves + 1) / 2;
  return leaves;
}

void write_node(std::uint8_t* message, const Sha256Digest& left, const Sha256Digest& right) {
  message[0] = kNodeTag;
  std::ranges::copy(left, message + 1);
  std::ranges::copy(right, message + 1 + left.size());
}

// Writes the level above `below` to `above`, which may be below's own
// storage: neighbours paired, an odd last node moved up as is. Returns its
// size. The level's node messages are hashed together (crypto::sha256_each),
// in runs on the stack.
std::size_t pair_up(std::span<const Sha256Digest> below, Sha256Digest* above) {
  const std::size_t pairs = below.size() / 2;
  std::array<std::uint8_t, kNodesPerRun * kNodeMessage> messages;
  for (std::size_t first = 0; first < pairs; first += kNodesPerRun) {
    // A run's nodes overwrite no node of `below` that a later run reads.
    const std::size_t run = std::min(kNodesPerRun, pairs - first);
    for (std::size_t i = 0; i < run; ++i) {
      const std::size_t left = 2 * (first + i);
      write_node(&messages[i * kNodeMessage], below[left], below[left + 1]);
    }
    sha256_each({messages.data(), run * kNodeMessage}, kNodeMessage, {above + first, run});
  }
  if (below.size() % 2 == 0) return pairs;
  above[pairs] = below.back();
  return pairs + 1;
}

// The nodes a `leaves`-leaf tree stores (MerkleTree::nodes).
std::size_t stored_count(std::size_t leaves) {
  std::size_t stored = leaves == 1 ? 1 : 0;
  for (std::size_t level = 1, size = leaves; size > 1; ++level) {
    size = (size + 1) / 2;
    if (level >= kFirstStoredLevel || size == 1) stored += size;
  }
  return stored;
}

}  // namespace

Sha256 merkle_leaf_hasher() noexcept {
  Sha256 h;
  h.update(ByteView(&kMerkleLeafTag, 1));
  return h;
}

Sha256Digest merkle_leaf_hash(ByteView data) noexcept {
  Sha256 h = merkle_leaf_hasher();
  h.update(data);
  return h.finish();
}

Sha256Digest merkle_node_hash(const Sha256Digest& left, const Sha256Digest& right) noexcept {
  std::array<std::uint8_t, kNodeMessage> message;
  write_node(message.data(), left, right);
  Sha256Digest digest;
  sha256_each(message, kNodeMessage, {&digest, 1});
  return digest;
}

MerkleTree::MerkleTree(std::span<const Sha256Digest> leaves) : leaf_count_(leaves.size()) {
  if (leaf_count_ == 0) throw std::invalid_argument("MerkleTree: no leaves");
  if (leaf_count_ == 1) {
    nodes_.assign(leaves.begin(), leaves.end());  // the leaf is the root
    return;
  }
  nodes_.reserve(stored_count(leaf_count_));
  std::vector<Sha256Digest> level((leaf_count_ + 1) / 2);
  level.resize(pair_up(leaves, level.data()));
  grow(std::move(level), 1);
}

std::optional<MerkleTree> MerkleTree::from_nodes(std::size_t leaf_count,
                                                 std::span<const Sha256Digest> nodes) {
  if (leaf_count == 0 || nodes.size() != stored_count(leaf_count)) return std::nullopt;
  // A tree of up to four leaves stores its root alone, one of more its
  // third level first.
  const bool third = level_size(leaf_count, kFirstStoredLevel - 1) > 1;
  const std::size_t lowest = third ? level_size(leaf_count, kFirstStoredLevel) : 1;
  MerkleTree tree(leaf_count, {});
  tree.nodes_.reserve(nodes.size());
  tree.grow({nodes.begin(), nodes.begin() + static_cast<std::ptrdiff_t>(lowest)},
            third ? kFirstStoredLevel : 0);
  if (!std::ranges::equal(tree.nodes_, nodes)) return std::nullopt;
  return tree;
}

void MerkleTree::grow(std::vector<Sha256Digest> level, std::size_t depth) {
  for (;; ++depth) {
    if (depth >= kFirstStoredLevel || level.size() == 1) {
      nodes_.insert(nodes_.end(), level.begin(), level.end());
    }
    if (level.size() == 1) return;
    level.resize(pair_up(level, level.data()));
  }
}

MerkleGroup MerkleTree::group(std::size_t index) const noexcept {
  const std::size_t first = index / kGroupLeaves * kGroupLeaves;
  return {first, std::min(kGroupLeaves, leaf_count_ - first)};
}

const Sha256Digest& MerkleTree::stored(std::size_t level, std::size_t index) const {
  if (level < kFirstStoredLevel) return nodes_.back();  // the only node kept down there
  std::size_t offset = 0;
  for (std::size_t l = kFirstStoredLevel; l < level; ++l) offset += level_size(leaf_count_, l);
  return nodes_[offset + index];
}

std::vector<Sha256Digest> MerkleTree::path(std::size_t index,
                                           std::span<const Sha256Digest> group) const {
  if (index >= leaf_count_) throw std::out_of_range("MerkleTree: leaf index out of range");
  const MerkleGroup g = this->group(index);
  if (group.size() != g.size) throw std::invalid_argument("MerkleTree: not the leaf's group");
  std::array<Sha256Digest, kGroupLeaves> nodes{};  // the group's nodes of one level
  std::ranges::copy(group, nodes.begin());
  std::size_t in_group = g.size;
  std::vector<Sha256Digest> out;
  std::size_t size = leaf_count_;  // the level's nodes in the whole tree
  std::size_t level = 0;
  for (; level < kFirstStoredLevel && size > 1; ++level, size = (size + 1) / 2, index /= 2) {
    const std::size_t sibling = index ^ 1;
    if (sibling < size) out.push_back(nodes[sibling - (g.first >> level)]);  // none if promoted
    in_group = pair_up({nodes.data(), in_group}, nodes.data());
  }
  // The group's top node, rehashed from its leaves, is a node the tree keeps.
  if (nodes[0] != stored(level, g.first >> level)) {
    throw std::invalid_argument("MerkleTree: the group does not hash into the tree");
  }
  for (; size > 1; ++level, size = (size + 1) / 2, index /= 2) {
    const std::size_t sibling = index ^ 1;
    if (sibling < size) out.push_back(stored(level, sibling));
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
