// Pushed batches built and edited by hand, in the layout a home pushes them
// in (core::StoreBatch): vectors numbered first, in serve order, then the
// shares, numbered in the order given and pushed in H(XRES*) order.
#pragma once

#include <algorithm>
#include <vector>

#include "core/messages.h"

namespace dauth::testing {

/// Sets `batch`'s leaves to `vectors`, numbered 0 to v - 1 in the order
/// given, and `shares`, numbered v on in the order given and then put in
/// H(XRES*) order, as a home lays out a batch it generated in that order.
inline void lay_out(core::StoreBatch& batch, std::vector<core::VectorLeaf> vectors,
                    std::vector<core::ShareLeaf> shares) {
  for (std::size_t k = 0; k < vectors.size(); ++k) vectors[k].leaf = static_cast<std::uint16_t>(k);
  for (std::size_t i = 0; i < shares.size(); ++i) {
    shares[i].leaf = static_cast<std::uint16_t>(vectors.size() + i);
  }
  std::ranges::stable_sort(shares, {}, &core::ShareLeaf::hxres_star);
  batch.vectors = wire::EncodedSequence<core::VectorLeaf>(vectors);
  batch.shares = wire::EncodedSequence<core::ShareLeaf, SecretBytes>(shares);
}

/// Decodes element `i` of `sequence`, applies `edit` to it and writes it back.
template <typename Sequence, typename Edit>
void edit_leaf(Sequence& sequence, std::size_t i, Edit edit) {
  auto leaf = sequence[i];
  edit(leaf);
  sequence.set(i, leaf);
}

/// The leaf hashes of `home`'s batch `batch`, each at its number: the
/// leaves of the batch's tree.
inline std::vector<crypto::Sha256Digest> leaf_hashes(const NetworkId& home,
                                                     const core::StoreBatch& batch) {
  std::vector<crypto::Sha256Digest> leaves(batch.vectors.size() + batch.shares.size());
  for (const core::VectorLeaf& v : batch.vectors) {
    leaves.at(v.leaf) = core::leaf_hash(home, batch.supi, v);
  }
  for (const core::ShareLeaf& s : batch.shares) {
    leaves.at(s.leaf) = core::leaf_hash(home, batch.supi, s);
  }
  return leaves;
}

}  // namespace dauth::testing
