#include "core/backup_network.h"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <limits>
#include <numeric>
#include <ranges>
#include <type_traits>

#include "aka/suci.h"
#include "core/home_network.h"  // hxres_index
#include "obs/journal.h"
#include "wire/reader.h"
#include "wire/writer.h"

namespace dauth::core {
namespace {

// The store key of a held batch's BatchRecord.
std::string batch_record(const std::string& home, const crypto::MerkleTree& tree) {
  return "batch/" + home + "/" + to_hex(tree.root());
}

// The store key prefix of a home's proof segments.
std::string segment_prefix(const NetworkId& home) { return "proof/" + home.str() + "/"; }

// The store key of a home's segment whose first proof has sequence number
// `first`, in fixed-width hex, so key order is sequence order.
std::string segment_key(const NetworkId& home, std::uint64_t first) {
  char seq[17];
  std::snprintf(seq, sizeof seq, "%016" PRIx64, first);
  return segment_prefix(home) + seq;
}

// The first sequence number a segment key's tail names, or nullopt when the
// tail is not 16 hex digits.
std::optional<std::uint64_t> segment_seq(std::string_view tail) {
  std::uint64_t seq = 0;
  const char* end = tail.data() + tail.size();
  const auto [last, error] = std::from_chars(tail.data(), end, seq, 16);
  if (tail.size() != 16 || error != std::errc{} || last != end) return std::nullopt;
  return seq;
}

// The first four bytes of H(XRES*), which order a home's pending proofs.
std::uint32_t proof_tag(const ByteArray<16>& hxres) {
  return static_cast<std::uint32_t>(hxres[0]) << 24 | static_cast<std::uint32_t>(hxres[1]) << 16 |
         static_cast<std::uint32_t>(hxres[2]) << 8 | hxres[3];
}

// The exact bundle the home signed, rebuilt from the held leaf, its user and
// its batch's tree and record header, its inclusion path (in-batch, then
// round) attached: `group` holds the leaf hashes of the path's group.
// nullopt when they do not hash into the tree, which only a home that
// pushed a tree of other leaves can cause.
template <typename Leaf>
auto served(const NetworkId& home, const Supi& supi, const crypto::MerkleTree& tree,
            const BatchHeader& header, std::span<const crypto::Sha256Digest> group,
            const Leaf& held) -> std::optional<decltype(bundle_of(home, supi, held))> {
  auto bundle = bundle_of(home, supi, held);
  try {
    bundle.batch = batch_position(tree, held.leaf, header.batch_index, header.batch_count,
                                  header.round, group);
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
  bundle.home_signature = header.signature;
  return bundle;
}

// A sequence position past every element: FixedSequence::splice cuts none.
constexpr std::size_t kNoCut = std::numeric_limits<std::size_t>::max();

// Puts a stored record's leaves in held order: its vectors in serve order,
// its shares by H(XRES*). A sequence out of order is decoded, placed by a
// sorted index (a share's ordinate is a Secret<32>, copied and wiped on
// every move) and encoded again. True when any leaf moved. A pushed batch is
// held in the order it was pushed (well_formed): only restore sorts.
bool sort_leaves(BatchRecord& record) {
  const auto sort = [](auto& sequence, auto before) {
    using Leaf = typename std::remove_cvref_t<decltype(sequence)>::value_type;
    std::vector<Leaf> leaves(sequence.begin(), sequence.end());
    if (std::ranges::is_sorted(leaves, before)) return false;
    std::vector<std::size_t> order(leaves.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::ranges::sort(order,
                      [&](std::size_t a, std::size_t b) { return before(leaves[a], leaves[b]); });
    for (std::size_t i = 0; i < order.size(); ++i) sequence.set(i, leaves[order[i]]);
    return true;
  };
  const auto by_hxres = [](const ShareLeaf& a, const ShareLeaf& b) {
    return a.hxres_star < b.hxres_star;
  };
  return sort(record.vectors, served_before) | sort(record.shares, by_hxres);
}

}  // namespace

BackupNetwork::BackupNetwork(sim::Rpc& rpc, sim::NodeIndex node, NetworkId id,
                             crypto::X25519Scalar channel_secret,
                             directory::DirectoryClient& directory, FederationConfig config,
                             store::KvStore* store)
    : rpc_(rpc),
      node_(node),
      id_(std::move(id)),
      push_keys_(std::move(channel_secret), std::string(kPushKeyLabel)),
      directory_(directory),
      config_(std::move(config)),
      store_(store) {
  if (store_ != nullptr) restore_from_store();
}

void BackupNetwork::restore_from_store() {
  // Per-home metadata first (keys needed to serve immediately).
  for (const auto& key : store_->keys_with_prefix("sucikey/")) {
    const auto value = store_->get(key);
    if (value && value->size() == 32) {
      homes_[NetworkId(key.substr(8))].suci_secret = take<32>(*value);
    }
  }

  // Held batches, one BatchRecord each. A record is dropped whole when it
  // does not decode, when its held and released leaves are not each leaf of
  // one batch once, when their hashes (a held leaf's rehashed from its
  // fields) do not make the root its key names, or when its round path does
  // not fit its round position: such a bundle could not be served as the
  // home signed it.
  for (const auto& name : store_->keys_with_prefix("batch/")) {
    const auto slash = name.rfind('/');  // the root's hex has none; a home id may
    if (slash < 6) continue;
    const NetworkId home(name.substr(6, slash - 6));
    const store::Value stored = store_->get_shared(name);
    BatchRecord record;
    try {
      record = wire::decode<BatchRecord>(*stored);
    } catch (const wire::WireError&) {
      continue;  // corrupt record; the WAL already filtered torn writes
    }
    const std::size_t count = record.released.size() + record.vectors.size() + record.shares.size();
    std::vector<crypto::Sha256Digest> leaves(count);
    std::vector<bool> placed(count);
    bool intact = count > record.released.size() && count <= 0xffff;  // holds a leaf
    const auto place = [&](std::uint16_t leaf, const crypto::Sha256Digest& hash) {
      intact = intact && leaf < count && !placed[leaf];
      if (intact) {
        placed[leaf] = true;
        leaves[leaf] = hash;
      }
    };
    for (const ReleasedLeaf& leaf : record.released) place(leaf.leaf, leaf.hash);
    const auto rehash = [&](const auto& sequence, const auto& hasher) {
      const auto held = sequence.view();
      std::vector<crypto::Sha256Digest> hashes(held.size());
      hasher(held, hashes);
      for (std::size_t i = 0; intact && i < held.size(); ++i) {
        place(held.template leading<std::uint16_t>(i), hashes[i]);
      }
    };
    rehash(record.vectors, LeafHasher<VectorLeaf>(home, record.supi));
    rehash(record.shares, LeafHasher<ShareLeaf>(home, record.supi));
    if (!intact) continue;
    crypto::MerkleTree tree(leaves);
    if (name != batch_record(home.str(), tree) || record.batch_index >= record.batch_count ||
        record.round.size() != crypto::merkle_path_length(record.batch_index, record.batch_count)) {
      continue;
    }
    // A record whose leaves are out of order is held sorted and written back
    // so, since a held batch and its stored record are one buffer.
    const bool sorted = sort_leaves(record);
    const store::Value held = sorted ? store::make_value(wire::encode(record)) : stored;
    if (hold(users_[{home, record.supi}], std::move(tree), record, held) != nullptr && sorted) {
      // DAUTH_DISCLOSE(a re-sorted record keeps the backup's own shares of K_seaf, §4.2.1)
      store_->put(name, held);
    }
  }

  restore_proofs();
}

void BackupNetwork::restore_proofs() {
  // The restored proofs are appended anew, as one segment numbered past
  // every stored one, so no live key is reused; then the old segments are
  // erased, latest first. A crash in between leaves a prefix of them and
  // part of the new one: the next restore pends the old entries first and
  // skips the new ones' copies, which are then pending, so the order holds.
  std::map<NetworkId, std::vector<std::string>> segments;  // each home's, in key order
  for (std::string& key : store_->keys_with_prefix("proof/")) {
    const auto slash = key.rfind('/');  // the sequence number's hex has none; a home id may
    const auto seq = segment_seq(std::string_view(key).substr(slash + 1));
    if (slash < 6 || !seq) {
      store_->erase(key);  // names no segment
      continue;
    }
    const NetworkId home(key.substr(6, slash - 6));
    HomeState& state = homes_[home];
    state.first_seq = std::max(state.first_seq, *seq + 1);
    segments[home].push_back(std::move(key));
  }
  for (const auto& [home, keys] : segments) {
    for (const auto& key : keys) {
      try {
        wire::decode_each<ProofEntry>(*store_->get(key), [&](const ProofEntry& entry) {
          const UsageProof proof{entry.serving_network, entry.supi,
                                 hxres_index(entry.res_star), entry.res_star,
                                 entry.timestamp, entry.serving_signature};
          if (pend(users_.try_emplace({home, entry.supi}).first->first, proof)) {
            persist_proof(home, proof);
          }
        });
      } catch (const wire::WireError&) {
        continue;  // an entry that does not decode drops the rest of its segment
      }
    }
    std::for_each(keys.rbegin(), keys.rend(), [this](const auto& key) { store_->erase(key); });
    arm_report(home);
  }
}

void BackupNetwork::bind_services() {
  const auto malformed = [this] { ++metrics_.rejected_requests; };
  sim::serve(rpc_, node_, kBackupStore,
             std::bind_front(&BackupNetwork::handle_store, this), malformed);
  sim::serve(rpc_, node_, kBackupGetVector,
             std::bind_front(&BackupNetwork::handle_get_vector, this), malformed);
  sim::serve(rpc_, node_, kBackupGetShare,
             std::bind_front(&BackupNetwork::handle_get_share, this), malformed);
  sim::serve(rpc_, node_, kBackupRevokeShares,
             std::bind_front(&BackupNetwork::handle_revoke_shares, this), malformed);
}

void BackupNetwork::handle_store(StoreMaterialRequest req,
                                 sim::TypedResponder<sim::Ack> responder) {
  if (!well_formed(req)) {
    ++metrics_.rejected_requests;
    responder.fail(sim::AppErrorCode::kMalformed, "inconsistent store batches");
    return;
  }

  // Fetch (usually cached) the home network's entry and check the push's tag
  // before accepting anything. (Copy the id first: the move-capture and the
  // first argument are indeterminately sequenced; the handlers below name
  // the home by this public copy.)
  const NetworkId home_id = req.home_network;
  directory_.get_network(home_id, live([this, home_id, request = std::move(req), responder](
                                           std::optional<directory::NetworkEntry> home) mutable {
    if (!home) {
      ++metrics_.rejected_requests;
      responder.fail(sim::AppErrorCode::kNotFound, "unknown home network");
      return;
    }
    const crypto::X25519Point channel_key = home->channel_key;
    const Time cost = config_.costs.signature_verify * static_cast<Time>(request.batches.size());
    rpc_.network().node(node_).execute(cost, live([this, home_id, request = std::move(request),
                                                   channel_key, responder]() mutable {
      // The tag under this backup's push key with the home binds the SUCI
      // secret and every batch, its fields, tree nodes and leaves, to this
      // backup; the home's signature in it is for the serving networks.
      const crypto::HmacSha256* push_key = push_keys_.get(home_id.str(), id_.str(), channel_key);
      if (!push_key || !ct_equal(store_tag(*push_key, id_, request), request.tag)) {
        ++metrics_.rejected_requests;
        responder.fail(sim::AppErrorCode::kUnauthorized, "invalid store tag");
        return;
      }
      // Each batch's tree is the home's, adopted from its nodes: no leaf is
      // rehashed here. Nodes that do not hash into one another are refused;
      // nodes of other leaves than the pushed ones fail at serve.
      std::vector<crypto::MerkleTree> trees;
      trees.reserve(request.batches.size());
      for (const StoreBatch& batch : request.batches) {
        auto tree = batch_tree(batch);
        if (!tree) {
          ++metrics_.rejected_requests;
          responder.fail(sim::AppErrorCode::kMalformed, "inconsistent batch tree");
          return;
        }
        trees.push_back(std::move(*tree));
      }
      metrics_.batches_verified += trees.size();
      HomeState& home_state = homes_[home_id];
      if (request.suci_secret.size() == 32) {
        home_state.suci_secret = take<32>(request.suci_secret);
        if (store_ != nullptr) {
          // DAUTH_DISCLOSE(backups hold the SUCI deconcealment secret by design, §4.2)
          store_->put("sucikey/" + home_id.str(), request.suci_secret);
        }
      }

      // Each batch is held once, as its record. A batch whose root is
      // already held adds nothing: the home retries a push whose reply was
      // lost or late, and a second copy of a vector could be served again as
      // a replayed SQN.
      std::size_t vectors = 0;
      std::size_t shares = 0;
      for (std::size_t b = 0; b < trees.size(); ++b) {
        StoreBatch& batch = request.batches[b];
        vectors += batch.vectors.size();
        shares += batch.shares.size();
        const UserKey key{home_id, batch.supi};
        UserState& user = users_[key];
        // The batch is held in the order it was pushed, which well_formed
        // checked: its record is its leaf sequences, copied.
        const BatchRecord record{std::move(batch.supi),    batch.batch_index,
                                 batch.batch_count,        batch.signature,
                                 std::move(batch.round),   {},
                                 std::move(batch.vectors), std::move(batch.shares)};
        if (HeldBatch* kept = hold(user, std::move(trees[b]), record)) {
          metrics_.bundles_stored += kept->vectors().size() + kept->shares().size();
          persist_batch(key, user, *kept);
        }
      }
      if (journal_ != nullptr) {
        journal_->append(obs::EventKind::kBundleStored, id_.str(), home_id.str(),
                         std::to_string(vectors) + " vectors, " + std::to_string(shares) +
                             " shares");
      }
      responder.reply({});
    }));
  }));
}

auto BackupNetwork::hold(UserState& user, crypto::MerkleTree tree, const BatchRecord& record,
                         store::Value stored) -> HeldBatch* {
  const crypto::Sha256Digest root = tree.root();
  if (user.batches.contains(root)) return nullptr;
  if (stored == nullptr) stored = store::make_value(wire::encode(record));
  HeldBatch& held =
      user.batches.emplace(root, HeldBatch{std::move(tree), std::move(stored)}).first->second;
  held.locate(record.released.size(), record.vectors.size(), record.shares.size());
  return &held;
}

void BackupNetwork::HeldBatch::locate(std::size_t released_count, std::size_t vector_count,
                                      std::size_t share_count) {
  // The record ends with its shares, after its vectors, after its released
  // leaves.
  const std::size_t size = record->size();
  vectors_end = static_cast<std::uint32_t>(size - wire::sequence_size<ShareLeaf>(share_count));
  vectors_at =
      static_cast<std::uint32_t>(vectors_end - wire::sequence_size<VectorLeaf>(vector_count));
  released_at =
      static_cast<std::uint32_t>(vectors_at - wire::sequence_size<ReleasedLeaf>(released_count));
}

BatchHeader BackupNetwork::HeldBatch::header() const {
  return wire::decode<BatchHeader>(ByteView(*record).first(released_at));
}

wire::FixedSequence<ReleasedLeaf> BackupNetwork::HeldBatch::released() const {
  return wire::FixedSequence<ReleasedLeaf>(
      ByteView(*record).subspan(released_at, vectors_at - released_at));
}

wire::FixedSequence<VectorLeaf> BackupNetwork::HeldBatch::vectors() const {
  return wire::FixedSequence<VectorLeaf>(
      ByteView(*record).subspan(vectors_at, vectors_end - vectors_at));
}

wire::FixedSequence<ShareLeaf> BackupNetwork::HeldBatch::shares() const {
  return wire::FixedSequence<ShareLeaf>(ByteView(*record).subspan(vectors_end));
}

template <typename Leaf>
void BackupNetwork::HeldBatch::release(const UserKey& user, std::size_t index) {
  constexpr bool vector = std::is_same_v<Leaf, VectorLeaf>;
  const auto released = this->released();
  const auto vectors = this->vectors();
  const auto shares = this->shares();
  const auto held = [&] {
    if constexpr (vector) return vectors;
    else return shares;
  }();
  const ReleasedLeaf gone{held.template leading<std::uint16_t>(index),
                          LeafHasher<Leaf>(user.home, user.supi)(held.fields(index))};
  Bytes next;
  next.reserve(record->size() + wire::sequence_size<ReleasedLeaf>(1) -
               wire::sequence_size<Leaf>(1));
  next.insert(next.end(), record->begin(), record->begin() + released_at);
  released.splice(next, kNoCut, &gone);
  vectors.splice(next, vector ? index : kNoCut);
  shares.splice(next, vector ? kNoCut : index);
  const std::size_t released_count = released.size() + 1;
  const std::size_t vector_count = vectors.size() - (vector ? 1 : 0);
  const std::size_t share_count = shares.size() - (vector ? 0 : 1);
  record = store::make_value(std::move(next));
  locate(released_count, vector_count, share_count);
}

auto BackupNetwork::next_batch(UserState& user) -> HeldBatch* {
  HeldBatch* next = nullptr;
  VectorLeaf first;  // next's front vector
  for (auto& [root, held] : user.batches) {
    const auto vectors = held.vectors();
    if (vectors.empty()) continue;
    VectorLeaf front = vectors[0];
    if (next == nullptr || served_before(front, first)) {
      next = &held;
      first = front;
    }
  }
  return next;
}

std::size_t BackupNetwork::UserState::vectors() const {
  std::size_t count = 0;
  for (const auto& [root, held] : batches) count += held.vectors().size();
  return count;
}

auto BackupNetwork::find_share(UserState& user, const ByteArray<16>& hxres)
    -> std::optional<std::pair<HeldBatch*, std::size_t>> {
  for (auto& [root, held] : user.batches) {
    // A binary search of the record's shares in place, by H(XRES*).
    const auto shares = held.shares();
    const auto hxres_of = [&shares](std::size_t i) {
      return shares.prefix<ShareIndex>(i).hxres_star;
    };
    const auto index = std::views::iota(std::size_t{0}, shares.size());
    const auto it = std::ranges::lower_bound(index, hxres, {}, hxres_of);
    if (it != index.end() && hxres_of(*it) == hxres) return std::pair{&held, *it};
  }
  return std::nullopt;
}

auto BackupNetwork::group(const UserKey& user, const HeldBatch& held, std::uint16_t leaf)
    -> std::vector<crypto::Sha256Digest> {
  const crypto::MerkleGroup group = held.tree.group(leaf);
  std::vector<crypto::Sha256Digest> hashes(group.size);
  // Element i's place in the group, group.size or more when it lies outside:
  // every held leaf's encoding starts with its leaf index.
  const auto slot = [&](const auto& sequence, std::size_t i) -> std::size_t {
    return sequence.template leading<std::uint16_t>(i) - group.first;
  };
  const auto rehash = [&](const auto& sequence, auto&& hasher) {
    for (std::size_t i = 0; i < sequence.size(); ++i) {
      if (const std::size_t at = slot(sequence, i); at < group.size) {
        hashes[at] = hasher(sequence.fields(i));
      }
    }
  };
  rehash(held.vectors(), LeafHasher<VectorLeaf>(user.home, user.supi));
  rehash(held.shares(), LeafHasher<ShareLeaf>(user.home, user.supi));
  const auto released = held.released();
  for (std::size_t i = 0; i < released.size(); ++i) {
    if (const std::size_t at = slot(released, i); at < group.size) hashes[at] = released[i].hash;
  }
  return hashes;
}

auto BackupNetwork::take_vector(const UserKey& key, UserState& user, const ByteArray<16>& hxres)
    -> HeldBatch* {
  for (auto& [root, held] : user.batches) {
    const auto vectors = held.vectors();
    for (std::size_t i = 0; i < vectors.size(); ++i) {
      if (!ct_equal(vectors[i].hxres_star, hxres)) continue;
      held.release<VectorLeaf>(key, i);
      return &held;
    }
  }
  return nullptr;
}

void BackupNetwork::persist_batch(const UserKey& user, UserState& state,
                                  const HeldBatch& held) {
  const bool empty = held.vectors().empty() && held.shares().empty();
  if (store_ != nullptr) {
    const std::string name = batch_record(user.home.str(), held.tree);
    if (empty) {
      store_->erase(name);
    } else {
      store_->put(name, held.record);
    }
  }
  if (empty) {
    const crypto::Sha256Digest root = held.tree.root();
    state.batches.erase(root);
  }
}

void BackupNetwork::handle_get_vector(GetVectorRequest req,
                                      sim::TypedResponder<AuthVectorBundle> responder) {
  rpc_.network().node(node_).execute(config_.costs.vector_fetch, live([this, req = std::move(req),
                                                                       responder] {
    Supi supi = req.supi;
    if (supi.empty() && !req.suci.empty()) {
      aka::Suci suci;
      try {
        suci = wire::decode<aka::Suci>(req.suci);
      } catch (const wire::WireError&) {
        ++metrics_.rejected_requests;
        responder.fail(sim::AppErrorCode::kMalformed, "malformed suci");
        return;
      }
      // Try every home whose SUCI secret we hold (in practice the SUCI's
      // routing indicator narrows this to one).
      for (const auto& [home_id, home_state] : homes_) {
        if (!home_state.suci_secret) continue;
        if (const auto recovered = aka::deconceal_suci(suci, *home_state.suci_secret)) {
          supi = *recovered;
          break;
        }
      }
      if (supi.empty()) {
        ++metrics_.rejected_requests;
        responder.fail(sim::AppErrorCode::kUnauthorized, "suci deconcealment failed");
        return;
      }
    }

    // Find the user under any home network we back up.
    for (auto& [id, user] : users_) {
      if (id.supi != supi) continue;
      HeldBatch* held = next_batch(user);
      if (held == nullptr) {
        responder.fail(sim::AppErrorCode::kExhausted, "no vectors remaining");
        return;
      }
      // The front vector is let go whether or not it can be served, so one
      // its home pushed off its tree does not block the ones behind it.
      const VectorLeaf next = held->vectors()[0];
      const auto bundle = served(id.home, id.supi, held->tree, held->header(),
                                 group(id, *held, next.leaf), next);
      held->release<VectorLeaf>(id, 0);
      persist_batch(id, user, *held);
      if (!bundle) {
        responder.fail(sim::AppErrorCode::kUpstream, "vector off its batch tree");
        return;
      }
      ++metrics_.vectors_served;
      if (journal_ != nullptr) {
        journal_->append(obs::EventKind::kVectorServed, id_.str(), supi.str());
      }
      responder.reply(*bundle);
      return;
    }
    ++metrics_.rejected_requests;
    responder.fail(sim::AppErrorCode::kNotFound, "user not backed up here");
  }));
}

void BackupNetwork::handle_get_share(UsageProof proof,
                                     sim::TypedResponder<ShareReply> responder) {
  // The preimage check is the heart of §4.2.2: the serving network must
  // reveal RES*, proving the UE actually answered the challenge.
  if (!ct_equal(hxres_index(proof.res_star), proof.hxres_star)) {
    ++metrics_.rejected_requests;
    responder.fail(sim::AppErrorCode::kUnauthorized, "res* preimage mismatch");
    return;
  }

  directory_.get_network(proof.serving_network, live([this, proof, responder](
                                                         std::optional<directory::NetworkEntry>
                                                             serving) {
    if (!serving || !proof.verify(serving->signing_key)) {
      ++metrics_.rejected_requests;
      responder.fail(sim::AppErrorCode::kUnauthorized, "invalid serving signature");
      return;
    }
    rpc_.network().node(node_).execute(config_.costs.share_fetch, live([this, proof, responder] {
      for (auto& [id, user] : users_) {
        if (id.supi != proof.supi) continue;
        const auto share = find_share(user, proof.hxres_star);
        if (!share) continue;
        const auto& [batch, index] = *share;
        const ShareLeaf leaf = batch->shares()[index];
        auto bundle = served(id.home, id.supi, batch->tree, batch->header(),
                             group(id, *batch, leaf.leaf), leaf);
        if (!bundle) {
          responder.fail(sim::AppErrorCode::kUpstream, "share off its batch tree");
          return;
        }
        ShareReply reply{std::move(*bundle), 0};

        // Keep the proof for later reporting (§4.2.2: "backups store the
        // received bundle ... to report a proof of consumption"), once: a
        // retried or replayed proof releases the share again but is
        // already pending.
        if (pend(id, proof)) {
          if (store_ != nullptr) persist_proof(id.home, proof);
          arm_report(id.home);
        }
        // The proof also tells us the vector itself is consumed; drop any
        // copy WE hold (flood vectors are replicated to every backup, §4.3).
        if (const HeldBatch* held = take_vector(id, user, proof.hxres_star)) {
          persist_batch(id, user, *held);
        }
        ++metrics_.shares_served;
        if (journal_ != nullptr) {
          journal_->append(obs::EventKind::kShareReleased, id_.str(), proof.supi.str(),
                           "to " + proof.serving_network.str());
        }
        reply.vectors_left = static_cast<std::uint32_t>(user.vectors());
        // DAUTH_DISCLOSE(key-share release after RES* preimage and signature checks, §4.2.2)
        responder.reply(reply);
        return;
      }
      ++metrics_.rejected_requests;
      responder.fail(sim::AppErrorCode::kNotFound, "no share for this vector");
    }));
  }));
}

void BackupNetwork::handle_revoke_shares(RevokeSharesRequest req,
                                         sim::TypedResponder<sim::Ack> responder) {
  // Only the home network itself may revoke its users' material: check the
  // tag under this backup's push key with the home (its channel key comes
  // from the directory, cached by its first store) before dropping
  // anything. An unauthenticated revoke would be a share-deletion denial of
  // service. (Copy the id first, as handle_store does.)
  const NetworkId home_id = req.home_network;
  directory_.get_network(home_id, live([this, req = std::move(req), responder](
                                           std::optional<directory::NetworkEntry> home) {
    if (!home) {
      ++metrics_.rejected_requests;
      responder.fail(sim::AppErrorCode::kNotFound, "unknown home network");
      return;
    }
    const crypto::HmacSha256* push_key =
        push_keys_.get(req.home_network.str(), id_.str(), home->channel_key);
    if (!push_key || !ct_equal(revoke_tag(*push_key, id_, req), req.tag)) {
      ++metrics_.rejected_requests;
      responder.fail(sim::AppErrorCode::kUnauthorized, "invalid revoke tag");
      return;
    }
    const UserKey user{req.home_network, req.supi};
    if (const auto user_it = users_.find(user); user_it != users_.end()) {
      UserState& state = user_it->second;
      std::vector<const HeldBatch*> touched;  // each written once, after every drop
      const auto touch = [&](const HeldBatch* held) {
        if (std::ranges::find(touched, held) == touched.end()) touched.push_back(held);
      };
      for (const auto& hxres : req.hxres_indices) {
        if (const auto share = find_share(state, hxres)) {
          share->first->release<ShareLeaf>(user, share->second);
          touch(share->first);
          ++metrics_.shares_revoked;
        }
        // Also drop a matching stored vector (flood-vector replacement path).
        if (const HeldBatch* held = take_vector(user, state, hxres)) touch(held);
      }
      for (const HeldBatch* held : touched) persist_batch(user, state, *held);
    }
    if (journal_ != nullptr && !req.hxres_indices.empty()) {
      journal_->append(obs::EventKind::kRevocation, id_.str(), req.supi.str(),
                       std::to_string(req.hxres_indices.size()) + " shares revoked by " +
                           req.home_network.str());
    }
    responder.reply({});
  }));
}

bool BackupNetwork::pend(const UserKey& user, const UsageProof& proof) {
  HomeState& home = homes_[user.home];
  auto serving = std::ranges::find(serving_networks_, proof.serving_network);
  if (serving == serving_networks_.end()) {
    serving = serving_networks_.insert(serving, proof.serving_network);
  }
  PendingProof entry{proof.res_star,
                     proof.serving_signature,
                     proof.timestamp,
                     &user,
                     static_cast<std::uint32_t>(serving - serving_networks_.begin()),
                     proof_tag(proof.hxres_star)};
  // By (H(XRES*), serving network): the tag, then the serving network, and
  // only when both tie the whole digest.
  const auto before = [](const PendingProof& a, const PendingProof& b) {
    if (a.tag != b.tag || a.serving != b.serving) {
      return std::tie(a.tag, a.serving) < std::tie(b.tag, b.serving);
    }
    return hxres_index(a.res_star) < hxres_index(b.res_star);
  };
  const auto at = [&home](std::uint64_t seq) -> const PendingProof& {
    return home.pending[seq - home.first_seq];
  };
  const auto it = std::ranges::lower_bound(home.by_proof, entry, before, at);
  if (it != home.by_proof.end() && !before(entry, at(*it))) return false;
  home.by_proof.insert(it, home.first_seq + home.pending.size());
  home.pending.push_back(std::move(entry));
  ++metrics_.proofs_pending;
  return true;
}

void BackupNetwork::persist_proof(const NetworkId& home, const UsageProof& proof) {
  HomeState& state = homes_[home];
  if (!state.open_segment) state.open_segment = state.first_seq + state.pending.size() - 1;
  const ProofEntry entry{proof.supi, proof.serving_network, proof.res_star, proof.timestamp,
                         proof.serving_signature};
  // DAUTH_DISCLOSE(usage proofs are persisted for the audit report; RES* inside is already spent, §4.2.3)
  store_->append(segment_key(home, *state.open_segment), wire::encode(entry));
}

UsageProof BackupNetwork::proof_of(const PendingProof& pending) const {
  return {serving_networks_[pending.serving], pending.user->supi, hxres_index(pending.res_star),
          pending.res_star,                   pending.timestamp,  pending.signature};
}

void BackupNetwork::arm_report(const NetworkId& home) {
  // report_interval <= 0 disables periodic reporting (tests call
  // report_now() directly).
  if (config_.report_interval <= 0) return;
  HomeState& state = homes_[home];
  if (state.report_armed || state.pending.empty()) return;
  state.report_armed = true;
  rpc_.network().simulator().after(config_.report_interval, live([this, home] {
    auto it = homes_.find(home);
    if (it == homes_.end()) return;
    it->second.report_armed = false;
    report_now(home);
  }));
}

void BackupNetwork::report_now(const NetworkId& home) {
  auto it = homes_.find(home);
  if (it == homes_.end() || it->second.pending.empty()) return;

  HomeState& state = it->second;
  ReportRequest report;
  report.backup_network = id_;
  report.proofs.reserve(state.pending.size());
  for (const PendingProof& pending : state.pending) report.proofs.push_back(proof_of(pending));
  const std::uint64_t end = state.first_seq + state.pending.size();
  state.open_segment.reset();  // sealed at `end`

  directory_.get_network(home, live([this, home, report = std::move(report), end](
                                        std::optional<directory::NetworkEntry> e) mutable {
    if (!e) return;
    // Reports already have an application-level retry loop (arm_report), so
    // a single attempt per firing is enough whatever the retry policy; the
    // breaker still short-circuits firings at a known-down home. The home
    // charges report_processing per proof before it acks, so the attempt may
    // take until the next firing, which re-sends anyway.
    const Time deadline = config_.report_interval > 0 ? config_.report_interval : sec(5);
    sim::TypedStub(rpc_, node_, kHomeReport).call(
        static_cast<sim::NodeIndex>(e->address), report,
        config_.resilience.call_options(deadline),
        live([this, home, end](sim::CallResult<sim::Ack> result) {
          if (!result.ok()) {
            // Home still down; keep the proofs and retry after an interval.
            arm_report(home);
            return;
          }
          acked(home, end);
        }));
  }));
}

void BackupNetwork::acked(const NetworkId& home, std::uint64_t end) {
  // Home acknowledged: clear exactly the proofs the report listed. A proof
  // pended while it was in flight stays pending.
  auto it = homes_.find(home);
  if (it == homes_.end()) return;
  HomeState& state = it->second;
  std::size_t cleared = 0;
  for (; state.first_seq < end; ++state.first_seq, ++cleared) state.pending.pop_front();
  if (store_ != nullptr) {
    // Every report ends on a segment boundary, so the segments that start
    // below `end` hold only proofs it listed.
    const std::string below = segment_key(home, end);
    for (const auto& key : store_->keys_with_prefix(segment_prefix(home))) {
      if (key.size() == below.size() && key < below) store_->erase(key);
    }
  }
  std::erase_if(state.by_proof, [&](std::uint64_t seq) { return seq < state.first_seq; });
  metrics_.proofs_pending -= std::min<std::uint64_t>(cleared, metrics_.proofs_pending);
  ++metrics_.reports_sent;
  if (journal_ != nullptr) {
    journal_->append(obs::EventKind::kReportSent, id_.str(), home.str(),
                     std::to_string(cleared) + " proofs");
  }
}

std::size_t BackupNetwork::stored_vectors(const NetworkId& home, const Supi& supi) const {
  const auto it = users_.find({home, supi});
  return it == users_.end() ? 0 : it->second.vectors();
}

std::size_t BackupNetwork::stored_shares(const NetworkId& home, const Supi& supi) const {
  const auto it = users_.find({home, supi});
  if (it == users_.end()) return 0;
  std::size_t shares = 0;
  for (const auto& [root, held] : it->second.batches) shares += held.shares().size();
  return shares;
}

std::size_t BackupNetwork::pending_reports(const NetworkId& home) const {
  const auto it = homes_.find(home);
  return it == homes_.end() ? 0 : it->second.pending.size();
}

}  // namespace dauth::core
