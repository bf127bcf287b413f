#include "core/backup_network.h"

#include <algorithm>
#include <functional>
#include <set>

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

// A share of the 32-byte K_seaf has a 32-byte ordinate, which a held share
// keeps inline.
constexpr std::size_t kOrdinateBytes = 32;

// A BatchRecord's tree, from its leaf hashes: 32 bytes each, at least one
// and at most a u16 position's worth; nullopt otherwise.
std::optional<crypto::MerkleTree> record_tree(ByteView leaves) {
  constexpr std::size_t kHash = sizeof(crypto::Sha256Digest);
  const std::size_t count = leaves.size() / kHash;
  if (count == 0 || count > 0xffff || leaves.size() % kHash != 0) return std::nullopt;
  std::vector<crypto::Sha256Digest> hashes;
  hashes.reserve(count);
  for (std::size_t i = 0; i < count; ++i) hashes.push_back(take<kHash>(leaves.subspan(i * kHash)));
  return crypto::MerkleTree(std::move(hashes));
}

}  // namespace

BackupNetwork::BackupNetwork(sim::Rpc& rpc, sim::NodeIndex node, NetworkId id,
                             directory::DirectoryClient& directory, FederationConfig config,
                             store::KvStore* store)
    : rpc_(rpc),
      node_(node),
      id_(std::move(id)),
      directory_(directory),
      config_(std::move(config)),
      store_(store) {
  if (store_ != nullptr) restore_from_store();
}

void BackupNetwork::restore_from_store() {
  // Per-home metadata first (keys needed to serve immediately).
  for (const auto& key : store_->keys_with_prefix("homekey/")) {
    const NetworkId home(key.substr(8));
    const auto value = store_->get(key);
    if (value && value->size() == 32) {
      homes_[home].home_key = take<32>(*value);
      homes_[home].home_key_known = true;
    }
  }
  for (const auto& key : store_->keys_with_prefix("sucikey/")) {
    const NetworkId home(key.substr(8));
    const auto value = store_->get(key);
    if (value && value->size() == 32) homes_[home].suci_secret = take<32>(*value);
  }

  // Held batches, one BatchRecord each. A record is dropped whole when it
  // does not decode, when its leaf hashes do not make the root its key
  // names, when its round path does not fit its round position, or when a
  // held leaf's fields do not hash to that leaf: such a bundle could not be
  // served as the home signed it.
  for (const auto& name : store_->keys_with_prefix("batch/")) {
    const auto slash = name.rfind('/');  // the root's hex has none; a home id may
    if (slash < 6) continue;
    const NetworkId home(name.substr(6, slash - 6));
    BatchRecord record;
    try {
      record = wire::decode<BatchRecord>(*store_->get(name));
    } catch (const wire::WireError&) {
      continue;  // corrupt record; the WAL already filtered torn writes
    }
    auto tree = record_tree(record.leaves);
    if (!tree || name != batch_record(home.str(), *tree) ||
        record.batch_index >= record.batch_count ||
        record.round.size() != crypto::merkle_path_length(record.batch_index, record.batch_count)) {
      continue;
    }
    const auto batch = std::make_shared<const BundleBatch>(
        BundleBatch{std::move(*tree), record.batch_index, record.batch_count,
                    std::move(record.round), record.signature});
    const UserKey user{home, record.supi};
    const auto leaves = batch->tree.leaves();
    bool intact = !record.vectors.empty() || !record.shares.empty();
    const auto check = [&](std::uint16_t leaf, const auto& bundle) {
      intact = intact && leaf < leaves.size() && bundle.leaf_hash() == leaves[leaf];
    };
    std::vector<HeldVector> vectors;
    for (const VectorLeaf& v : record.vectors) {
      vectors.push_back({v.sqn, v.rand, v.autn, v.hxres_star, v.flood, v.leaf, batch});
      check(v.leaf, leaf_bundle(user, vectors.back()));
    }
    std::vector<std::pair<ByteArray<16>, HeldShare>> shares;
    for (const ShareLeaf& held : record.shares) {
      shares.emplace_back(held.hxres_star, HeldShare{held.x, held.leaf, held.y, batch});
      check(held.leaf, leaf_bundle(user, held.hxres_star, shares.back().second));
    }
    if (!intact) continue;
    UserState& state = users_[user];
    for (HeldVector& held : vectors) state.vectors.push_back(std::move(held));
    for (auto& [hxres, held] : shares) state.shares.insert_or_assign(hxres, std::move(held));
  }
  // Rebuild each user's queue ordered by SQN (the dissemination order),
  // floods first.
  for (auto& [key, user] : users_) {
    std::stable_sort(user.vectors.begin(), user.vectors.end(),
                     [](const HeldVector& a, const HeldVector& b) {
                       if (a.flood != b.flood) return a.flood;  // floods first
                       return a.sqn < b.sqn;
                     });
  }

  for (const auto& key : store_->keys_with_prefix("proof/")) {
    try {
      const auto proof = wire::decode<UsageProof>(*store_->get(key));
      // Recover the home id from the key: "proof/<home>/<hxres>".
      const std::string rest = key.substr(6);
      const auto slash = rest.find('/');
      if (slash == std::string::npos) continue;
      const NetworkId home(rest.substr(0, slash));
      homes_[home].pending_proofs.push_back(proof);
      ++metrics_.proofs_pending;
      arm_report(home);
    } catch (const wire::WireError&) {
    }
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
  // A request with a share ordinate of any other length is malformed.
  for (const KeyShareBundle& share : req.shares) {
    if (share.share.y.size() != kOrdinateBytes) {
      ++metrics_.rejected_requests;
      responder.fail(sim::AppErrorCode::kMalformed, "malformed key share");
      return;
    }
  }
  // Rebuild each batch's Merkle tree from the bundles themselves (one leaf
  // hash per bundle); the request's round path then leads each batch root
  // to the one round root the home signed.
  auto batches = split_batches(req);
  if (!batches) {
    ++metrics_.rejected_requests;
    responder.fail(sim::AppErrorCode::kMalformed, "inconsistent bundle batches");
    return;
  }

  // Fetch (usually cached) the home network's key and verify every batch
  // root before accepting anything. (Copy the id first: the move-capture and
  // the first argument are indeterminately sequenced.)
  const NetworkId home_id = req.home_network;
  directory_.get_network(home_id, [this, req = std::move(req), batches = std::move(*batches),
                                   responder](
                                      std::optional<directory::NetworkEntry> home) mutable {
    if (!home) {
      ++metrics_.rejected_requests;
      responder.fail(sim::AppErrorCode::kNotFound, "unknown home network");
      return;
    }
    const crypto::Ed25519PublicKey home_key = home->signing_key;
    const Time cost = config_.costs.signature_verify * static_cast<Time>(batches.size());
    rpc_.network().node(node_).execute(cost, [this, req = std::move(req),
                                              batches = std::move(batches), home_key,
                                              responder]() mutable {
      // Round signature verified once per batch, over every received bundle.
      for (const BundleBatch& batch : batches) {
        if (!batch.verify_root(req.home_network, home_key)) {
          ++metrics_.rejected_requests;
          responder.fail(sim::AppErrorCode::kUnauthorized, "invalid batch signature");
          return;
        }
        ++metrics_.batches_verified;
      }
      HomeState& home_state = homes_[req.home_network];
      home_state.home_key = home_key;
      home_state.home_key_known = true;
      if (store_ != nullptr) {
        store_->put("homekey/" + req.home_network.str(), home_key);
      }
      if (req.suci_secret.size() == 32) {
        home_state.suci_secret = take<32>(req.suci_secret);
        if (store_ != nullptr) {
          // DAUTH_DISCLOSE(backups hold the SUCI deconcealment secret by design, §4.2)
          store_->put("sucikey/" + req.home_network.str(), req.suci_secret);
        }
      }

      // Each batch is held once, for all of its bundles; its bundles are the
      // request's next tree.leaf_count() (vectors first, then shares), all of
      // one user, and each keeps only its own leaf's fields.
      std::vector<std::pair<UserKey, SharedBatch>> stored;
      stored.reserve(batches.size());
      auto next_batch = batches.begin();
      const auto batch_of = [&](const auto& bundle) {
        if (bundle.batch.leaf_index == 0) {
          stored.emplace_back(UserKey{req.home_network, bundle.supi},
                              std::make_shared<const BundleBatch>(std::move(*next_batch++)));
        }
        return stored.back().second;
      };
      for (const AuthVectorBundle& vector : req.vectors) {
        UserState& user = users_[{req.home_network, vector.supi}];
        HeldVector held{vector.sqn, vector.rand, vector.autn, vector.hxres_star, vector.flood,
                        vector.batch.leaf_index, batch_of(vector)};
        if (held.flood) {
          user.vectors.push_front(std::move(held));  // §4.3: flood vectors served first
        } else {
          user.vectors.push_back(std::move(held));
        }
        ++metrics_.bundles_stored;
      }
      for (const KeyShareBundle& share : req.shares) {
        SharedBatch batch = batch_of(share);
        users_[{req.home_network, share.supi}].shares[share.hxres_star] = {
            share.share.x, share.batch.leaf_index, Secret<32>(ByteView(share.share.y)),
            std::move(batch)};
        ++metrics_.bundles_stored;
      }
      for (const auto& [user, batch] : stored) persist_batch(user, batch);
      if (journal_ != nullptr && (!req.vectors.empty() || !req.shares.empty())) {
        journal_->append(obs::EventKind::kBundleStored, id_.str(),
                         req.home_network.str(),
                         std::to_string(req.vectors.size()) + " vectors, " +
                             std::to_string(req.shares.size()) + " shares");
      }
      responder.reply({});
    });
  });
}

AuthVectorBundle BackupNetwork::leaf_bundle(const UserKey& user, const HeldVector& held) {
  return {user.home,       user.supi,  held.sqn, held.rand, held.autn,
          held.hxres_star, held.flood, {},       {}};
}

KeyShareBundle BackupNetwork::leaf_bundle(const UserKey& user, const ByteArray<16>& hxres,
                                          const HeldShare& held) {
  return {user.home, user.supi, hxres, {held.x, SecretBytes(ByteView(held.y))}, {}, {}};
}

AuthVectorBundle BackupNetwork::served(const UserKey& user, const HeldVector& held) {
  AuthVectorBundle bundle = leaf_bundle(user, held);
  bundle.batch = held.batch->position(held.leaf);
  bundle.home_signature = held.batch->signature;
  return bundle;
}

KeyShareBundle BackupNetwork::served(const UserKey& user, const ByteArray<16>& hxres,
                                     const HeldShare& held) {
  KeyShareBundle bundle = leaf_bundle(user, hxres, held);
  bundle.batch = held.batch->position(held.leaf);
  bundle.home_signature = held.batch->signature;
  return bundle;
}

void BackupNetwork::persist_batch(const UserKey& user, const SharedBatch& batch) {
  if (store_ == nullptr) return;
  // By root, not by pointer: a batch stored twice is one record.
  const auto of_batch = [&](const SharedBatch& other) {
    return other->tree.root() == batch->tree.root();
  };
  BatchRecord record;
  if (const auto it = users_.find(user); it != users_.end()) {
    for (const HeldVector& held : it->second.vectors) {
      if (of_batch(held.batch)) {
        record.vectors.push_back(
            {held.leaf, held.sqn, held.rand, held.autn, held.hxres_star, held.flood});
      }
    }
    for (const auto& [hxres, held] : it->second.shares) {
      if (of_batch(held.batch)) record.shares.push_back({held.leaf, hxres, held.x, held.y});
    }
  }
  const std::string name = batch_record(user.home.str(), batch->tree);
  if (record.vectors.empty() && record.shares.empty()) {
    store_->erase(name);
    return;
  }
  record.supi = user.supi;
  record.batch_index = batch->batch_index;
  record.batch_count = batch->batch_count;
  record.signature = batch->signature;
  record.round = batch->round;
  const auto leaves = batch->tree.leaves();
  record.leaves.reserve(leaves.size() * sizeof(crypto::Sha256Digest));
  for (const auto& leaf : leaves) record.leaves.insert(record.leaves.end(), leaf.begin(), leaf.end());
  // DAUTH_DISCLOSE(persisting its shares of K_seaf is the backup's entire job, §4.2.1)
  store_->put(name, wire::encode(record));
}

void BackupNetwork::handle_get_vector(GetVectorRequest req,
                                      sim::TypedResponder<AuthVectorBundle> responder) {
  rpc_.network().node(node_).execute(config_.costs.vector_fetch, [this, req = std::move(req),
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
      if (user.vectors.empty()) {
        responder.fail(sim::AppErrorCode::kExhausted, "no vectors remaining");
        return;
      }
      const HeldVector held = std::move(user.vectors.front());
      user.vectors.pop_front();
      persist_batch(id, held.batch);
      ++metrics_.vectors_served;
      if (journal_ != nullptr) {
        journal_->append(obs::EventKind::kVectorServed, id_.str(), supi.str());
      }
      responder.reply(served(id, held));
      return;
    }
    ++metrics_.rejected_requests;
    responder.fail(sim::AppErrorCode::kNotFound, "user not backed up here");
  });
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

  directory_.get_network(proof.serving_network, [this, proof, responder](
                                                    std::optional<directory::NetworkEntry>
                                                        serving) {
    if (!serving || !proof.verify(serving->signing_key)) {
      ++metrics_.rejected_requests;
      responder.fail(sim::AppErrorCode::kUnauthorized, "invalid serving signature");
      return;
    }
    rpc_.network().node(node_).execute(config_.costs.share_fetch, [this, proof, responder] {
      for (auto& [id, user] : users_) {
        if (id.supi != proof.supi) continue;
        const auto bundle_it = user.shares.find(proof.hxres_star);
        if (bundle_it == user.shares.end()) continue;

        // Persist the proof for later reporting (§4.2.2: "backups store the
        // received bundle ... to report a proof of consumption").
        persist_proof(id.home, proof);
        // The proof also tells us the vector itself is consumed; drop any
        // copy WE hold (flood vectors are replicated to every backup, §4.3).
        auto& vectors = user.vectors;
        for (auto vec_it = vectors.begin(); vec_it != vectors.end(); ++vec_it) {
          if (ct_equal(vec_it->hxres_star, proof.hxres_star)) {
            const SharedBatch batch = vec_it->batch;
            vectors.erase(vec_it);
            persist_batch(id, batch);
            break;
          }
        }
        ++metrics_.shares_served;
        if (journal_ != nullptr) {
          journal_->append(obs::EventKind::kShareReleased, id_.str(), proof.supi.str(),
                           "to " + proof.serving_network.str());
        }
        ShareReply reply;
        reply.share = served(id, bundle_it->first, bundle_it->second);
        reply.vectors_left = static_cast<std::uint32_t>(vectors.size());
        // DAUTH_DISCLOSE(key-share release after RES* preimage and signature checks, §4.2.2)
        responder.reply(reply);
        return;
      }
      ++metrics_.rejected_requests;
      responder.fail(sim::AppErrorCode::kNotFound, "no share for this vector");
    });
  });
}

void BackupNetwork::handle_revoke_shares(RevokeSharesRequest req,
                                         sim::TypedResponder<sim::Ack> responder) {
  // Only the home network itself may revoke its users' material: check the
  // request signature against the home key learned at store time (an
  // unauthenticated revoke would be a share-deletion denial of service).
  const auto home_it = homes_.find(req.home_network);
  if (home_it == homes_.end()) {
    responder.fail(sim::AppErrorCode::kNotFound, "unknown home network");
    return;
  }
  if (!home_it->second.home_key_known || !req.verify(home_it->second.home_key)) {
    ++metrics_.rejected_requests;
    responder.fail(sim::AppErrorCode::kUnauthorized, "invalid revoke signature");
    return;
  }

  const UserKey user{req.home_network, req.supi};
  if (const auto user_it = users_.find(user); user_it != users_.end()) {
    auto& shares = user_it->second.shares;
    auto& vectors = user_it->second.vectors;
    std::vector<SharedBatch> touched;  // each written once, after every drop
    const auto touch = [&](const SharedBatch& batch) {
      if (std::ranges::find(touched, batch) == touched.end()) touched.push_back(batch);
    };
    for (const auto& hxres : req.hxres_indices) {
      if (const auto share_it = shares.find(hxres); share_it != shares.end()) {
        touch(share_it->second.batch);
        shares.erase(share_it);
        ++metrics_.shares_revoked;
      }
      // Also drop a matching stored vector (flood-vector replacement path).
      for (auto it = vectors.begin(); it != vectors.end(); ++it) {
        if (ct_equal(it->hxres_star, hxres)) {
          touch(it->batch);
          vectors.erase(it);
          break;
        }
      }
    }
    for (const SharedBatch& batch : touched) persist_batch(user, batch);
  }
  if (journal_ != nullptr && !req.hxres_indices.empty()) {
    journal_->append(obs::EventKind::kRevocation, id_.str(), req.supi.str(),
                     std::to_string(req.hxres_indices.size()) + " shares revoked by " +
                         req.home_network.str());
  }
  responder.reply({});
}

void BackupNetwork::persist_proof(const NetworkId& home, const UsageProof& proof) {
  homes_[home].pending_proofs.push_back(proof);
  ++metrics_.proofs_pending;
  if (store_ != nullptr) {
    // DAUTH_DISCLOSE(usage proofs are persisted for the audit report; RES* inside is already spent, §4.2.3)
    store_->put("proof/" + home.str() + "/" + to_hex(proof.hxres_star), wire::encode(proof));
  }
  arm_report(home);
}

void BackupNetwork::arm_report(const NetworkId& home) {
  // report_interval <= 0 disables periodic reporting (tests call
  // report_now() directly).
  if (config_.report_interval <= 0) return;
  HomeState& state = homes_[home];
  if (state.report_armed || state.pending_proofs.empty()) return;
  state.report_armed = true;
  rpc_.network().simulator().after(config_.report_interval, [this, home] {
    auto it = homes_.find(home);
    if (it == homes_.end()) return;
    it->second.report_armed = false;
    report_now(home);
  });
}

void BackupNetwork::report_now(const NetworkId& home) {
  auto it = homes_.find(home);
  if (it == homes_.end() || it->second.pending_proofs.empty()) return;

  ReportRequest report;
  report.backup_network = id_;
  report.proofs = it->second.pending_proofs;

  std::set<ByteArray<16>> sent;
  for (const UsageProof& proof : report.proofs) sent.insert(proof.hxres_star);

  directory_.get_network(home, [this, home, report = std::move(report), sent = std::move(sent)](
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
        [this, home, sent = std::move(sent)](sim::CallResult<sim::Ack> result) {
          if (!result.ok()) {
            // Home still down; keep the proofs and retry after an interval.
            arm_report(home);
            return;
          }
          // Home acknowledged: clear exactly the proofs we sent, by H(XRES*).
          // A proof persisted while the report was in flight stays pending.
          auto home_it = homes_.find(home);
          if (home_it == homes_.end()) return;
          auto& pending = home_it->second.pending_proofs;
          const std::size_t cleared = std::erase_if(
              pending, [&](const UsageProof& proof) { return sent.contains(proof.hxres_star); });
          metrics_.proofs_pending -= std::min<std::uint64_t>(cleared, metrics_.proofs_pending);
          ++metrics_.reports_sent;
          if (journal_ != nullptr) {
            journal_->append(obs::EventKind::kReportSent, id_.str(), home.str(),
                             std::to_string(cleared) + " proofs");
          }
          if (store_ != nullptr) {
            for (const auto& hxres : sent) {
              store_->erase("proof/" + home.str() + "/" + to_hex(hxres));
            }
          }
        });
  });
}

std::size_t BackupNetwork::stored_vectors(const NetworkId& home, const Supi& supi) const {
  const auto it = users_.find({home, supi});
  return it == users_.end() ? 0 : it->second.vectors.size();
}

std::size_t BackupNetwork::stored_shares(const NetworkId& home, const Supi& supi) const {
  const auto it = users_.find({home, supi});
  return it == users_.end() ? 0 : it->second.shares.size();
}

std::size_t BackupNetwork::pending_reports(const NetworkId& home) const {
  const auto it = homes_.find(home);
  return it == homes_.end() ? 0 : it->second.pending_proofs.size();
}

}  // namespace dauth::core
