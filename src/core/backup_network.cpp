#include "core/backup_network.h"

#include <algorithm>
#include <set>
#include <tuple>

#include "aka/suci.h"
#include "core/home_network.h"  // hxres_index
#include "obs/journal.h"
#include "wire/reader.h"
#include "wire/writer.h"

namespace dauth::core {
namespace {

// Persisted batch record: "batch/<home>/<batch root>" -> the leaf hashes,
// then the round path. A lone bundle's one-leaf batch is not persisted: its
// bundle record carries all of it.
std::string batch_record(const std::string& home, const crypto::MerkleTree& tree) {
  return "batch/" + home + "/" + to_hex(tree.root());
}

// A share of the 32-byte K_seaf has a 32-byte ordinate, which a held share
// keeps inline.
constexpr std::size_t kOrdinateBytes = 32;

bool lone(const BundleBatch& batch) {
  return batch.tree.leaf_count() == 1 && batch.round.empty();
}

Bytes encode_batch_record(const BundleBatch& batch) {
  wire::Writer w;
  w.u32(static_cast<std::uint32_t>(batch.tree.leaf_count()));
  for (const auto& leaf : batch.tree.leaves()) w.fixed(leaf);
  w.u8(static_cast<std::uint8_t>(batch.round.size()));
  for (const auto& hash : batch.round) w.fixed(hash);
  return std::move(w).take();
}

// The record's tree and round path; the round position and signature are
// not in the record, and come from the batch's bundles.
BundleBatch decode_batch_record(ByteView data) {
  wire::Reader r(data);
  // Each count is read before the hashes it announces: a corrupt count
  // ends in a short read, never in a huge allocation.
  std::vector<crypto::Sha256Digest> leaves;
  for (std::uint32_t i = r.u32(); i > 0; --i) leaves.push_back(r.fixed<32>());
  std::vector<crypto::Sha256Digest> round;
  for (std::uint8_t i = r.u8(); i > 0; --i) round.push_back(r.fixed<32>());
  r.expect_done();
  return {crypto::MerkleTree(std::move(leaves)), 0, 1, std::move(round), {}};
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
      store_(store),
      report_stub_(rpc_, node_, "home.report") {
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

  // Batch records next, indexed by leaf, so each restored bundle finds the
  // tree and round path its inclusion path is rebuilt from. A record holds
  // no round position or signature: the first of its bundles restored sets
  // them, and a batch whose bundles disagree on them is dropped whole.
  std::map<crypto::Sha256Digest, std::shared_ptr<BundleBatch>> batch_of_leaf;
  for (const auto& key : store_->keys_with_prefix("batch/")) {
    try {
      const auto batch = std::make_shared<BundleBatch>(decode_batch_record(*store_->get(key)));
      for (const auto& leaf : batch->tree.leaves()) batch_of_leaf.emplace(leaf, batch);
    } catch (const std::exception&) {
      // Corrupt or empty record: its bundles are skipped below.
    }
  }
  std::set<const BundleBatch*> headed;
  std::set<const BundleBatch*> disagreeing;
  // The bundle's batch (a one-leaf batch of its own for a lone bundle), or
  // null when its batch record is missing or does not fit it, so the bundle
  // could not be served verifiably.
  const auto batch_for = [&](const auto& bundle) -> SharedBatch {
    const BatchPath& path = bundle.batch;
    const auto leaf = bundle.leaf_hash();
    if (path.leaf_count == 1 && path.batch_count == 1) {
      if (path.leaf_index != 0) return nullptr;
      return std::make_shared<const BundleBatch>(
          BundleBatch{crypto::MerkleTree({leaf}), 0, 1, {}, bundle.home_signature});
    }
    const auto it = batch_of_leaf.find(leaf);
    if (it == batch_of_leaf.end()) return nullptr;
    BundleBatch& batch = *it->second;
    if (batch.tree.leaf_count() != path.leaf_count || path.leaf_index >= path.leaf_count ||
        batch.tree.leaves()[path.leaf_index] != leaf ||
        batch.round.size() != crypto::merkle_path_length(path.batch_index, path.batch_count)) {
      return nullptr;
    }
    if (headed.insert(&batch).second) {
      batch.batch_index = path.batch_index;
      batch.batch_count = path.batch_count;
      batch.signature = bundle.home_signature;
    } else if (batch.batch_index != path.batch_index || batch.batch_count != path.batch_count ||
               batch.signature != bundle.home_signature) {
      disagreeing.insert(&batch);
    }
    return it->second;
  };

  // Vector bundles: key layout "vec/<home>/<supi>/<hxres>".
  std::vector<std::pair<UserKey, HeldVector>> vectors;
  for (const auto& key : store_->keys_with_prefix("vec/")) {
    try {
      const auto bundle = AuthVectorBundle::decode(*store_->get(key));
      SharedBatch batch = batch_for(bundle);
      if (batch == nullptr) continue;
      vectors.push_back({{bundle.home_network, bundle.supi},
                         {bundle.sqn, bundle.rand, bundle.autn, bundle.hxres_star, bundle.flood,
                          bundle.batch.leaf_index, std::move(batch)}});
    } catch (const wire::WireError&) {
      // Skip corrupt records; the WAL already filtered torn writes.
    }
  }
  std::vector<std::tuple<UserKey, ByteArray<16>, HeldShare>> shares;
  for (const auto& key : store_->keys_with_prefix("share/")) {
    try {
      const auto bundle = KeyShareBundle::decode(*store_->get(key));
      if (bundle.share.y.size() != kOrdinateBytes) continue;
      SharedBatch batch = batch_for(bundle);
      if (batch == nullptr) continue;
      shares.emplace_back(UserKey{bundle.home_network, bundle.supi}, bundle.hxres_star,
                          HeldShare{bundle.share.x, bundle.batch.leaf_index,
                                    Secret<32>(ByteView(bundle.share.y)), std::move(batch)});
    } catch (const wire::WireError&) {
    }
  }
  for (auto& [user, held] : vectors) {
    if (!disagreeing.contains(held.batch.get())) users_[user].vectors.push_back(std::move(held));
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
  for (auto& [user, hxres, held] : shares) {
    if (!disagreeing.contains(held.batch.get())) users_[user].shares[hxres] = std::move(held);
  }

  for (const auto& key : store_->keys_with_prefix("proof/")) {
    try {
      const auto proof = UsageProof::decode(*store_->get(key));
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
  rpc_.register_service(node_, "backup.store", [this](ByteView req, sim::Responder r) {
    handle_store(req, r);
  });
  rpc_.register_service(node_, "backup.get_vector", [this](ByteView req, sim::Responder r) {
    handle_get_vector(req, r);
  });
  rpc_.register_service(node_, "backup.get_share", [this](ByteView req, sim::Responder r) {
    handle_get_share(req, r);
  });
  rpc_.register_service(node_, "backup.revoke_shares",
                        [this](ByteView req, sim::Responder r) { handle_revoke_shares(req, r); });
}

void BackupNetwork::handle_store(ByteView request, sim::Responder responder) {
  StoreMaterialRequest req;
  try {
    req = StoreMaterialRequest::decode(request);
  } catch (const wire::WireError&) {
    ++metrics_.rejected_requests;
    responder.fail(sim::AppErrorCode::kMalformed, "malformed store request");
    return;
  }
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
      // request's next tree.leaf_count() (vectors first, then shares), and
      // each keeps only its own leaf's fields.
      std::vector<SharedBatch> held_batches;
      held_batches.reserve(batches.size());
      for (BundleBatch& batch : batches) {
        auto held = std::make_shared<const BundleBatch>(std::move(batch));
        if (store_ != nullptr && !lone(*held)) {
          store_->put(batch_record(req.home_network.str(), held->tree),
                      encode_batch_record(*held));
        }
        held_batches.push_back(std::move(held));
      }
      auto next_batch = held_batches.begin();
      const auto batch_of = [&](const BatchPath& path) {
        SharedBatch batch = *next_batch;
        if (path.leaf_index + 1u == path.leaf_count) ++next_batch;
        return batch;
      };
      for (const AuthVectorBundle& vector : req.vectors) {
        if (store_ != nullptr) {
          store_->put("vec/" + req.home_network.str() + "/" + vector.supi.str() + "/" +
                          to_hex(vector.hxres_star),
                      vector.encode());
        }
        UserState& user = users_[{req.home_network, vector.supi}];
        HeldVector held{vector.sqn, vector.rand, vector.autn, vector.hxres_star, vector.flood,
                        vector.batch.leaf_index, batch_of(vector.batch)};
        if (held.flood) {
          user.vectors.push_front(std::move(held));  // §4.3: flood vectors served first
        } else {
          user.vectors.push_back(std::move(held));
        }
        ++metrics_.bundles_stored;
      }
      for (const KeyShareBundle& share : req.shares) {
        if (store_ != nullptr) {
          // DAUTH_DISCLOSE(persisting the signed share bundle is the backup's entire job, §4.2.1)
          store_->put("share/" + req.home_network.str() + "/" + share.supi.str() + "/" +
                          to_hex(share.hxres_star),
                      share.encode());
        }
        users_[{req.home_network, share.supi}].shares[share.hxres_star] = {
            share.share.x, share.batch.leaf_index, Secret<32>(ByteView(share.share.y)),
            batch_of(share.batch)};
        ++metrics_.bundles_stored;
      }
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

Bytes BackupNetwork::served(const UserKey& user, const HeldVector& held) {
  const AuthVectorBundle bundle{user.home, user.supi, held.sqn, held.rand, held.autn,
                                held.hxres_star, held.flood, held.batch->position(held.leaf),
                                held.batch->signature};
  return bundle.encode();
}

KeyShareBundle BackupNetwork::served(const UserKey& user, const ByteArray<16>& hxres,
                                     const HeldShare& held) {
  return {user.home, user.supi, hxres, {held.x, SecretBytes(ByteView(held.y))},
          held.batch->position(held.leaf), held.batch->signature};
}

void BackupNetwork::release_batch(const NetworkId& home, const SharedBatch& batch) {
  if (store_ != nullptr && batch.use_count() == 1 && !lone(*batch)) {
    store_->erase(batch_record(home.str(), batch->tree));
  }
}

void BackupNetwork::handle_get_vector(ByteView request, sim::Responder responder) {
  GetVectorRequest req;
  try {
    req = GetVectorRequest::decode(request);
  } catch (const wire::WireError&) {
    ++metrics_.rejected_requests;
    responder.fail(sim::AppErrorCode::kMalformed, "malformed request");
    return;
  }

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
      if (store_ != nullptr) {
        store_->erase("vec/" + id.home.str() + "/" + supi.str() + "/" +
                      to_hex(held.hxres_star));
      }
      release_batch(id.home, held.batch);
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

void BackupNetwork::handle_get_share(ByteView request, sim::Responder responder) {
  UsageProof proof;
  try {
    proof = UsageProof::decode(request);
  } catch (const wire::WireError&) {
    ++metrics_.rejected_requests;
    responder.fail(sim::AppErrorCode::kMalformed, "malformed proof");
    return;
  }

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
            release_batch(id.home, vec_it->batch);
            vectors.erase(vec_it);
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
        responder.reply(reply.encode());
        return;
      }
      ++metrics_.rejected_requests;
      responder.fail(sim::AppErrorCode::kNotFound, "no share for this vector");
    });
  });
}

void BackupNetwork::handle_revoke_shares(ByteView request, sim::Responder responder) {
  RevokeSharesRequest req;
  try {
    req = RevokeSharesRequest::decode(request);
  } catch (const wire::WireError&) {
    responder.fail(sim::AppErrorCode::kMalformed, "malformed revoke request");
    return;
  }

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

  const auto user_it = users_.find({req.home_network, req.supi});
  if (user_it != users_.end()) {
    auto& shares = user_it->second.shares;
    for (const auto& hxres : req.hxres_indices) {
      if (const auto share_it = shares.find(hxres); share_it != shares.end()) {
        release_batch(req.home_network, share_it->second.batch);
        shares.erase(share_it);
        ++metrics_.shares_revoked;
      }
      // Also drop a matching stored vector (flood-vector replacement path).
      auto& vectors = user_it->second.vectors;
      for (auto it = vectors.begin(); it != vectors.end(); ++it) {
        if (ct_equal(it->hxres_star, hxres)) {
          release_batch(req.home_network, it->batch);
          vectors.erase(it);
          break;
        }
      }
      if (store_ != nullptr) {
        const std::string index = to_hex(hxres);
        store_->erase("share/" + req.home_network.str() + "/" + req.supi.str() + "/" + index);
        store_->erase("vec/" + req.home_network.str() + "/" + req.supi.str() + "/" + index);
      }
    }
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
    store_->put("proof/" + home.str() + "/" + to_hex(proof.hxres_star), proof.encode());
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
    report_stub_.call(
        static_cast<sim::NodeIndex>(e->address), report,
        config_.resilience.call_options(deadline),
        [this, home, sent = std::move(sent)](CallResult<Ack> result) {
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
