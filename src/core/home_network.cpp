#include "core/home_network.h"

#include <algorithm>
#include <array>
#include <functional>
#include <numeric>

#include "aka/sim_card.h"
#include "crypto/sha256.h"
#include "obs/journal.h"
#include "wire/reader.h"
#include "wire/writer.h"

namespace dauth::core {
namespace {

// Background pushes to backups (dissemination, replenishment, revocation)
// are idempotent: store/revoke are keyed by H(XRES*), so they retry freely
// under the resilience policy inside a generous budget.
constexpr Time kPushTimeout = sec(5);
constexpr Time kPushBudget = sec(10);

}  // namespace

template <typename Request, typename Tag>
void HomeNetwork::push(const sim::Service<Request, sim::Ack>& service, const NetworkId& backup,
                       Request request, Tag tag, std::function<void(bool)> done) {
  directory_.get_network(backup, [this, service, backup, request = std::move(request),
                                  tag = std::move(tag),
                                  done](std::optional<directory::NetworkEntry> entry) mutable {
    const crypto::HmacSha256* key =
        entry ? push_keys_.get(id_.str(), backup.str(), entry->channel_key) : nullptr;
    if (!key) {
      if (done) done(false);
      return;
    }
    request.tag = tag(*key, backup, request);
    sim::TypedStub(rpc_, node_, service)
        .call(static_cast<sim::NodeIndex>(entry->address), request,
              config_.resilience.call_options(kPushTimeout, kPushBudget),
              [done](sim::CallResult<sim::Ack> result) {
                if (done) done(result.ok());
              });
  });
}

ByteArray<16> hxres_index(const crypto::ResStar& res_star) {
  return take<16>(crypto::sha256(res_star));
}

void HomeNetwork::note_anomaly(std::string what) {
  if (journal_ != nullptr) {
    journal_->append(obs::EventKind::kAnomaly, id_.str(), {}, what);
  }
  anomalies_.push_back(std::move(what));
}

HomeNetwork::HomeNetwork(sim::Rpc& rpc, sim::NodeIndex node, NetworkId id,
                         crypto::Ed25519KeyPair signing_key, crypto::X25519KeyPair suci_key,
                         crypto::X25519Scalar channel_secret,
                         directory::DirectoryClient& directory, FederationConfig config,
                         crypto::DeterministicDrbg rng)
    : rpc_(rpc),
      node_(node),
      id_(std::move(id)),
      signing_key_(signing_key),
      suci_key_(suci_key),
      push_keys_(std::move(channel_secret), std::string(kPushKeyLabel)),
      directory_(directory),
      config_(std::move(config)),
      rng_(std::move(rng)) {}

void HomeNetwork::provision_subscriber(const Supi& supi, const aka::SubscriberKeys& keys) {
  Subscriber subscriber;
  subscriber.keys = keys;
  subscribers_.emplace(supi, std::move(subscriber));
}

void HomeNetwork::set_backups(const std::vector<NetworkId>& backups) {
  if (backups.size() > static_cast<std::size_t>(aka::kSliceCount - 1)) {
    throw std::invalid_argument("HomeNetwork: too many backups (max 31)");
  }
  backup_ids_ = backups;
  for (const NetworkId& backup : backup_ids_) {
    if (!slice_map_.contains(backup)) {
      if (next_free_slice_ >= aka::kSliceCount) {
        throw std::length_error("HomeNetwork: SQN slices exhausted");
      }
      slice_map_[backup] = next_free_slice_++;
    }
  }
}

int HomeNetwork::slice_of(const NetworkId& backup) const {
  const auto it = slice_map_.find(backup);
  return it == slice_map_.end() ? -1 : it->second;
}

crypto::Key256 HomeNetwork::new_vector(Subscriber& subscriber, int slice,
                                       const crypto::Rand& rand, VectorLeaf& leaf) {
  leaf.sqn = subscriber.sqn.allocate(slice);
  leaf.rand = rand;
  const aka::AuthVector av =
      aka::generate_auth_vector(subscriber.keys, leaf.sqn, leaf.rand, config_.serving_network_name);
  leaf.autn = av.autn;
  leaf.hxres_star = hxres_index(av.xres_star);
  return av.k_seaf;
}

std::vector<VectorLeaf> HomeNetwork::generate_material(
    Subscriber& subscriber, std::span<const int> slices, bool flood,
    std::span<StoreMaterialRequest> requests, std::span<const std::size_t> vectors_held) {
  // The round's randomness is two generate requests: every RAND, which is
  // public, then every vector's coefficient rows, which are as secret as
  // its K_seaf. Both, and every K_seaf, are wiped when this returns, before
  // the round is signed.
  const std::size_t rows = (config_.threshold - 1) * sizeof(crypto::Key256);
  const Bytes rands = rng_.bytes(slices.size() * sizeof(crypto::Rand));
  SecretBytes coefficients(slices.size() * rows);
  rng_.fill(coefficients.mutable_view());

  std::vector<VectorLeaf> vectors(slices.size());
  SecretBytes keys(slices.size() * sizeof(crypto::Key256));
  for (std::size_t i = 0; i < slices.size(); ++i) {
    VectorLeaf& vector = vectors[i];
    const crypto::Rand rand = take<16>(ByteView(rands).subspan(i * sizeof(crypto::Rand)));
    const crypto::Key256 k_seaf = new_vector(subscriber, slices[i], rand, vector);
    std::ranges::copy(ByteView(k_seaf), keys.begin() + i * sizeof(crypto::Key256));
    vector.flood = flood;
    ++metrics_.tokens_generated;
    subscriber.outstanding[vector.hxres_star].sqn = vector.sqn;  // holder set by caller
  }

  // Every backup holds its shares by H(XRES*): one permutation puts the
  // round in that order, and each vector's shares are written in place,
  // into its element of every batch's share sequence.
  std::vector<std::size_t> order(slices.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::ranges::sort(order, [&](std::size_t a, std::size_t b) {
    return vectors[a].hxres_star < vectors[b].hxres_star;
  });
  for (StoreMaterialRequest& request : requests) {
    request.batches.front().shares =
        wire::EncodedSequence<ShareLeaf, SecretBytes>::zeroed(slices.size());
  }
  std::vector<MutableByteView> ordinates(requests.size());
  for (std::size_t p = 0; p < order.size(); ++p) {
    const std::size_t i = order[p];
    for (std::size_t b = 0; b < requests.size(); ++b) {
      // Share i of a batch follows its vectors.
      const ShareIndex share{static_cast<std::uint16_t>(vectors_held[b] + i),
                             vectors[i].hxres_star, static_cast<std::uint8_t>(b + 1)};
      ordinates[b] = requests[b].batches.front().shares.write_prefix(p, share);
    }
    crypto::shamir_split(ByteView(keys).subspan(i * sizeof(crypto::Key256), sizeof(crypto::Key256)),
                         config_.threshold, ByteView(coefficients).subspan(i * rows, rows),
                         ordinates);
  }
  return vectors;
}

void HomeNetwork::disseminate(const Supi& supi, std::function<void(std::size_t)> done) {
  if (!subscribers_.contains(supi)) {
    if (done) done(0);
    return;
  }
  std::map<NetworkId, std::size_t> counts;
  for (const NetworkId& backup : backup_ids_) counts[backup] = config_.vectors_per_backup;
  send_round(supi, std::move(counts), std::move(done));
}

void HomeNetwork::send_round(const Supi& supi, std::map<NetworkId, std::size_t> counts,
                             std::function<void(std::size_t)> done) {
  std::size_t queued_vectors = 0;
  for (const auto& [backup, count] : counts) queued_vectors += count;
  if (queued_vectors == 0) {  // nothing to sign or store
    if (done) done(0);
    return;
  }
  // Model the precompute cost, and build the round when it has been paid.
  const Time generation_cost =
      config_.costs.dissemination_per_vector * static_cast<Time>(queued_vectors);
  rpc_.network().node(node_).execute(generation_cost, [this, supi, counts = std::move(counts),
                                                       done = std::move(done)] {
    const auto count_of = [&](const NetworkId& backup) {
      const auto it = counts.find(backup);
      return it == counts.end() ? std::size_t{0} : it->second;
    };
    std::size_t total_vectors = 0;
    for (const NetworkId& backup : backup_ids_) total_vectors += count_of(backup);
    const auto subscriber_it = subscribers_.find(supi);
    if (subscriber_it == subscribers_.end() || total_vectors == 0 ||
        backup_ids_.size() < config_.threshold) {
      if (done) done(0);
      return;
    }
    Subscriber& subscriber = subscriber_it->second;

    // One StoreMaterialRequest per backup, of one batch: its slice's vectors
    // plus its share of every other backup's vectors.
    std::vector<StoreMaterialRequest> requests(backup_ids_.size());
    std::vector<std::size_t> vectors_held(backup_ids_.size());
    for (std::size_t b = 0; b < backup_ids_.size(); ++b) {
      requests[b].home_network = id_;
      requests[b].suci_secret = to_bytes(ByteView(suci_key_.secret));
      requests[b].batches.emplace_back().supi = supi;
      vectors_held[b] = count_of(backup_ids_[b]);
    }
    // Generated backup by backup: the order the home's RNG stream depends on.
    std::vector<int> slices;
    slices.reserve(total_vectors);
    for (std::size_t b = 0; b < backup_ids_.size(); ++b) {
      slices.insert(slices.end(), vectors_held[b], slice_of(backup_ids_[b]));
    }
    std::vector<VectorLeaf> vectors =
        generate_material(subscriber, slices, /*flood=*/false, requests, vectors_held);
    // A slice's vectors are issued by SQN, so each batch's are in serve
    // order: its leaves 0 to count - 1.
    auto next = vectors.begin();
    for (std::size_t b = 0; b < backup_ids_.size(); ++b) {
      const std::span<VectorLeaf> held(next, vectors_held[b]);
      for (std::size_t v = 0; v < held.size(); ++v) {
        held[v].leaf = static_cast<std::uint16_t>(v);
        subscriber.outstanding[held[v].hxres_star].holder = slice_of(backup_ids_[b]);
      }
      requests[b].batches.front().vectors = wire::EncodedSequence<VectorLeaf>(held);
      next += static_cast<std::ptrdiff_t>(held.size());
    }
    metrics_.vectors_disseminated += total_vectors;
    metrics_.shares_disseminated += total_vectors * backup_ids_.size();
    push_round(std::move(requests), std::move(done));
  });
}

void HomeNetwork::push_round(std::vector<StoreMaterialRequest> requests,
                             std::function<void(std::size_t)> done) {
  // One signature per (user, round): each backup's request is one batch,
  // and the home signs the root of the tree over the batch roots (§4.2.1).
  sign_round(requests, signing_key_);
  ++metrics_.batches_signed;

  // Each request moves into its push, so no batch is held twice.
  auto remaining = std::make_shared<std::size_t>(requests.size());
  auto ok_count = std::make_shared<std::size_t>(0);
  auto finish_one = [remaining, ok_count, done = std::move(done)](bool ok) {
    if (ok) ++*ok_count;
    if (--*remaining == 0 && done) done(*ok_count);
  };
  for (std::size_t b = 0; b < requests.size(); ++b) {
    push(kBackupStore, backup_ids_[b], std::move(requests[b]), store_tag, finish_one);
  }
}

AuthVectorBundle HomeNetwork::generate_local_vector(const Supi& supi,
                                                    crypto::Key256& k_seaf_out) {
  auto it = subscribers_.find(supi);
  if (it == subscribers_.end()) throw std::invalid_argument("unknown subscriber");
  VectorLeaf leaf;
  k_seaf_out = new_vector(it->second, aka::kHomeSlice, rng_.array<16>(), leaf);
  ++metrics_.vectors_served;
  return bundle_of(id_, supi, leaf);
}

std::optional<AuthVectorBundle> HomeNetwork::resync_and_generate_local(
    const Supi& supi, const crypto::Rand& failed_rand, const aka::Auts& auts,
    crypto::Key256& k_seaf_out) {
  auto it = subscribers_.find(supi);
  if (it == subscribers_.end()) return std::nullopt;
  std::uint64_t sqn_ms = 0;
  if (!aka::verify_auts(it->second.keys, failed_rand, auts, sqn_ms)) return std::nullopt;
  it->second.sqn.resynchronize(sqn_ms);
  return generate_local_vector(supi, k_seaf_out);
}

void HomeNetwork::bind_services() {
  const auto malformed = [this] { ++metrics_.rejected_requests; };
  sim::serve(rpc_, node_, kHomeGetVector,
             std::bind_front(&HomeNetwork::handle_get_vector, this), malformed);
  sim::serve(rpc_, node_, kHomeGetKey,
             std::bind_front(&HomeNetwork::handle_get_key, this), malformed);
  sim::serve(rpc_, node_, kHomeReport,
             std::bind_front(&HomeNetwork::handle_report, this), malformed);
  sim::serve(rpc_, node_, kHomeResync,
             std::bind_front(&HomeNetwork::handle_resync, this), malformed);
  sim::serve(
      rpc_, node_, kHomePing, [](sim::Ack, sim::TypedResponder<sim::Ack> r) { r.reply({}); },
      malformed);
}

void HomeNetwork::reset_subscriber_sqn(const Supi& supi) {
  auto it = subscribers_.find(supi);
  if (it == subscribers_.end()) return;
  it->second.sqn = aka::SqnAllocator();
}

void HomeNetwork::handle_resync(ResyncRequest req,
                                sim::TypedResponder<AuthVectorBundle> responder) {
  auto it = subscribers_.find(req.supi);
  if (it == subscribers_.end()) {
    ++metrics_.rejected_requests;
    responder.fail(sim::AppErrorCode::kNotFound, "unknown subscriber");
    return;
  }
  std::uint64_t sqn_ms = 0;
  if (!aka::verify_auts(it->second.keys, req.rand, req.auts, sqn_ms)) {
    ++metrics_.rejected_requests;
    responder.fail(sim::AppErrorCode::kUnauthorized, "invalid auts mac");
    return;
  }
  it->second.sqn.resynchronize(sqn_ms);

  // Reply with a fresh (now acceptable) vector, as home.get_vector would.
  serve_vector(req.supi, it->second, responder);
}

void HomeNetwork::handle_get_vector(GetVectorRequest req,
                                    sim::TypedResponder<AuthVectorBundle> responder) {
  Supi supi = req.supi;
  if (supi.empty() && !req.suci.empty()) {
    // De-conceal the SUCI with our private key.
    std::optional<Supi> recovered;
    try {
      recovered = aka::deconceal_suci(wire::decode<aka::Suci>(req.suci), suci_key_.secret);
    } catch (const wire::WireError&) {
      ++metrics_.rejected_requests;
      responder.fail(sim::AppErrorCode::kMalformed, "malformed suci");
      return;
    }
    if (!recovered) {
      ++metrics_.rejected_requests;
      responder.fail(sim::AppErrorCode::kUnauthorized, "suci deconcealment failed");
      return;
    }
    supi = *recovered;
  }

  const auto it = subscribers_.find(supi);
  if (it == subscribers_.end()) {
    ++metrics_.rejected_requests;
    responder.fail(sim::AppErrorCode::kNotFound, "unknown subscriber");
    return;
  }
  serve_vector(supi, it->second, responder);
}

void HomeNetwork::serve_vector(const Supi& supi, Subscriber& subscriber,
                               sim::TypedResponder<AuthVectorBundle> responder) {
  // Model the AUSF/UDM vector-generation cost, then answer.
  rpc_.network().node(node_).execute(config_.costs.vector_generation, [this, supi, &subscriber,
                                                                       responder] {
    VectorLeaf leaf;
    const crypto::Key256 k_seaf = new_vector(subscriber, aka::kHomeSlice, rng_.array<16>(), leaf);
    AuthVectorBundle bundle = bundle_of(id_, supi, leaf);
    sign_single(bundle, signing_key_);
    ++metrics_.batches_signed;

    subscriber.pending_keys[bundle.hxres_star] = k_seaf;
    ++metrics_.vectors_served;
    if (journal_ != nullptr) {
      journal_->append(obs::EventKind::kVectorServed, id_.str(), supi.str());
    }
    responder.reply(bundle);
  });
}

void HomeNetwork::handle_get_key(UsageProof proof, sim::TypedResponder<KeyReply> responder) {
  auto it = subscribers_.find(proof.supi);
  if (it == subscribers_.end()) {
    ++metrics_.rejected_requests;
    responder.fail(sim::AppErrorCode::kNotFound, "unknown subscriber");
    return;
  }

  // The preimage check: H(RES*) must equal the index the key is filed under.
  if (!ct_equal(hxres_index(proof.res_star), proof.hxres_star)) {
    ++metrics_.rejected_requests;
    responder.fail(sim::AppErrorCode::kUnauthorized, "res* preimage mismatch");
    return;
  }

  // Verify the serving network's signature (its key comes from the
  // directory, almost always cached).
  // The subscriber is a value of subscribers_, which erases none.
  Subscriber& subscriber = it->second;
  directory_.get_network(proof.serving_network, [this, proof, &subscriber, responder](
                                                    std::optional<directory::NetworkEntry>
                                                        serving) {
    if (!serving || !proof.verify(serving->signing_key)) {
      ++metrics_.rejected_requests;
      responder.fail(sim::AppErrorCode::kUnauthorized, "invalid serving signature");
      return;
    }
    rpc_.network().node(node_).execute(config_.costs.key_release, [this, proof, &subscriber,
                                                                   responder] {
      auto pending_it = subscriber.pending_keys.find(proof.hxres_star);
      if (pending_it == subscriber.pending_keys.end()) {
        ++metrics_.rejected_requests;
        responder.fail(sim::AppErrorCode::kNotFound, "no pending key for proof");
        return;
      }
      const crypto::Key256 k_seaf = pending_it->second;
      subscriber.pending_keys.erase(pending_it);  // one-time release
      subscriber.seen_proofs[proof.hxres_star] = proof.serving_network;
      ++usage_ledger_[proof.serving_network];
      ++metrics_.keys_released;
      if (journal_ != nullptr) {
        journal_->append(obs::EventKind::kKeyReleased, id_.str(), proof.supi.str(),
                         "to " + proof.serving_network.str());
      }
      // DAUTH_DISCLOSE(K_seaf release to the serving network that proved vector use, §4.2.2)
      responder.reply(KeyReply{k_seaf});
    });
  });
}

void HomeNetwork::handle_report(ReportRequest report,
                                sim::TypedResponder<sim::Ack> responder) {
  const Time cost =
      config_.costs.report_processing * static_cast<Time>(std::max<std::size_t>(1, report.proofs.size()));
  rpc_.network().node(node_).execute(cost, [this, report = std::move(report), responder] {
    // One revoke and one refill round per user with consumed vectors: the
    // revoke lists every consumed index, and the round refills each holder's
    // slice with as many vectors as it lost (§4.2.3).
    std::map<Supi, std::vector<ByteArray<16>>> revokes;
    std::map<Supi, std::map<NetworkId, std::size_t>> refills;
    for (const UsageProof& proof : report.proofs) {
      const std::optional<int> slice = process_proof(report.backup_network, proof);
      if (!slice) continue;
      revokes[proof.supi].push_back(proof.hxres_star);
      auto& counts = refills[proof.supi];
      const auto holder = std::ranges::find_if(
          backup_ids_, [&](const NetworkId& backup) { return slice_of(backup) == *slice; });
      if (holder == backup_ids_.end()) continue;  // the holder has left the backup set
      ++counts[*holder];
      ++metrics_.replenishments;
      if (journal_ != nullptr) {
        journal_->append(obs::EventKind::kReplenishment, id_.str(), proof.supi.str(),
                         "holder " + holder->str());
      }
    }
    for (auto& [supi, consumed] : revokes) {
      send_revoke(supi, std::move(consumed));
      send_round(supi, std::move(refills.at(supi)));
    }
    responder.reply({});
  });
}

void HomeNetwork::send_revoke(const Supi& supi, std::vector<ByteArray<16>> hxres_indices) {
  const RevokeSharesRequest revoke{id_, supi, std::move(hxres_indices), {}};
  for (const NetworkId& backup : backup_ids_) push(kBackupRevokeShares, backup, revoke, revoke_tag);
}

std::optional<int> HomeNetwork::process_proof(const NetworkId& reporter,
                                              const UsageProof& proof) {
  auto it = subscribers_.find(proof.supi);
  if (it == subscribers_.end()) {
    note_anomaly("report for unknown subscriber from " + reporter.str());
    return std::nullopt;
  }
  Subscriber& subscriber = it->second;
  ++metrics_.reports_processed;
  if (journal_ != nullptr) {
    journal_->append(obs::EventKind::kReportProcessed, id_.str(), proof.supi.str(),
                     "from " + reporter.str());
  }

  if (!ct_equal(hxres_index(proof.res_star), proof.hxres_star)) {
    note_anomaly("bad preimage in report from " + reporter.str());
    return std::nullopt;
  }

  const ByteArray<16>& index = proof.hxres_star;

  // Cross-check with previously seen proofs for the same vector (§4.2.3).
  if (const auto seen = subscriber.seen_proofs.find(index);
      seen != subscriber.seen_proofs.end()) {
    if (seen->second != proof.serving_network) {
      note_anomaly("conflicting serving networks for vector " + to_hex(index) + ": " +
                   seen->second.str() + " vs " + proof.serving_network.str());
    }
    return std::nullopt;  // already handled (replenished on first report)
  }
  subscriber.seen_proofs[index] = proof.serving_network;

  auto outstanding_it = subscriber.outstanding.find(index);
  if (outstanding_it == subscriber.outstanding.end()) {
    note_anomaly("report for unknown vector " + to_hex(index) + " from " + reporter.str());
    return std::nullopt;
  }
  ++usage_ledger_[proof.serving_network];
  const int holder = outstanding_it->second.holder;
  subscriber.outstanding.erase(outstanding_it);
  return holder;
}

void HomeNetwork::revoke_backup(const NetworkId& revoked, std::function<void()> done) {
  const int revoked_slice = slice_of(revoked);
  if (revoked_slice < 0) {
    if (done) done();
    return;
  }
  ++metrics_.revocations;
  if (journal_ != nullptr) {
    journal_->append(obs::EventKind::kRevocation, id_.str(), revoked.str());
  }
  // A network an earlier set_backups dropped is no longer in the set, but
  // still has its slice, and its vectors are still out.
  if (const auto member = std::ranges::find(backup_ids_, revoked); member != backup_ids_.end()) {
    backup_ids_.erase(member);
  }
  slice_map_.erase(revoked);  // slice retired; never handed to a new backup

  // Collect, per subscriber, every vector the revoked network held.
  for (auto& [supi, subscriber] : subscribers_) {
    std::vector<ByteArray<16>> held;
    std::uint64_t max_sqn = 0;
    for (auto it = subscriber.outstanding.begin(); it != subscriber.outstanding.end();) {
      if (it->second.holder == revoked_slice) {
        held.push_back(it->first);
        max_sqn = std::max(max_sqn, it->second.sqn);
        it = subscriber.outstanding.erase(it);
      } else {
        ++it;
      }
    }

    // Supersede the revoked slice so any still-cached vector is dead once the
    // flood vector (or any later vector in the slice) is consumed (§4.3).
    if (max_sqn > 0) subscriber.sqn.advance_past(revoked_slice, max_sqn);

    // Order every remaining backup to delete the sibling shares.
    if (!held.empty()) send_revoke(supi, std::move(held));

    // Flood vector: a superseding vector in the revoked slice, handed to all
    // remaining backups so the next auth consumes it and invalidates the
    // revoked network's cache.
    if (!backup_ids_.empty() && backup_ids_.size() >= config_.threshold) {
      // One round: backup b's batch is the flood vector and its share of it.
      std::vector<StoreMaterialRequest> requests(backup_ids_.size());
      for (StoreMaterialRequest& request : requests) {
        request.home_network = id_;
        request.batches.emplace_back().supi = supi;
      }
      const std::vector<std::size_t> one_each(requests.size(), 1);
      const VectorLeaf vector = generate_material(subscriber, std::array{revoked_slice},
                                                  /*flood=*/true, requests, one_each)
                                    .front();
      // All remaining backups can serve the flood vector, their leaf 0.
      subscriber.outstanding[vector.hxres_star].holder = slice_of(backup_ids_.front());
      const wire::EncodedSequence<VectorLeaf> flood_leaf({&vector, 1});
      for (StoreMaterialRequest& request : requests) request.batches.front().vectors = flood_leaf;
      push_round(std::move(requests), nullptr);
    }
  }

  // Publish the shrunken backup set.
  directory_.publish_backups(
      directory::make_backups_entry(id_, backup_ids_, signing_key_),
      [done](bool) {
        if (done) done();
      });
}

}  // namespace dauth::core
