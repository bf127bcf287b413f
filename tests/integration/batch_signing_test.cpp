// Round-signed dissemination end to end (§4.2.1): the home signs one
// Merkle root per (user, round) over the roots of its (user, backup)
// batches and tags each backup's push for that backup, each backup checks
// the tag over every batch it is pushed, and a bundle served later carries
// the inclusion path that ties it to the round root, which the serving
// network checks the signature of. A peer that tampers with a bundle, its
// path, its round position or the root signature is refused by the backup
// at store time and by the serving network at attach time.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <type_traits>

#include "../core/batch_layout.h"
#include "aka/sqn.h"
#include "federation_fixture.h"
#include "obs/journal.h"
#include "store/kv_store.h"

namespace dauth::testing {
namespace {

const Supi kAlice("901550000000001");
const Supi kBob("901550000000002");

std::uint64_t batches_verified(Federation& f) {
  std::uint64_t total = 0;
  for (const auto& net : f.nets) total += net->backup().metrics().batches_verified;
  return total;
}

// ---- Counters ----------------------------------------------------------------

TEST(BatchSigning, OneSignaturePerRoundAndOneVerifyPerBackupBatch) {
  Federation f(9);
  const std::vector<std::size_t> backups = {1, 2, 3, 4, 5, 6, 7, 8};
  f.provision(kAlice, 0, backups);

  // 8 backups x (4 own vectors + 8 x 4 shares) bundles, in 8 batches of one
  // round.
  EXPECT_EQ(f.net(0).home().metrics().batches_signed, 1u);
  EXPECT_EQ(batches_verified(f), 8u);
  std::uint64_t stored = 0;
  for (std::size_t b : backups) {
    EXPECT_EQ(f.net(b).backup().metrics().batches_verified, 1u);
    stored += f.net(b).backup().metrics().bundles_stored;
  }
  EXPECT_EQ(stored, 8u * (4 + 8 * 4));
}

TEST(BatchSigning, SecondBackupAttachVerifiesFromTheMemo) {
  Federation f(5);
  const auto keys = f.provision(kAlice, 0, {1, 2, 3});
  f.network.node(f.net(0).node()).set_online(false);
  auto ue = f.make_ue(kAlice, keys, 4);
  const auto& metrics = f.net(4).serving().metrics();
  const auto first = f.attach(*ue);
  ASSERT_TRUE(first.success) << first.failure;
  ASSERT_TRUE(first.key_confirmed);
  const std::uint64_t misses = metrics.signature_cache_misses;
  const std::uint64_t hits = metrics.signature_cache_hits;
  EXPECT_GE(misses, 1u);

  // Every bundle of the user's round verifies against the one signed round
  // payload: after the first attach, the vector and every share are memo
  // hits, whichever backups serve them.
  const auto second = f.attach(*ue);
  ASSERT_TRUE(second.success) << second.failure;
  ASSERT_TRUE(second.key_confirmed);
  EXPECT_EQ(metrics.signature_cache_misses, misses);
  EXPECT_GE(metrics.signature_cache_hits, hits + 1 + f.config.threshold);
}

// ---- Store-time rejection at the backup -------------------------------------

/// The home-signed dissemination round for `supi`, of four batches, that
/// no backup holds yet. Tests send batch 1 (a two-hash round path).
std::vector<core::StoreMaterialRequest> fresh_round(Federation& f, const Supi& supi,
                                                    std::uint8_t tag,
                                                    const crypto::Ed25519KeyPair& signer) {
  std::vector<core::StoreMaterialRequest> round(4);
  for (std::uint8_t b = 0; b < round.size(); ++b) {
    core::StoreMaterialRequest& req = round[b];
    req.home_network = f.net(0).id();
    core::StoreBatch& batch = req.batches.emplace_back();
    batch.supi = supi;
    std::vector<core::VectorLeaf> vectors(3);
    for (std::uint8_t i = 0; i < vectors.size(); ++i) {
      core::VectorLeaf& v = vectors[i];
      v.sqn = 100 + 8 * b + i;
      v.hxres_star[0] = tag;
      v.hxres_star[1] = b;
      v.hxres_star[2] = i;
    }
    std::vector<core::ShareLeaf> shares(5);
    for (std::uint8_t i = 0; i < shares.size(); ++i) {
      core::ShareLeaf& s = shares[i];
      s.hxres_star[0] = tag;
      s.hxres_star[1] = b;
      s.hxres_star[2] = static_cast<std::uint8_t>(16 + i);
      s.x = 1;
      s.y[0] = i;
    }
    lay_out(batch, vectors, shares);
  }
  core::sign_round(round, signer);
  return round;
}

core::StoreMaterialRequest fresh_batch(Federation& f, const Supi& supi, std::uint8_t tag,
                                       const crypto::Ed25519KeyPair& signer) {
  return fresh_round(f, supi, tag, signer)[1];
}

/// Batch 1 of a fresh round, as the home pushes it to nets[backup]: signed
/// by the home, and tagged for that backup.
core::StoreMaterialRequest pushed_batch(Federation& f, const Supi& supi, std::uint8_t tag,
                                        std::size_t backup = 1) {
  core::StoreMaterialRequest push = fresh_batch(f, supi, tag, f.net(0).signing_keys());
  f.tag_push(push, 0, backup);
  return push;
}

/// Every bundle of `batch`, of `home`'s, as a backup serves it, passed to
/// `out`: rebuilt from its leaf, with its inclusion path (in-batch, then
/// round) cut from the tree of the batch's leaves.
template <typename Out>
void each_served(const NetworkId& home, const core::StoreBatch& batch, Out out) {
  const std::vector<crypto::Sha256Digest> leaves = leaf_hashes(home, batch);
  const crypto::MerkleTree tree(leaves);
  const auto serve = [&](const auto& leaf) {
    auto bundle = core::bundle_of(home, batch.supi, leaf);
    const crypto::MerkleGroup group = tree.group(leaf.leaf);
    bundle.batch = core::batch_position(
        tree, leaf.leaf, batch.batch_index, batch.batch_count, batch.round,
        std::span<const crypto::Sha256Digest>(leaves).subspan(group.first, group.size));
    bundle.home_signature = batch.signature;
    out(bundle);
  };
  for (const auto& v : batch.vectors) serve(v);
  for (const auto& s : batch.shares) serve(s);
}

/// Sends a store request to net-2 as the home would; true when accepted.
bool store_at_backup(Federation& f, const core::StoreMaterialRequest& req) {
  std::optional<bool> accepted;
  f.rpc.call(f.net(0).node(), f.net(1).node(), "backup.store", wire::encode(req), {},
             [&](Bytes) { accepted = true; },
             [&](sim::RpcError e) {
               EXPECT_EQ(e.code, sim::RpcErrorCode::kRejected);
               accepted = false;
             });
  f.simulator.run();
  return accepted.value();
}

TEST(BatchSigning, BackupRejectsForgedBatches) {
  // Each attack edits a push the home made for net-2 and tagged; the tag
  // covers every leaf, tree node, position, path and signature, and the
  // recipient.
  Federation f(5);
  f.provision(kAlice, 0, {1, 2, 3});
  const auto& home_keys = f.net(0).signing_keys();
  core::BackupNetwork& backup = f.net(1).backup();

  using Attack = std::function<void(core::StoreBatch&, core::StoreMaterialRequest&)>;
  const std::vector<std::pair<const char*, Attack>> attacks = {
      {"no tag", [](core::StoreBatch&, core::StoreMaterialRequest& r) { r.tag = {}; }},
      {"tag under another pair's key",
       [&](core::StoreBatch&, core::StoreMaterialRequest& r) {
         // net-1's key with net-3, over net-2's push.
         const auto other = crypto::derive_pairwise_key(
             f.net(0).channel_keys().secret, f.net(2).channel_keys().public_key,
             core::kPushKeyLabel, f.net(0).id().str(), f.net(2).id().str());
         r.tag = core::store_tag(other.value(), f.net(1).id(), r);
       }},
      {"the home's push to another backup",
       [&](core::StoreBatch&, core::StoreMaterialRequest& r) { r = pushed_batch(f, kBob, 1, 2); }},
      {"tampered share ordinate",
       [](core::StoreBatch& b, auto&) {
         edit_leaf(b.shares, 1, [](core::ShareLeaf& s) { s.y[0] ^= 1; });
       }},
      {"tampered vector",
       [](core::StoreBatch& b, auto&) {
         edit_leaf(b.vectors, 2, [](core::VectorLeaf& v) { v.autn[0] ^= 1; });
       }},
      {"signature lifted from another user's batch",
       [&](core::StoreBatch& b, auto&) {
         b.signature = fresh_batch(f, kAlice, 2, home_keys).batches[0].signature;
       }},
      {"signature lifted from another backup's batch",
       [&](core::StoreBatch& b, auto&) {
         b.signature = fresh_batch(f, kBob, 3, home_keys).batches[0].signature;
       }},
      {"swapped leaf indices",
       [](core::StoreBatch& b, auto&) {
         const std::uint16_t first = b.shares[0].leaf;
         edit_leaf(b.shares, 0, [&](core::ShareLeaf& s) { s.leaf = b.shares[3].leaf; });
         edit_leaf(b.shares, 3, [&](core::ShareLeaf& s) { s.leaf = first; });
       }},
      {"extra leaf",
       [](core::StoreBatch& b, auto&) {
         std::vector<core::ShareLeaf> shares(b.shares.begin(), b.shares.end());
         shares.push_back(shares.back());
         shares.back().leaf = 8;
         shares.back().hxres_star[15] = 1;  // after every other share
         b.shares = wire::EncodedSequence<core::ShareLeaf, SecretBytes>(shares);
       }},
      {"subtree presented as the batch", [](core::StoreBatch& b, auto&) { b.shares = {}; }},
      {"tree node of another batch",
       [&](core::StoreBatch& b, auto&) {
         b.nodes = fresh_batch(f, kBob, 3, home_keys).batches[0].nodes;
       }},
      {"forged root signature",
       [&](core::StoreBatch&, core::StoreMaterialRequest& r) {
         auto forged = fresh_batch(f, kBob, 1, f.net(3).signing_keys());
         forged.tag = r.tag;
         r = forged;
       }},
      {"swapped batch index", [](core::StoreBatch& b, auto&) { b.batch_index ^= 1; }},
      {"false batch count", [](core::StoreBatch& b, auto&) { b.batch_count = 3; }},
      {"round path from another user's round",
       [&](core::StoreBatch& b, auto&) {
         b.round = fresh_batch(f, kAlice, 1, home_keys).batches[0].round;
       }},
      {"round path one hash short", [](core::StoreBatch& b, auto&) { b.round.pop_back(); }},
      {"round path one hash long", [](core::StoreBatch& b, auto&) { b.round.push_back({}); }},
      {"batch root spliced in from another backup",
       [&](core::StoreBatch& b, auto&) {
         // Claim batch 2's slot of the same round: its position and path.
         b.batch_index = 2;
         b.round = fresh_round(f, kBob, 1, home_keys)[2].batches[0].round;
       }},
      {"round that disagrees with its leaves",
       [](core::StoreBatch& b, auto&) { b.round[1][0] ^= 1; }},
      {"batch moved to another user",
       [](core::StoreBatch& b, auto&) { b.supi = kAlice; }},
  };
  for (const auto& [name, attack] : attacks) {
    core::StoreMaterialRequest req = pushed_batch(f, kBob, 1);
    attack(req.batches[0], req);
    const std::uint64_t verified = backup.metrics().batches_verified;
    EXPECT_FALSE(store_at_backup(f, req)) << name;
    EXPECT_EQ(backup.stored_vectors(f.net(0).id(), kBob), 0u) << name;
    EXPECT_EQ(backup.stored_shares(f.net(0).id(), kBob), 0u) << name;
    EXPECT_EQ(backup.metrics().batches_verified, verified) << name;
  }

  // The untouched push is accepted, its one batch authenticated.
  const std::uint64_t verified = backup.metrics().batches_verified;
  EXPECT_TRUE(store_at_backup(f, pushed_batch(f, kBob, 1)));
  EXPECT_EQ(backup.stored_vectors(f.net(0).id(), kBob), 3u);
  EXPECT_EQ(backup.stored_shares(f.net(0).id(), kBob), 5u);
  EXPECT_EQ(backup.metrics().batches_verified, verified + 1);
}

/// Five networks, net-2 (index 1) keeping its backup state in a store.
core::FederationSpec durable_net2(core::FederationConfig cfg = Federation::test_config()) {
  core::FederationSpec spec = Federation::flat(5, std::move(cfg));
  spec.networks[1].durable = true;
  return spec;
}

TEST(BatchSigning, PushOutOfHeldOrderIsRefused) {
  // A backup holds a pushed batch in the order it was pushed, so a push
  // whose shares are not in strictly increasing H(XRES*) order, or not each
  // numbered once, is refused as malformed before its tag is checked, even
  // when the tag is the home's: nothing of it is held, its SUCI secret
  // neither.
  Federation f(durable_net2());
  const NetworkId& home = f.net(0).id();
  core::BackupNetwork& backup = f.net(1).backup();
  const auto push_to_net2 = [&](const core::StoreMaterialRequest& push) {
    std::optional<sim::CallResult<sim::Ack>> result;
    sim::TypedStub(f.rpc, f.net(0).node(), core::kBackupStore)
        .call(f.net(1).node(), push, sim::RpcOptions::oneshot(),
              [&](sim::CallResult<sim::Ack> r) { result = std::move(r); });
    f.simulator.run();
    return result.value();
  };
  const auto pushed = [&](const std::function<void(core::StoreBatch&)>& edit) {
    core::StoreMaterialRequest push = fresh_batch(f, kBob, 1, f.net(0).signing_keys());
    push.suci_secret = SecretBytes(Bytes(32, 0x42));
    edit(push.batches[0]);
    f.tag_push(push, 0, 1);
    return push;
  };

  const std::vector<std::pair<const char*, std::function<void(core::StoreBatch&)>>> layouts = {
      {"two shares swapped",
       [](core::StoreBatch& b) {
         const core::ShareLeaf first = b.shares[0];
         b.shares.set(0, b.shares[1]);
         b.shares.set(1, first);
       }},
      {"two shares of one H(XRES*)",
       [](core::StoreBatch& b) {
         const ByteArray<16> hxres = b.shares[0].hxres_star;
         edit_leaf(b.shares, 1, [&](core::ShareLeaf& s) { s.hxres_star = hxres; });
       }},
      {"a leaf index repeated",
       [](core::StoreBatch& b) {
         const std::uint16_t leaf = b.shares[0].leaf;
         edit_leaf(b.shares, 1, [&](core::ShareLeaf& s) { s.leaf = leaf; });
       }},
  };
  for (const auto& [name, edit] : layouts) {
    const std::uint64_t rejected = backup.metrics().rejected_requests;
    const auto result = push_to_net2(pushed(edit));
    ASSERT_TRUE(result.app_error().has_value()) << name;
    EXPECT_EQ(result.app_error()->code, sim::AppErrorCode::kMalformed) << name;
    EXPECT_EQ(backup.metrics().rejected_requests, rejected + 1) << name;
    EXPECT_EQ(backup.stored_vectors(home, kBob), 0u) << name;
    EXPECT_EQ(backup.stored_shares(home, kBob), 0u) << name;
    EXPECT_FALSE(f.stores[1]->get("sucikey/" + home.str()).has_value()) << name;
  }

  // The push as the home laid it out is held, its SUCI secret with it.
  EXPECT_TRUE(push_to_net2(pushed([](core::StoreBatch&) {})).ok());
  EXPECT_EQ(backup.stored_vectors(home, kBob), 3u);
  EXPECT_EQ(backup.stored_shares(home, kBob), 5u);
  EXPECT_TRUE(f.stores[1]->get("sucikey/" + home.str()).has_value());
}

// ---- Attach-time rejection at the serving network ---------------------------

/// The path and signature of one bundle, grafted onto another.
template <typename Bundle, typename Donor>
void graft(Bundle& b, const Donor& donor) {
  b.batch = donor.batch;
  b.home_signature = donor.home_signature;
}

/// The round part of a served path, which follows the in-batch part.
std::vector<crypto::Sha256Digest> round_part(const core::BatchPath& p) {
  const auto in_batch = crypto::merkle_path_length(p.leaf_index, p.leaf_count);
  return {p.siblings.begin() + static_cast<std::ptrdiff_t>(in_batch), p.siblings.end()};
}

void set_round_part(core::BatchPath& p, const std::vector<crypto::Sha256Digest>& round) {
  p.siblings.resize(crypto::merkle_path_length(p.leaf_index, p.leaf_count));
  p.siblings.insert(p.siblings.end(), round.begin(), round.end());
}

/// Applies one of the shared attacks to a served bundle.
template <typename Bundle>
using BundleAttack = std::function<void(Bundle&)>;

/// `other_user` is a bundle of another user's round with this bundle's
/// round position; `other_backup` is a bundle of another batch.
template <typename Bundle>
std::vector<std::pair<const char*, BundleAttack<Bundle>>> path_attacks(
    const Bundle& other_user, const Bundle& other_backup, const crypto::Ed25519KeyPair& forger) {
  return {
      {"path lifted from another user's batch", [=](Bundle& b) { graft(b, other_user); }},
      {"path lifted from another backup's batch", [=](Bundle& b) { graft(b, other_backup); }},
      {"wrong index", [](Bundle& b) { b.batch.leaf_index ^= 1; }},
      {"wrong leaf count", [](Bundle& b) { ++b.batch.leaf_count; }},
      {"interior node as leaf",
       [](Bundle& b) {
         b.batch.siblings.erase(b.batch.siblings.begin());
         b.batch.leaf_index /= 2;
       }},
      {"forged root signature",
       [forger](Bundle& b) {
         // The genuine round payload, signed by a key that is not the home's.
         b.home_signature = crypto::ed25519_sign(*b.batch_payload(), forger);
       }},
      {"swapped batch index", [](Bundle& b) { b.batch.batch_index ^= 1; }},
      {"false batch count", [](Bundle& b) { ++b.batch.batch_count; }},
      {"round path from another user's round",
       [=](Bundle& b) { set_round_part(b.batch, round_part(other_user.batch)); }},
      {"round path one hash short", [](Bundle& b) { b.batch.siblings.pop_back(); }},
      {"round path one hash long", [](Bundle& b) { b.batch.siblings.push_back({}); }},
      {"batch root spliced in from another backup",
       [=](Bundle& b) {
         // Claim the other batch's slot of the round: its position and path.
         b.batch.batch_index = other_backup.batch.batch_index;
         set_round_part(b.batch, round_part(other_backup.batch));
       }},
  };
}

/// Pulls the next stored vector for `supi` straight from a backup, as a
/// serving network would receive it.
core::AuthVectorBundle pull_vector(Federation& f, std::size_t backup, const Supi& supi) {
  core::GetVectorRequest req;
  req.serving_network = f.net(4).id();
  req.supi = supi;
  std::optional<core::AuthVectorBundle> bundle;
  f.rpc.call(f.net(4).node(), f.net(backup).node(), "backup.get_vector", wire::encode(req), {},
             [&](Bytes reply) { bundle = wire::decode<core::AuthVectorBundle>(reply); }, nullptr);
  f.simulator.run();
  return bundle.value();
}

TEST(BatchSigning, ServingNetworkRejectsForgedVectors) {
  Federation f(5);
  const auto keys = f.provision(kAlice, 0, {1, 2, 3});
  f.provision(kBob, 0, {1, 2, 3});
  f.network.node(f.net(0).node()).set_online(false);

  const core::AuthVectorBundle vector = pull_vector(f, 1, kAlice);
  ASSERT_FALSE(vector.batch.siblings.empty());
  ASSERT_TRUE(vector.verify(f.net(0).signing_keys().public_key));
  const core::AuthVectorBundle bobs = pull_vector(f, 1, kBob);
  const core::AuthVectorBundle other_backup = pull_vector(f, 2, kAlice);

  // Every backup now serves the same doctored copy of a real vector.
  core::AuthVectorBundle served;
  for (std::size_t b : {1u, 2u, 3u}) {
    f.rpc.register_service(f.net(b).node(), "backup.get_vector",
                           [&](ByteView, sim::Responder r) { r.reply(wire::encode(served)); });
  }
  auto ue = f.make_ue(kAlice, keys, 4);

  auto attacks = path_attacks(bobs, other_backup, f.net(3).signing_keys());
  attacks.insert(attacks.begin(), {"tampered leaf", [](core::AuthVectorBundle& b) {
                                     b.autn[0] ^= 1;
                                   }});
  for (const auto& [name, attack] : attacks) {
    served = vector;
    attack(served);
    const auto record = f.attach(*ue);
    EXPECT_FALSE(record.success) << name;
    EXPECT_NE(record.failure.find("bad home signature"), std::string::npos)
        << name << ": " << record.failure;
  }
  EXPECT_EQ(f.net(4).serving().metrics().ue_rejected, 0u);

  // The undoctored vector still authenticates: only the attacks differed.
  served = vector;
  const auto record = f.attach(*ue);
  EXPECT_TRUE(record.success) << record.failure;
  EXPECT_TRUE(record.key_confirmed);
}

TEST(BatchSigning, ServingNetworkRejectsForgedShares) {
  // Threshold 3 of 3: the attach needs net-2's share, which net-2 now
  // builds itself — a correctly round-signed share (the home's key stands
  // in for a leaked signature) that the attacks then doctor.
  core::FederationConfig cfg = Federation::test_config();
  cfg.threshold = 3;
  cfg.vectors_per_backup = 8;  // one vector per attack, and the control
  Federation f(5, cfg);
  const auto keys = f.provision(kAlice, 0, {1, 2, 3});
  f.network.node(f.net(0).node()).set_online(false);
  const auto& home_keys = f.net(0).signing_keys();

  // Share `index` of a six-share round, of H(XRES*) `hxres`: three batches
  // of two shares.
  const auto make_share = [&](const Supi& supi, const ByteArray<16>& hxres, std::size_t index) {
    std::vector<core::StoreMaterialRequest> round(3);
    for (std::size_t b = 0; b < round.size(); ++b) {
      round[b].home_network = f.net(0).id();
      std::vector<core::ShareLeaf> shares(2);
      for (std::size_t i = 2 * b; i < 2 * b + 2; ++i) {
        core::ShareLeaf& s = shares[i % 2];
        s.hxres_star[0] = static_cast<std::uint8_t>(i);
        if (i == index) s.hxres_star = hxres;
        s.x = 200;
        ByteArray<32> y;
        y.fill(0x5a);
        s.y = y;
      }
      core::StoreBatch& batch = round[b].batches.emplace_back();
      batch.supi = supi;
      lay_out(batch, {}, shares);
    }
    core::sign_round(round, home_keys);
    std::optional<core::KeyShareBundle> share;
    each_served(f.net(0).id(), round[index / 2].batches[0], [&](const auto& bundle) {
      if constexpr (std::is_same_v<std::decay_t<decltype(bundle)>, core::KeyShareBundle>) {
        if (bundle.hxres_star == hxres) share = bundle;
      }
    });
    return share.value();
  };

  BundleAttack<core::KeyShareBundle> attack;
  f.rpc.register_service(f.net(1).node(), "backup.get_share",
                         [&](ByteView request, sim::Responder r) {
                           const auto proof = wire::decode<core::UsageProof>(request);
                           core::ShareReply reply;
                           reply.share = make_share(proof.supi, proof.hxres_star, 2);
                           reply.vectors_left = 1;  // unsigned ranking hint, never checked
                           if (attack) attack(reply.share);
                           r.reply(wire::encode(reply));
                         });
  auto ue = f.make_ue(kAlice, keys, 4);

  const ByteArray<16> any_index = array_from_hex<16>("eeeeeeeeeeeeeeeeeeeeeeeeeeeeeeee");
  auto attacks = path_attacks(make_share(kBob, any_index, 3), make_share(kAlice, any_index, 4),
                              f.net(3).signing_keys());
  attacks.insert(attacks.begin(), {"tampered leaf", [](core::KeyShareBundle& b) {
                                     b.share.y[0] ^= 1;
                                   }});
  for (const auto& [name, share_attack] : attacks) {
    attack = share_attack;
    const auto record = f.attach(*ue);
    EXPECT_FALSE(record.success) << name;
    EXPECT_NE(record.failure.find("insufficient key shares"), std::string::npos)
        << name << ": " << record.failure;
  }

  // Control, the dealer-inconsistency case: the same share undoctored is
  // home-signed but lies off the sharing polynomial (a home dealing
  // inconsistent shares). It passes the signature check and the combine,
  // then fails closed at the UE's key confirmation, because its ordinate
  // yields the wrong K_seaf.
  attack = nullptr;
  const auto record = f.attach(*ue);
  EXPECT_FALSE(record.key_confirmed);
  EXPECT_EQ(record.failure.find("insufficient key shares"), std::string::npos) << record.failure;
}

// ---- Persistence -------------------------------------------------------------

TEST(BatchSigning, RestartedBackupServesVerifiablePaths) {
  Federation f(durable_net2());
  const auto keys = f.provision(kAlice, 0, {1, 2});
  ASSERT_EQ(f.stores[1]->keys_with_prefix("batch/").size(), 1u);

  f.net(1).restart_backup();  // crash; restart over the same store

  const core::AuthVectorBundle vector = pull_vector(f, 1, kAlice);
  EXPECT_FALSE(vector.batch.siblings.empty());
  EXPECT_TRUE(vector.verify(f.net(0).signing_keys().public_key));

  // Threshold 2 of 2: the attach succeeds only if the restarted backup's
  // share verifies at the serving network.
  f.network.node(f.net(0).node()).set_online(false);
  auto ue = f.make_ue(kAlice, keys, 4);
  const auto record = f.attach(*ue);
  EXPECT_TRUE(record.success) << record.failure;
  EXPECT_TRUE(record.key_confirmed);
  EXPECT_EQ(f.net(1).backup().metrics().shares_served, 1u);
}

/// The bundles the home signed for one backup, by H(XRES*), each encoded
/// with the inclusion path a serving network must receive it with.
struct SignedBundles {
  std::map<ByteArray<16>, Bytes> vectors;
  std::map<ByteArray<16>, Bytes> shares;

  void add(const core::StoreMaterialRequest& request) {
    for (const core::StoreBatch& batch : request.batches) {
      each_served(request.home_network, batch, [this](const auto& bundle) {
        if constexpr (std::is_same_v<std::decay_t<decltype(bundle)>, core::AuthVectorBundle>) {
          vectors[bundle.hxres_star] = wire::encode(bundle);
        } else {
          shares[bundle.hxres_star] = wire::encode(bundle);
        }
      });
    }
  }
};

TEST(BatchSigning, ServedBundlesAreTheSignedBytes) {
  // net-2's backup role runs store-backed on a node of its own, behind a
  // relay on net-2's node that records every store request the home sends.
  Federation f(5);
  const NetworkId& home = f.net(0).id();
  store::KvStore durable;
  sim::NodeConfig nc;
  nc.name = "net-2-backup";
  nc.access.base = ms(2);
  nc.workers = 2;
  const sim::NodeIndex backup_node = f.network.add_node(nc);
  const auto start_backup = [&] {
    auto backup = std::make_unique<core::BackupNetwork>(
        f.rpc, backup_node, f.net(1).id(), f.net(1).channel_keys().secret, f.net(1).directory(),
        f.config, &durable);
    backup->bind_services();
    return backup;
  };
  auto backup = start_backup();
  SignedBundles signed_bundles;
  for (const std::string service : {"backup.store", "backup.revoke_shares"}) {
    f.rpc.register_service(
        f.net(1).node(), service, [&, service](ByteView request, sim::Responder r) {
          if (service == "backup.store") {
            signed_bundles.add(wire::decode<core::StoreMaterialRequest>(request));
          }
          f.rpc.call(f.net(1).node(), backup_node, service, to_bytes(request), {},
                     [r](Bytes reply) { r.reply(std::move(reply)); },
                     [r](sim::RpcError e) {
                       r.fail(e.app.value_or(sim::AppError{sim::AppErrorCode::kUpstream,
                                                           e.message}));
                     });
        });
  }
  const auto alice_keys = f.provision(kAlice, 0, {1, 2, 3});
  const auto bob_keys = f.provision(kBob, 0, {1, 2, 3});
  // Revoking net-3 floods each user one round: a vector and its share at
  // each backup left.
  bool revoked = false;
  f.net(0).home().revoke_backup(f.net(2).id(), [&] { revoked = true; });
  f.simulator.run();
  ASSERT_TRUE(revoked);

  // Each vector served, then the share released against a proof of it, must
  // be the signed bundle byte for byte.
  const auto check_vector = [&](const Supi& supi, const char* when) {
    core::GetVectorRequest req;
    req.serving_network = f.net(4).id();
    req.supi = supi;
    std::optional<Bytes> reply;
    f.rpc.call(f.net(4).node(), backup_node, "backup.get_vector", wire::encode(req), {},
               [&](Bytes bytes) { reply = std::move(bytes); }, nullptr);
    f.simulator.run();
    const auto vector = wire::decode<core::AuthVectorBundle>(reply.value());
    const auto it = signed_bundles.vectors.find(vector.hxres_star);
    EXPECT_TRUE(it != signed_bundles.vectors.end() && it->second == *reply)
        << when << ": " << supi.str() << " sqn " << vector.sqn;
    return vector;
  };
  const auto check_share = [&](const core::AuthVectorBundle& vector,
                               const aka::SubscriberKeys& keys, const char* when) {
    core::UsageProof proof;
    proof.serving_network = f.net(4).id();
    proof.supi = vector.supi;
    proof.res_star =
        aka::generate_auth_vector(keys, vector.sqn, vector.rand, f.config.serving_network_name)
            .xres_star;
    proof.hxres_star = core::hxres_index(proof.res_star);
    ASSERT_EQ(proof.hxres_star, vector.hxres_star);
    proof.timestamp = f.simulator.now();
    proof.serving_signature =
        crypto::ed25519_sign(proof.signed_payload(), f.net(4).signing_keys());
    std::optional<core::ShareReply> reply;
    f.rpc.call(f.net(4).node(), backup_node, "backup.get_share", wire::encode(proof), {},
               [&](Bytes bytes) { reply = wire::decode<core::ShareReply>(bytes); }, nullptr);
    f.simulator.run();
    ASSERT_TRUE(reply.has_value()) << when;
    const auto it = signed_bundles.shares.find(vector.hxres_star);
    ASSERT_NE(it, signed_bundles.shares.end()) << when;
    EXPECT_EQ(wire::encode(reply->share), it->second) << when << ": " << vector.supi.str();
  };

  // Before a restart: Alice's flood vector (lone), then a round vector.
  const core::AuthVectorBundle alice_flood = check_vector(kAlice, "live");
  EXPECT_TRUE(alice_flood.flood);
  const core::AuthVectorBundle alice_round = check_vector(kAlice, "live");
  EXPECT_FALSE(alice_round.flood);
  EXPECT_FALSE(alice_round.batch.siblings.empty());
  check_share(alice_flood, alice_keys, "live");
  check_share(alice_round, alice_keys, "live");

  // After a restart from the store: Bob's flood and round vectors, the rest
  // of Alice's, and shares of each.
  backup.reset();
  backup = start_backup();
  const core::AuthVectorBundle bob_flood = check_vector(kBob, "restored");
  EXPECT_TRUE(bob_flood.flood);
  check_share(bob_flood, bob_keys, "restored");
  while (backup->stored_vectors(home, kBob) > 0) {
    check_share(check_vector(kBob, "restored"), bob_keys, "restored");
  }
  check_share(alice_flood, alice_keys, "restored");
  check_share(alice_round, alice_keys, "restored");
  while (backup->stored_vectors(home, kAlice) > 0) {
    check_share(check_vector(kAlice, "restored"), alice_keys, "restored");
  }
}

TEST(BatchSigning, BatchRecordIsErasedWithItsLastBundle) {
  Federation f(durable_net2());
  const store::KvStore& durable = *f.stores[1];
  f.provision(kAlice, 0, {1, 2});
  ASSERT_EQ(durable.keys_with_prefix("batch/").size(), 1u);

  // Revoking net-3 deletes every share of the vectors it held, but net-2
  // still holds its own vectors and their shares: the batch stays.
  bool revoked = false;
  f.net(0).home().revoke_backup(f.net(2).id(), [&] { revoked = true; });
  f.simulator.run();
  ASSERT_TRUE(revoked);
  EXPECT_EQ(durable.keys_with_prefix("batch/").size(), 1u);

  // Draining net-2's own vectors and revoking their shares releases the
  // batch's last bundles, and with them the record.
  for (std::size_t i = 0; i < f.config.vectors_per_backup; ++i) pull_vector(f, 1, kAlice);
  core::RevokeSharesRequest revoke;
  revoke.home_network = f.net(0).id();
  revoke.supi = kAlice;
  for (const core::BatchRecord& record : held_records(durable)) {
    for (const core::ShareLeaf& share : record.shares) {
      revoke.hxres_indices.push_back(share.hxres_star);
    }
  }
  f.tag_revoke(revoke, 0, 1);
  f.rpc.call(f.net(0).node(), f.net(1).node(), "backup.revoke_shares", wire::encode(revoke), {},
             nullptr, nullptr);
  f.simulator.run();
  EXPECT_EQ(f.net(1).backup().stored_shares(f.net(0).id(), kAlice), 0u);
  EXPECT_TRUE(durable.keys_with_prefix("batch/").empty());
}

TEST(BatchSigning, HomeTaggedTreeOfOtherLeavesServesNoBadBundle) {
  // A backup adopts the tree its home pushes without rehashing the leaves.
  // A home that pushes, and tags, nodes that do not hash into one another
  // is refused at store. One whose consistent tree was built over other
  // leaves than it pushes is held: every leaf of a group whose leaves do
  // not rehash into the stored node above them is refused at serve, every
  // bundle served verifies under the home's signature, and the record is
  // dropped at restore.
  Federation f(durable_net2());
  f.provision(kAlice, 0, {1, 2});
  const NetworkId& home = f.net(0).id();
  core::BackupNetwork* backup = &f.net(1).backup();

  // 10 vectors then 14 shares, three groups of eight leaves. Share i's
  // H(XRES*) is that of RES* {i}, so a usage proof can claim it.
  const auto res_of = [](std::size_t i) {
    crypto::ResStar res{};
    res[0] = static_cast<std::uint8_t>(i);
    return res;
  };
  core::StoreMaterialRequest push;
  push.home_network = home;
  core::StoreBatch& batch = push.batches.emplace_back();
  batch.supi = kBob;
  std::vector<core::VectorLeaf> vectors(10);
  for (std::uint8_t i = 0; i < vectors.size(); ++i) {
    vectors[i].sqn = 200 + i;
    vectors[i].hxres_star[0] = 0xee;
    vectors[i].hxres_star[1] = i;
  }
  std::vector<core::ShareLeaf> shares(14);
  for (std::size_t i = 0; i < shares.size(); ++i) {
    shares[i].hxres_star = core::hxres_index(res_of(i));
    shares[i].x = 1;
  }
  lay_out(batch, vectors, shares);  // share i is leaf 10 + i
  core::sign_round({&push, 1}, f.net(0).signing_keys());

  // Nodes that do not hash into one another: refused, nothing held.
  core::StoreMaterialRequest torn = push;
  torn.batches[0].nodes.front().hash[0] ^= 1;
  f.tag_push(torn, 0, 1);
  EXPECT_FALSE(store_at_backup(f, torn));
  EXPECT_EQ(backup->stored_shares(home, kBob), 0u);

  // The signed tree, pushed with vector 0 (group 0) and share 13 (group 2)
  // changed: group 1 still rehashes into it.
  edit_leaf(batch.vectors, 0, [](core::VectorLeaf& v) { v.rand[0] ^= 1; });
  for (std::size_t p = 0; p < batch.shares.size(); ++p) {
    if (batch.shares[p].leaf != 23) continue;
    edit_leaf(batch.shares, p, [](core::ShareLeaf& s) { s.y[0] ^= 1; });
  }
  f.tag_push(push, 0, 1);
  ASSERT_TRUE(store_at_backup(f, push));
  ASSERT_EQ(backup->stored_vectors(home, kBob), 10u);

  const crypto::Ed25519PublicKey& home_key = f.net(0).signing_keys().public_key;
  std::size_t vectors_served = 0;
  std::size_t vectors_refused = 0;
  for (std::size_t i = 0; i < 10; ++i) {
    core::GetVectorRequest req;
    req.serving_network = f.net(4).id();
    req.supi = kBob;
    std::optional<sim::CallResult<core::AuthVectorBundle>> result;
    sim::TypedStub(f.rpc, f.net(4).node(), core::kBackupGetVector)
        .call(f.net(1).node(), req, sim::RpcOptions::oneshot(),
              [&](sim::CallResult<core::AuthVectorBundle> r) { result = std::move(r); });
    f.simulator.run();
    ASSERT_TRUE(result.has_value());
    if (result->ok()) {
      EXPECT_TRUE(result->value().verify(home_key)) << "sqn " << result->value().sqn;
      ++vectors_served;
    } else {
      ASSERT_TRUE(result->app_error().has_value());
      EXPECT_EQ(result->app_error()->code, sim::AppErrorCode::kUpstream);
      ++vectors_refused;
    }
  }
  EXPECT_EQ(vectors_refused, 8u);  // group 0
  EXPECT_EQ(vectors_served, 2u);   // group 1
  EXPECT_EQ(backup->stored_vectors(home, kBob), 0u);

  std::size_t shares_served = 0;
  for (std::size_t i = 0; i < 14; ++i) {
    core::UsageProof proof;
    proof.serving_network = f.net(4).id();
    proof.supi = kBob;
    proof.res_star = res_of(i);
    proof.hxres_star = core::hxres_index(proof.res_star);
    proof.timestamp = f.simulator.now();
    proof.serving_signature =
        crypto::ed25519_sign(proof.signed_payload(), f.net(4).signing_keys());
    std::optional<sim::CallResult<core::ShareReply>> result;
    sim::TypedStub(f.rpc, f.net(4).node(), core::kBackupGetShare)
        .call(f.net(1).node(), proof, sim::RpcOptions::oneshot(),
              [&](sim::CallResult<core::ShareReply> r) { result = std::move(r); });
    f.simulator.run();
    ASSERT_TRUE(result.has_value());
    if (result->ok()) {
      EXPECT_TRUE(result->value().share.verify(home_key)) << "share " << i;
      EXPECT_LT(i, 6u) << "share " << i << " is not of group 1";
      ++shares_served;
    } else {
      ASSERT_TRUE(result->app_error().has_value());
      EXPECT_EQ(result->app_error()->code, sim::AppErrorCode::kUpstream);
    }
  }
  EXPECT_EQ(shares_served, 6u);  // group 1

  // Its leaves do not rebuild the root its record is filed under.
  ASSERT_EQ(f.stores[1]->keys_with_prefix("batch/").size(), 2u);  // Alice's, Bob's
  f.net(1).restart_backup();
  backup = &f.net(1).backup();
  EXPECT_EQ(backup->stored_shares(home, kBob), 0u);
  EXPECT_GT(backup->stored_shares(home, kAlice), 0u);
}

// ---- Replenishment -------------------------------------------------------------

TEST(BatchSigning, ReportRefillsEachUserWithOneRevokeAndOneRound) {
  // Two vectors per backup: six attaches drain every vector Alice holds, so
  // after the report each of her vectors comes from the refill round.
  core::FederationConfig cfg = Federation::test_config();
  cfg.vectors_per_backup = 2;
  // net-2 runs store-backed; it sends the one report and is later restarted.
  Federation f(durable_net2(cfg));
  const NetworkId& home = f.net(0).id();
  obs::EventJournal journal([&f] { return f.simulator.now(); });
  const auto batch_records = [&] {
    const std::vector<std::string> keys = f.stores[1]->keys_with_prefix("batch/");
    return std::set<std::string>(keys.begin(), keys.end());
  };
  f.net(1).backup().set_journal(&journal);
  f.net(2).backup().set_journal(&journal);
  f.net(3).backup().set_journal(&journal);
  const auto alice_keys = f.provision(kAlice, 0, {1, 2, 3});
  ASSERT_EQ(batch_records().size(), 1u);
  const std::string alice_first_round = *batch_records().begin();
  const auto bob_keys = f.provision(kBob, 0, {1, 2, 3});
  std::set<std::string> bob_first_round = batch_records();
  bob_first_round.erase(alice_first_round);
  ASSERT_EQ(bob_first_round.size(), 1u);

  f.network.node(f.net(0).node()).set_online(false);
  auto alice = f.make_ue(kAlice, alice_keys, 4);
  auto bob = f.make_ue(kBob, bob_keys, 4);
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(f.attach(*alice).success) << "alice " << i;
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(f.attach(*bob).success) << "bob " << i;
  ASSERT_EQ(f.net(1).backup().pending_reports(home), 8u);

  const core::HomeMetrics before = f.net(0).home().metrics();
  const std::size_t mark = journal.events().size();
  f.network.node(f.net(0).node()).set_online(true);
  f.net(1).backup().report_now(home);
  f.simulator.run();
  ASSERT_EQ(f.net(1).backup().pending_reports(home), 0u);

  // One round signature per user, and every consumed slot refilled once.
  EXPECT_EQ(f.net(0).home().metrics().batches_signed, before.batches_signed + 2);
  EXPECT_EQ(f.net(0).home().metrics().replenishments, before.replenishments + 8);

  // Each backup received one revoke and one store per user.
  for (std::size_t b : {1u, 2u, 3u}) {
    std::map<std::string, int> revokes;
    int stores = 0;
    for (std::size_t e = mark; e < journal.events().size(); ++e) {
      const obs::Event& event = journal.events()[e];
      if (event.network != f.net(b).id().str()) continue;
      if (event.kind == obs::EventKind::kRevocation) ++revokes[event.subject];
      if (event.kind == obs::EventKind::kBundleStored) ++stores;
    }
    const std::map<std::string, int> one_each = {{kAlice.str(), 1}, {kBob.str(), 1}};
    EXPECT_EQ(revokes, one_each) << "net-" << b + 1;
    EXPECT_EQ(stores, 2) << "net-" << b + 1;
  }
  const auto holds_full_round = [&](const core::BackupNetwork& backup, const char* name) {
    for (const Supi& supi : {kAlice, kBob}) {
      EXPECT_EQ(backup.stored_vectors(home, supi), 2u) << name << " " << supi.str();
      EXPECT_EQ(backup.stored_shares(home, supi), 6u) << name << " " << supi.str();
    }
  };
  holds_full_round(f.net(1).backup(), "net-2");
  holds_full_round(f.net(2).backup(), "net-3");
  holds_full_round(f.net(3).backup(), "net-4");

  // Alice's first round lost its last bundle (vectors served, shares
  // revoked): its record is gone. Bob's first round still holds bundles.
  const std::set<std::string> records = batch_records();
  EXPECT_FALSE(records.contains(alice_first_round));
  EXPECT_TRUE(records.contains(*bob_first_round.begin()));
  EXPECT_EQ(records.size(), 3u);  // Bob's first round, and each user's refill

  // The restarted net-2 restores the refill round's records.
  f.net(1).restart_backup();
  f.net(1).backup().set_journal(&journal);
  holds_full_round(f.net(1).backup(), "restarted net-2");

  // Alice's next backup attach is served from the refill round: its new
  // round signature misses the serving network's memo, then verifies.
  f.network.node(f.net(0).node()).set_online(false);
  const std::uint64_t misses = f.net(4).serving().metrics().signature_cache_misses;
  const auto record = f.attach(*alice);
  ASSERT_TRUE(record.success) << record.failure;
  EXPECT_EQ(record.path, "backup");
  EXPECT_TRUE(record.key_confirmed);
  EXPECT_GT(f.net(4).serving().metrics().signature_cache_misses, misses);

  // Every refilled vector sits in its holder's SQN slice (net-2 holds slice
  // 1) and carries a verifiable path, the restarted backup's included.
  for (std::size_t b : {1u, 2u, 3u}) {
    const core::BackupNetwork& backup = f.net(b).backup();
    while (backup.stored_vectors(home, kAlice) > 0) {
      const core::AuthVectorBundle vector = pull_vector(f, b, kAlice);
      EXPECT_EQ(aka::sqn_slice(vector.sqn), static_cast<int>(b)) << "net-" << b + 1;
      EXPECT_TRUE(vector.verify(f.net(0).signing_keys().public_key)) << "net-" << b + 1;
    }
  }

  // Revoking Alice's shares at net-2 releases the refill round's last
  // bundles, and with them its record; Bob's records stay.
  f.network.node(f.net(0).node()).set_online(true);
  core::RevokeSharesRequest revoke;
  revoke.home_network = home;
  revoke.supi = kAlice;
  for (const core::BatchRecord& held : held_records(*f.stores[1])) {
    if (held.supi != kAlice) continue;
    for (const core::ShareLeaf& share : held.shares) {
      revoke.hxres_indices.push_back(share.hxres_star);
    }
  }
  f.tag_revoke(revoke, 0, 1);
  f.rpc.call(f.net(0).node(), f.net(1).node(), "backup.revoke_shares", wire::encode(revoke), {},
             nullptr, nullptr);
  f.simulator.run();
  EXPECT_EQ(f.net(1).backup().stored_shares(home, kAlice), 0u);
  const std::set<std::string> left = batch_records();
  EXPECT_EQ(left.size(), 2u);
  EXPECT_TRUE(left.contains(*bob_first_round.begin()));
}


// ---- Byte identity -------------------------------------------------------------

TEST(BatchSigning, DisseminatedBytesArePinned) {
  // Every backup.store payload the home sends in a fixed-seed federation of
  // two users over four backups: the first rounds, the refill rounds of one
  // report per backup, and the flood rounds of a revocation. Each
  // backup role runs on a node of its own behind a relay on its network's
  // node, which hashes each store request with its destination. The digest
  // changes with any disseminated byte (a vector, a share, a signature, a
  // path or the framing), so a faster encoder, hash or DRBG must leave it as
  // it is.
  Federation f(6);
  const std::vector<std::size_t> backups = {1, 2, 3, 4};
  std::vector<crypto::Sha256Digest> sent;
  std::vector<std::unique_ptr<core::BackupNetwork>> roles;
  for (std::size_t b : backups) {
    sim::NodeConfig nc;
    nc.name = f.net(b).id().str() + "-backup";
    nc.access.base = ms(2);
    nc.workers = 2;
    const sim::NodeIndex role_node = f.network.add_node(nc);
    roles.push_back(std::make_unique<core::BackupNetwork>(
        f.rpc, role_node, f.net(b).id(), f.net(b).channel_keys().secret, f.net(b).directory(),
        f.config));
    roles.back()->bind_services();
    for (const std::string service :
         {"backup.store", "backup.get_vector", "backup.get_share", "backup.revoke_shares"}) {
      f.rpc.register_service(
          f.net(b).node(), service, [&, b, service, role_node](ByteView request, sim::Responder r) {
            if (service == "backup.store") {
              crypto::Sha256 h;
              h.update(as_bytes(f.net(b).id().str()));
              h.update(request);
              sent.push_back(h.finish());
            }
            f.rpc.call(f.net(b).node(), role_node, service, to_bytes(request), {},
                       [r](Bytes reply) { r.reply(std::move(reply)); },
                       [r](sim::RpcError e) {
                       r.fail(e.app.value_or(sim::AppError{sim::AppErrorCode::kUpstream,
                                                           e.message}));
                     });
          });
    }
  }
  const auto alice_keys = f.provision(kAlice, 0, backups);
  const auto bob_keys = f.provision(kBob, 0, backups);

  f.network.node(f.net(0).node()).set_online(false);
  auto alice = f.make_ue(kAlice, alice_keys, 5);
  auto bob = f.make_ue(kBob, bob_keys, 5);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(f.attach(*alice).success) << "alice " << i;
  ASSERT_TRUE(f.attach(*bob).success);
  f.network.node(f.net(0).node()).set_online(true);
  for (auto& role : roles) role->report_now(f.net(0).id());
  f.simulator.run();
  bool revoked = false;
  f.net(0).home().revoke_backup(f.net(4).id(), [&] { revoked = true; });
  f.simulator.run();
  ASSERT_TRUE(revoked);

  // Two first rounds and at least one refill round to each of four backups,
  // then the flood rounds to the three left.
  EXPECT_GE(sent.size(), 2u * 4 + 4 + 3);
  std::sort(sent.begin(), sent.end());
  crypto::Sha256 all;
  for (const auto& digest : sent) all.update(digest);
  EXPECT_EQ(to_hex(all.finish()), "6e95e038203655c2d9ab5aebb198c5f96941475858c6a05012f09283fbd29f86")
      << sent.size() << " store requests";
}

}  // namespace
}  // namespace dauth::testing
