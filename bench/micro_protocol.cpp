// Microbenchmarks for dAuth protocol operations: bundle generation, message
// (de)serialization, signing/verification of bundles and dissemination
// rounds, SUCI concealment, full vector-generation as a home network
// performs it, and a backup holding a pushed batch or serving a vector or
// a key share from one.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <numeric>
#include <optional>

#include "micro_main.h"

#include "aka/auth_vector.h"
#include "aka/sim_card.h"
#include "aka/suci.h"
#include "core/federation_spec.h"
#include "core/home_network.h"
#include "core/messages.h"
#include "crypto/drbg.h"
#include "crypto/pairwise.h"
#include "crypto/verify_cache.h"

namespace dauth::core {
namespace {

aka::SubscriberKeys bench_keys() {
  crypto::DeterministicDrbg rng("proto-bench", 1);
  aka::SubscriberKeys keys;
  keys.k = rng.array<16>();
  keys.opc = crypto::derive_opc(keys.k, rng.array<16>());
  return keys;
}

const std::string kSnn = crypto::serving_network_name("315", "010");

void BM_GenerateAuthVector(benchmark::State& state) {
  crypto::DeterministicDrbg rng("proto-bench", 2);
  const auto keys = bench_keys();
  std::uint64_t sqn = 32;
  for (auto _ : state) {
    benchmark::DoNotOptimize(aka::generate_auth_vector(keys, sqn, rng.array<16>(), kSnn));
    sqn += 32;
  }
}
BENCHMARK(BM_GenerateAuthVector);

void BM_UsimAuthenticate(benchmark::State& state) {
  crypto::DeterministicDrbg rng("proto-bench", 3);
  const auto keys = bench_keys();
  aka::Usim usim(Supi("315010000000001"), keys);
  std::uint64_t sqn = 32;
  for (auto _ : state) {
    const auto v = aka::generate_auth_vector(keys, sqn, rng.array<16>(), kSnn);
    sqn += 32;
    benchmark::DoNotOptimize(usim.authenticate(v.rand, v.autn, kSnn));
  }
}
BENCHMARK(BM_UsimAuthenticate);

AuthVectorBundle make_bundle(crypto::DeterministicDrbg& rng,
                             const crypto::Ed25519KeyPair& signer) {
  const auto keys = bench_keys();
  const auto v = aka::generate_auth_vector(keys, 32, rng.array<16>(), kSnn);
  AuthVectorBundle b;
  b.home_network = NetworkId("home-net");
  b.supi = Supi("315010000000001");
  b.sqn = v.sqn;
  b.rand = v.rand;
  b.autn = v.autn;
  b.hxres_star = hxres_index(v.xres_star);
  sign_single(b, signer);
  return b;
}

void BM_BundleEncodeDecode(benchmark::State& state) {
  crypto::DeterministicDrbg rng("proto-bench", 4);
  const auto signer = crypto::ed25519_generate(rng);
  const auto bundle = make_bundle(rng, signer);
  for (auto _ : state) {
    benchmark::DoNotOptimize(wire::decode<AuthVectorBundle>(wire::encode(bundle)));
  }
}
BENCHMARK(BM_BundleEncodeDecode);

void BM_BundleSign(benchmark::State& state) {
  crypto::DeterministicDrbg rng("proto-bench", 5);
  const auto signer = crypto::ed25519_generate(rng);
  auto bundle = make_bundle(rng, signer);
  for (auto _ : state) {
    sign_single(bundle, signer);  // a one-leaf batch: leaf hash + one signature
    benchmark::DoNotOptimize(bundle.home_signature);
  }
}
BENCHMARK(BM_BundleSign);

void BM_BundleVerify(benchmark::State& state) {
  crypto::DeterministicDrbg rng("proto-bench", 6);
  const auto signer = crypto::ed25519_generate(rng);
  const auto bundle = make_bundle(rng, signer);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bundle.verify(signer.public_key));
  }
}
BENCHMARK(BM_BundleVerify);

void BM_SuciConceal(benchmark::State& state) {
  crypto::DeterministicDrbg rng("proto-bench", 7);
  const auto home = crypto::x25519_generate(rng);
  const Supi supi("315010000000001");
  for (auto _ : state) {
    benchmark::DoNotOptimize(aka::conceal_supi(supi, home.public_key, rng));
  }
}
BENCHMARK(BM_SuciConceal);

void BM_SuciDeconceal(benchmark::State& state) {
  crypto::DeterministicDrbg rng("proto-bench", 8);
  const auto home = crypto::x25519_generate(rng);
  const auto suci = aka::conceal_supi(Supi("315010000000001"), home.public_key, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(aka::deconceal_suci(suci, home.secret));
  }
}
BENCHMARK(BM_SuciDeconceal);

/// One round's randomness as HomeNetwork::generate_material draws it: two
/// requests, every RAND and then every vector's threshold - 1 coefficient
/// rows of K_seaf.
struct RoundDraws {
  Bytes rands;
  SecretBytes coefficients;
  std::size_t rows = 0;  // bytes of one vector's rows

  RoundDraws(crypto::DeterministicDrbg& rng, std::size_t vectors, std::size_t threshold)
      : rands(rng.bytes(vectors * sizeof(crypto::Rand))),
        coefficients(vectors * (threshold - 1) * sizeof(crypto::Key256)),
        rows((threshold - 1) * sizeof(crypto::Key256)) {
    rng.fill(coefficients.mutable_view());
  }
  crypto::Rand rand(std::size_t v) const {
    return take<16>(ByteView(rands).subspan(v * sizeof(crypto::Rand)));
  }
  ByteView rows_of(std::size_t v) const { return ByteView(coefficients).subspan(v * rows, rows); }
};

/// The home-side dissemination work for ONE vector with N backups, 4 of
/// them the threshold: its share of the round's two draws (a round of 16
/// vectors per backup, as fedbench's backup_steady), vector generation,
/// the Shamir split into the share leaves and the N+1 batch leaf hashes.
/// The round signature is paid once per (user, round) (BM_SignRound).
void BM_DisseminateOneVector(benchmark::State& state) {
  constexpr std::size_t kThreshold = 4;
  crypto::DeterministicDrbg rng("proto-bench", 9);
  const auto keys = bench_keys();
  const auto n_backups = static_cast<std::size_t>(state.range(0));
  const std::size_t round_vectors = 16 * n_backups;
  const NetworkId home("home-net");
  const Supi supi("315010000000001");
  std::vector<ShareLeaf> shares(n_backups);
  std::vector<MutableByteView> ordinates;
  for (ShareLeaf& share : shares) ordinates.push_back(share.y.mutable_view());
  std::optional<RoundDraws> round;
  std::size_t next = round_vectors;
  std::uint64_t sqn = 32;
  for (auto _ : state) {
    if (next == round_vectors) {
      round.emplace(rng, round_vectors, kThreshold);
      next = 0;
    }
    VectorLeaf vector{0, sqn, round->rand(next), {}, {}, false};
    const auto v = aka::generate_auth_vector(keys, sqn, vector.rand, kSnn);
    sqn += 32;
    vector.autn = v.autn;
    vector.hxres_star = hxres_index(v.xres_star);
    benchmark::DoNotOptimize(leaf_hash(home, supi, vector));

    crypto::shamir_split(ByteView(v.k_seaf), kThreshold, round->rows_of(next++), ordinates);
    for (std::size_t s = 0; s < n_backups; ++s) {
      shares[s].hxres_star = vector.hxres_star;
      shares[s].x = static_cast<std::uint8_t>(s + 1);
      benchmark::DoNotOptimize(leaf_hash(home, supi, shares[s]));
    }
  }
}
BENCHMARK(BM_DisseminateOneVector)->Arg(4)->Arg(8)->Arg(16);

/// One user's dissemination round as fedbench's backup_steady generates it,
/// up to signing: 16 vectors in each of `backups` slices, 4 of them the
/// threshold; the round's two draws, then per vector Milenage and the 3GPP
/// KDFs and its H(XRES*) index, then the round put in H(XRES*) order and
/// each K_seaf split into its element of every backup's share sequence, as
/// HomeNetwork::generate_material does.
void BM_GenerateRound(benchmark::State& state) {
  constexpr std::size_t kThreshold = 4;
  constexpr std::size_t kVectorsPerBackup = 16;
  constexpr std::size_t kKey = sizeof(crypto::Key256);
  crypto::DeterministicDrbg rng("proto-bench", 14);
  const auto keys = bench_keys();
  const auto n_backups = static_cast<std::size_t>(state.range(0));
  const std::size_t n_vectors = kVectorsPerBackup * n_backups;
  std::vector<wire::EncodedSequence<ShareLeaf, SecretBytes>> batches(n_backups);
  std::vector<MutableByteView> ordinates(n_backups);
  std::uint64_t sqn = 32;
  for (auto _ : state) {
    const RoundDraws round(rng, n_vectors, kThreshold);
    std::vector<VectorLeaf> vectors(n_vectors);
    SecretBytes k_seafs(n_vectors * kKey);
    for (std::size_t i = 0; i < n_vectors; ++i) {
      VectorLeaf& vector = vectors[i];
      vector = {0, sqn, round.rand(i), {}, {}, false};
      const auto v = aka::generate_auth_vector(keys, sqn, vector.rand, kSnn);
      sqn += 32;
      vector.autn = v.autn;
      vector.hxres_star = hxres_index(v.xres_star);
      std::ranges::copy(ByteView(v.k_seaf), k_seafs.begin() + i * kKey);
    }
    std::vector<std::size_t> order(n_vectors);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::ranges::sort(order, [&](std::size_t a, std::size_t b) {
      return vectors[a].hxres_star < vectors[b].hxres_star;
    });
    for (auto& shares : batches) {
      shares = wire::EncodedSequence<ShareLeaf, SecretBytes>::zeroed(n_vectors);
    }
    for (std::size_t p = 0; p < n_vectors; ++p) {
      const std::size_t i = order[p];
      for (std::size_t b = 0; b < n_backups; ++b) {
        const ShareIndex share{static_cast<std::uint16_t>(kVectorsPerBackup + i),
                               vectors[i].hxres_star, static_cast<std::uint8_t>(b + 1)};
        ordinates[b] = batches[b].write_prefix(p, share);
      }
      crypto::shamir_split(ByteView(k_seafs).subspan(i * kKey, kKey), kThreshold,
                           round.rows_of(i), ordinates);
    }
    benchmark::DoNotOptimize(batches.front());
  }
}
BENCHMARK(BM_GenerateRound)->Arg(8);

/// One user's unsigned dissemination round as fedbench's backup_steady
/// builds it: `batches` backups, each batch `vectors` vectors plus one share
/// of each of the round's `vectors` x `batches` vectors (144 leaves for 8
/// backups and 16 vectors), laid out as the home pushes them (StoreBatch).
std::vector<StoreMaterialRequest> unsigned_round(std::size_t batches, std::uint64_t vectors = 16,
                                                 const NetworkId& home = NetworkId("home-net"),
                                                 const Supi& supi = Supi("315010000000001")) {
  crypto::DeterministicDrbg rng("proto-bench", 10);
  std::vector<StoreMaterialRequest> round(batches);
  for (StoreMaterialRequest& request : round) {
    request.home_network = home;
    StoreBatch& batch = request.batches.emplace_back();
    batch.supi = supi;
    std::vector<VectorLeaf> held(vectors);
    for (std::uint64_t v = 0; v < vectors; ++v) {
      held[v] = {static_cast<std::uint16_t>(v), 32 * v, rng.array<16>(), rng.array<16>(),
                 rng.array<16>(), false};
    }
    batch.vectors = wire::EncodedSequence<VectorLeaf>(held);
    std::vector<ShareLeaf> shares(vectors * batches);
    for (ShareLeaf& share : shares) {
      share.hxres_star = rng.array<16>();
      share.x = 1;
      share.y = rng.array<32>();
    }
    std::ranges::sort(shares, {}, &ShareLeaf::hxres_star);
    for (std::size_t s = 0; s < shares.size(); ++s) {
      shares[s].leaf = static_cast<std::uint16_t>(vectors + s);
    }
    batch.shares = wire::EncodedSequence<ShareLeaf, SecretBytes>(shares);
  }
  return round;
}

/// The home's signing work for one user's round: every leaf hash, the
/// batch trees, the round tree and ONE signature.
void BM_SignRound(benchmark::State& state) {
  crypto::DeterministicDrbg rng("proto-bench", 11);
  const auto signer = crypto::ed25519_generate(rng);
  auto round = unsigned_round(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    sign_round(round, signer);
    benchmark::DoNotOptimize(round.front().batches.front().signature);
  }
}
BENCHMARK(BM_SignRound)->Arg(8);

/// One signed request of an 8-batch round (16 vectors and 128 shares) as
/// the home frames it and the backup parses it.
StoreMaterialRequest signed_request(std::size_t batches) {
  crypto::DeterministicDrbg rng("proto-bench", 13);
  const auto signer = crypto::ed25519_generate(rng);
  auto round = unsigned_round(batches);
  sign_round(round, signer);
  return std::move(round[3]);
}

void BM_StoreRequestCodec(benchmark::State& state) {
  const StoreMaterialRequest request = signed_request(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(wire::decode<StoreMaterialRequest>(wire::encode(request)));
  }
}
BENCHMARK(BM_StoreRequestCodec)->Arg(8);

/// The backup's store-time work for one push of an 8-batch round, but for
/// holding it: decode the frame, check its layout, its tag and build the
/// batch's tree from the pushed nodes. No leaf is hashed.
void BM_StorePush(benchmark::State& state) {
  const crypto::HmacSha256 push_key(ByteView(crypto::sha256(as_bytes("proto-bench push key"))));
  const NetworkId backup("backup-net");
  StoreMaterialRequest request = signed_request(static_cast<std::size_t>(state.range(0)));
  request.suci_secret = Bytes(32, 0x55);
  request.tag = store_tag(push_key, backup, request);
  const Bytes frame = wire::encode(request);
  for (auto _ : state) {
    const auto push = wire::decode<StoreMaterialRequest>(frame);
    bool ok = well_formed(push) && ct_equal(store_tag(push_key, backup, push), push.tag);
    for (const StoreBatch& batch : push.batches) ok = ok && batch_tree(batch).has_value();
    if (!ok) state.SkipWithError("push refused");
  }
}
BENCHMARK(BM_StorePush)->Arg(8);

/// The serving network's check of a served vector from an 8 x 144-leaf
/// round (8 in-batch plus 3 round siblings): the path recompute, then the
/// verification memo, empty (`miss`, a full verify) or holding the round
/// (`hit`, every check after a user's first attach).
void BM_CheckServedBundle(benchmark::State& state, bool hit) {
  crypto::DeterministicDrbg rng("proto-bench", 12);
  const auto signer = crypto::ed25519_generate(rng);
  auto round = unsigned_round(8);
  sign_round(round, signer);
  const StoreMaterialRequest& push = round[3];
  const StoreBatch& batch = push.batches[0];
  std::vector<crypto::Sha256Digest> leaves;  // in leaf order, as unsigned_round numbers them
  for (const auto& v : batch.vectors) leaves.push_back(leaf_hash(push.home_network, batch.supi, v));
  for (const auto& s : batch.shares) leaves.push_back(leaf_hash(push.home_network, batch.supi, s));
  AuthVectorBundle served = bundle_of(push.home_network, batch.supi, batch.vectors[5]);
  const crypto::MerkleTree tree(leaves);
  const crypto::MerkleGroup group = tree.group(5);
  served.batch = batch_position(tree, 5, batch.batch_index, batch.batch_count, batch.round,
                                std::span(leaves).subspan(group.first, group.size));
  served.home_signature = batch.signature;

  crypto::VerifyCache cache(hit ? crypto::VerifyCache::kDefaultEntries : 0);
  if (hit) cache.verify(*served.batch_payload(), served.home_signature, signer.public_key);
  for (auto _ : state) {
    const auto payload = served.batch_payload();
    benchmark::DoNotOptimize(cache.verify(*payload, served.home_signature, signer.public_key));
  }
}
BENCHMARK_CAPTURE(BM_CheckServedBundle, miss, false);
BENCHMARK_CAPTURE(BM_CheckServedBundle, hit, true);

/// backup_steady's backup layer at two thirds of its users: net-1 homes 64
/// users and disseminates to net-2..net-9, 16 vectors each, so every backup
/// holds one 144-leaf batch per user (16 vectors and a share of each of the
/// round's 128). No store, and no report timer. net-10 serves.
class HeldBatches {
 public:
  static constexpr std::size_t kBackups = 8;
  static constexpr std::size_t kUsers = 64;
  static constexpr std::size_t kVectors = 16;  // per backup and user

  HeldBatches() {
    FederationSpec spec;
    spec.config.report_interval = 0;
    spec.config.vectors_per_backup = kVectors;
    spec.config.threshold = 4;
    spec.topology = [](sim::Network& network, FederationSpec&) {
      sim::NodeConfig node;
      node.access.base = ms(2);
      node.workers = 2;
      for (std::size_t i = 0; i <= kBackups + 2; ++i) {
        node.name = i == 0 ? "directory" : "net-" + std::to_string(i);
        network.add_node(node);
      }
      node.name = "ran";
      network.add_node(node);
    };
    HomeSpec home{NetworkId("net-1"), {}, {}};
    for (std::size_t i = 1; i <= kBackups + 2; ++i) {
      const NetworkId id("net-" + std::to_string(i));
      spec.networks.push_back({id, id.str(), 100 + i});
      if (i >= 2 && i <= kBackups + 1) home.backups.push_back(id);
    }
    for (std::size_t u = 0; u < kUsers; ++u) {
      home.subscribers.emplace_back("31501000000" + std::to_string(1000 + u));
    }
    spec.homes.push_back(home);
    world_ = build(std::move(spec));
    world_->simulator.run();
  }

  FederationWorld& world() { return *world_; }
  const std::vector<Supi>& users() const { return world_->spec.homes[0].subscribers; }

  /// Calls net-2's registered handler for `service` with `request`, straight,
  /// with no network hop, and runs what it queues; returns the reply.
  Bytes call(const char* service, ByteView request) {
    sim::Rpc& rpc = world_->rpc;
    const sim::NodeIndex backup = world_->net(1).node();
    // Registering a handler hands back the one it replaces: net-2's own.
    sim::ServiceHandler& handler = handlers_[service];
    if (!handler) {
      handler = rpc.register_service(backup, service, {});
      rpc.register_service(backup, service, handler);
    }
    Bytes reply;
    handler(request, sim::Responder(std::make_shared<sim::Responder::ReplyFn>(
                         [&reply](Bytes bytes, std::optional<sim::AppError> error) {
                           if (error) throw std::runtime_error(error->detail);
                           reply = std::move(bytes);
                         })));
    world_->simulator.run();
    return reply;
  }

 private:
  std::unique_ptr<FederationWorld> world_;
  std::map<std::string, sim::ServiceHandler> handlers_;
};

/// One backup.get_vector request, handled: the held batch that serves the
/// user's next vector, the bundle rebuilt with its path, and the vector
/// released from the batch. Each iteration serves another user's next
/// vector, so the run serves every vector net-2 holds.
void BM_BackupServeVector(benchmark::State& state) {
  HeldBatches held;
  std::vector<Bytes> requests;
  for (const Supi& supi : held.users()) {
    GetVectorRequest request;
    request.serving_network = NetworkId("net-10");
    request.supi = supi;
    requests.push_back(wire::encode(request));
  }
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(held.call("backup.get_vector", requests[next++ % requests.size()]));
  }
}
BENCHMARK(BM_BackupServeVector)
    ->Arg(144)
    ->Iterations(HeldBatches::kUsers * HeldBatches::kVectors);

/// One backup.get_share request, handled: the serving network's proof
/// verified, the share found in its held batch and rebuilt with its path,
/// and the proof pended. The run cycles through proofs of the round's 128
/// vectors of one user, so after the first pass each proof is one already
/// pending, as a retried leg's is.
void BM_BackupServeShare(benchmark::State& state) {
  HeldBatches held;
  FederationWorld& world = held.world();
  const Supi& supi = held.users().front();
  std::vector<Bytes> proofs;
  for (std::size_t b = 2; b <= HeldBatches::kBackups + 1; ++b) {
    for (std::size_t v = 0; v < HeldBatches::kVectors; ++v) {
      GetVectorRequest request;
      request.serving_network = NetworkId("net-10");
      request.supi = supi;
      std::optional<AuthVectorBundle> vector;
      sim::TypedStub(world.rpc, world.net(9).node(), kBackupGetVector)
          .call(world.net(b - 1).node(), request, sim::RpcOptions::oneshot(),
                [&](sim::CallResult<AuthVectorBundle> r) {
                  if (r.ok()) vector = r.value();
                });
      world.simulator.run();
      UsageProof proof;
      proof.serving_network = request.serving_network;
      proof.supi = supi;
      proof.res_star = aka::generate_auth_vector(world.keys.at(supi), vector.value().sqn,
                                                 vector->rand, world.config.serving_network_name)
                           .xres_star;
      proof.hxres_star = hxres_index(proof.res_star);
      proof.timestamp = world.simulator.now();
      proof.serving_signature =
          crypto::ed25519_sign(proof.signed_payload(), world.net(9).signing_keys());
      proofs.push_back(wire::encode(proof));
    }
  }
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(held.call("backup.get_share", proofs[next++ % proofs.size()]));
  }
}
BENCHMARK(BM_BackupServeShare)->Arg(144);

/// One backup.store push, handled: net-2, which has no store and has its
/// home's entry and push key cached already, checks the push's layout and
/// tag, builds the batch's tree from the pushed nodes, and holds the
/// batch. The batch has `leaves` leaves, as net-2's batch of an
/// 8-backup round: a ninth of them vectors, the rest shares (36 for 4
/// vectors per backup, 144 for 16). Each iteration pushes another user's.
void BM_BackupStore(benchmark::State& state) {
  HeldBatches held;
  FederationWorld& world = held.world();
  const DauthNode& home = world.net(0);
  const DauthNode& backup = world.net(1);
  const auto push_key =
      crypto::derive_pairwise_key(home.channel_keys().secret, backup.channel_keys().public_key,
                                  kPushKeyLabel, home.id().str(), backup.id().str());
  const std::uint64_t vectors = static_cast<std::uint64_t>(state.range(0)) / 9;
  std::vector<Bytes> pushes;
  for (std::int64_t p = 0; p < state.max_iterations; ++p) {
    auto round = unsigned_round(HeldBatches::kBackups, vectors, home.id(),
                                Supi("31502000000" + std::to_string(1000 + p)));
    sign_round(round, home.signing_keys());
    StoreMaterialRequest& push = round[1];
    push.suci_secret = to_bytes(ByteView(home.suci_keys().secret));
    push.tag = store_tag(push_key.value(), backup.id(), push);
    pushes.push_back(wire::encode(push));
  }
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(held.call("backup.store", pushes[next++]));
  }
}
BENCHMARK(BM_BackupStore)->Arg(36)->Arg(144)->Iterations(512);

/// One user's dissemination round at backup_steady's size, from the home's
/// generation to eight backups' held batches: HomeNetwork::disseminate
/// generates 16 vectors for each of eight backups (threshold 4), signs the
/// round and tags each backup's push, and each backup checks and holds its
/// 144-leaf batch. No store; the simulated links carry the eight pushes at
/// the cost of their events. Each iteration disseminates to a new user.
void BM_RoundToHeld(benchmark::State& state) {
  HeldBatches held;
  FederationWorld& world = held.world();
  HomeNetwork& home = world.net(0).home();
  const aka::SubscriberKeys keys = world.keys.at(held.users().front());
  std::size_t next = 0;
  for (auto _ : state) {
    const Supi supi("31503000000" + std::to_string(1000 + next++));
    home.provision_subscriber(supi, keys);
    std::size_t stored = 0;
    home.disseminate(supi, [&stored](std::size_t ok) { stored = ok; });
    world.simulator.run();
    if (stored != HeldBatches::kBackups) state.SkipWithError("round not held");
  }
}
BENCHMARK(BM_RoundToHeld)->Arg(8)->Iterations(128);

}  // namespace
}  // namespace dauth::core

int main(int argc, char** argv) {
  // ns/op at a01a363, before hardware AES, the keyed HMAC and bundles
  // hashed and framed in place (docs/PERFORMANCE.md §14).
  const std::map<std::string, double> baselines = {
      {"BM_GenerateAuthVector", 6313.0},
      {"BM_UsimAuthenticate", 13576.0},
      {"BM_BundleEncodeDecode", 425.0},
      {"BM_DisseminateOneVector/8", 18331.0},
      // ns/op at 3df207f (median of five), timed in a scratch copy where
      // the home drew four DRBG requests per vector (docs/PERFORMANCE.md
      // §25).
      {"BM_GenerateRound/8", 539702.0},
      {"BM_CheckServedBundle/hit", 3645.0},
      // ns/op at a2ce131, while a held batch kept decoded leaf arrays
      // beside its record (docs/PERFORMANCE.md §21).
      {"BM_BackupServeVector/144/iterations:1024", 2139.0},
      {"BM_BackupServeShare/144", 32248.0},
      // ns/op at eb4e433 (median of three or five runs alternating with
      // this tree's), where a push's leaves were decoded into structs, and a
      // backup sorted them and encoded its record anew (docs/PERFORMANCE.md
      // §26).
      {"BM_StoreRequestCodec/8", 10295.0},
      {"BM_StorePush/8", 20028.0},
      {"BM_BackupStore/36/iterations:512", 11585.0},
      {"BM_BackupStore/144/iterations:512", 39208.0},
      // ns/op at b966b53 (median of seven runs alternating with this
      // tree's), where every leaf and tree node was hashed one message at
      // a time (docs/PERFORMANCE.md §27).
      {"BM_SignRound/8", 357388.0},
  };
  return dauth::bench::run_micro_benchmarks(argc, argv, "micro_protocol", baselines);
}
