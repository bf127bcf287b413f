// Decode robustness ("fuzz-lite"): every protocol message decoder, the NAS
// frames' included, must reject truncations and random mutations of valid
// frames with WireError —
// never crash, never loop, never accept trailing garbage silently.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "aka/nas.h"
#include "batch_layout.h"
#include "aka/suci.h"
#include "baseline/standalone_core.h"
#include "common/rng.h"
#include "core/backup_network.h"
#include "core/home_network.h"
#include "core/messages.h"
#include "crypto/drbg.h"
#include "directory/directory.h"
#include "wire/reader.h"
#include "wire/writer.h"

namespace dauth::core {
namespace {

using testing::lay_out;

crypto::Ed25519KeyPair signer() {
  crypto::DeterministicDrbg rng("fuzz", 1);
  return crypto::ed25519_generate(rng);
}

Bytes valid_vector_bundle() {
  AuthVectorBundle b;
  b.home_network = NetworkId("home");
  b.supi = Supi("315010000000001");
  b.sqn = 1234;
  b.rand = array_from_hex<16>("00112233445566778899aabbccddeeff");
  b.autn = array_from_hex<16>("ffeeddccbbaa99887766554433221100");
  b.hxres_star = array_from_hex<16>("000102030405060708090a0b0c0d0e0f");
  sign_single(b, signer());
  return wire::encode(b);
}

/// A three-batch round of vectors: batch b holds five leaves.
std::vector<StoreMaterialRequest> signed_round() {
  const AuthVectorBundle base = wire::decode<AuthVectorBundle>(valid_vector_bundle());
  std::vector<StoreMaterialRequest> round(3);
  for (std::size_t b = 0; b < round.size(); ++b) {
    round[b].home_network = base.home_network;
    StoreBatch& batch = round[b].batches.emplace_back();
    batch.supi = base.supi;
    std::vector<VectorLeaf> vectors;
    for (std::size_t i = 0; i < 5; ++i) {
      vectors.push_back(
          {0, base.sqn + 8 * b + i, base.rand, base.autn, base.hxres_star, base.flood});
    }
    lay_out(batch, vectors, {});
  }
  sign_round(round, signer());
  return round;
}

/// The leaf hashes of `batch`, of `home`'s, in leaf order.
std::vector<crypto::Sha256Digest> leaves_of(const NetworkId& home, const StoreBatch& batch) {
  return testing::leaf_hashes(home, batch);
}

/// Leaf 2 of batch 1 of a round, as a backup serves it: with its in-batch
/// path, then its round path.
Bytes valid_batched_vector_bundle() {
  const StoreMaterialRequest push = signed_round()[1];
  const StoreBatch& batch = push.batches[0];
  const auto leaves = leaves_of(push.home_network, batch);
  AuthVectorBundle served = bundle_of(push.home_network, batch.supi, batch.vectors[2]);
  const crypto::MerkleTree tree(leaves);
  const crypto::MerkleGroup group = tree.group(2);
  served.batch = batch_position(tree, 2, batch.batch_index, batch.batch_count, batch.round,
                                std::span(leaves).subspan(group.first, group.size));
  served.home_signature = batch.signature;
  return wire::encode(served);
}

Bytes valid_store_request() {
  StoreMaterialRequest req = signed_round()[2];
  ShareLeaf share;
  share.x = 1;
  share.y = ByteArray<32>{0xaa, 0xaa};
  lay_out(req.batches[0], {req.batches[0].vectors[0]}, {share});
  std::vector<StoreMaterialRequest> round = {req, req};
  sign_round(round, signer());
  req = round[1];
  req.suci_secret = Bytes(32, 0x55);
  return wire::encode(req);
}

template <typename Decoder>
void expect_all_truncations_throw(const Bytes& valid, Decoder decode) {
  for (std::size_t len = 0; len < valid.size(); ++len) {
    const ByteView prefix(valid.data(), len);
    EXPECT_THROW((void)decode(prefix), wire::WireError) << "prefix length " << len;
  }
  // The full frame decodes.
  EXPECT_NO_THROW((void)decode(ByteView(valid)));
  // Trailing garbage is rejected.
  Bytes extended = valid;
  extended.push_back(0x00);
  EXPECT_THROW((void)decode(ByteView(extended)), wire::WireError);
}

TEST(FuzzDecode, AuthVectorBundleTruncations) {
  expect_all_truncations_throw(valid_vector_bundle(),
                               [](ByteView d) { return wire::decode<AuthVectorBundle>(d); });
}

TEST(FuzzDecode, BatchedVectorBundleTruncations) {
  const Bytes frame = valid_batched_vector_bundle();
  ASSERT_TRUE(wire::decode<AuthVectorBundle>(frame).verify(signer().public_key));
  expect_all_truncations_throw(frame, [](ByteView d) { return wire::decode<AuthVectorBundle>(d); });
}

TEST(FuzzDecode, OverlongBatchPathIsRejected) {
  // The sibling count is one byte, but a batch and its round are together
  // at most 32 levels tall: a longer declared path must throw before
  // anything is read into it.
  AuthVectorBundle b = wire::decode<AuthVectorBundle>(valid_vector_bundle());
  b.batch.siblings.assign(33, crypto::Sha256Digest{});
  EXPECT_THROW((void)wire::decode<AuthVectorBundle>(wire::encode(b)), wire::WireError);
}

TEST(FuzzDecode, OverlongRoundPathIsRejected) {
  // 16 levels of batch and 16 of round: 32 hashes is the longest path a
  // u16 position can need, in a bundle or in a store request.
  StoreMaterialRequest req = wire::decode<StoreMaterialRequest>(valid_store_request());
  std::vector<crypto::Sha256Digest>& round = req.batches.at(0).round;
  ASSERT_EQ(round.size(), 1u);
  round.assign(32, crypto::Sha256Digest{});
  EXPECT_NO_THROW((void)wire::decode<StoreMaterialRequest>(wire::encode(req)));
  round.assign(33, crypto::Sha256Digest{});
  EXPECT_THROW((void)wire::decode<StoreMaterialRequest>(wire::encode(req)), wire::WireError);
}

TEST(FuzzDecode, StoreMaterialRequestTruncations) {
  expect_all_truncations_throw(valid_store_request(),
                               [](ByteView d) { return wire::decode<StoreMaterialRequest>(d); });
}

TEST(FuzzDecode, SuciTruncations) {
  crypto::DeterministicDrbg rng("fuzz-suci", 1);
  const auto home = crypto::x25519_generate(rng);
  const aka::Suci suci = aka::conceal_supi(Supi("315010000000001"), home.public_key, rng);
  expect_all_truncations_throw(wire::encode(suci),
                               [](ByteView d) { return wire::decode<aka::Suci>(d); });
}

/// Every truncation of `message`'s encoding throws, and so does every byte
/// mutation unless it decodes to a frame that re-encodes to the mutated
/// bytes: no frame has two readings.
template <typename T>
void expect_nas_frame_is_strict(const T& message, std::uint64_t seed) {
  const Bytes frame = wire::encode(message);
  expect_all_truncations_throw(frame, [](ByteView d) { return wire::decode<T>(d); });
  Xoshiro256StarStar rng(seed);
  for (int trial = 0; trial < 500; ++trial) {
    Bytes mutated = frame;
    const std::size_t pos = rng.next_below(mutated.size());
    mutated[pos] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
    try {
      EXPECT_EQ(wire::encode(wire::decode<T>(mutated)), mutated) << "mutation at " << pos;
    } catch (const wire::WireError&) {
      // fine
    }
  }
}

TEST(FuzzDecode, NasFramesAreStrict) {
  crypto::DeterministicDrbg rng("fuzz-nas", 1);
  const auto home = crypto::x25519_generate(rng);
  const Supi supi("315010000000001");
  const aka::Challenge challenge{rng.array<16>(), rng.array<16>()};
  const Guti guti{NetworkId("serving"), 77};

  aka::AttachRequest by_supi;
  by_supi.supi = supi;
  aka::AttachRequest by_suci;
  by_suci.suci = wire::encode(aka::conceal_supi(supi, home.public_key, rng));
  by_suci.home = NetworkId("home");
  aka::AttachRequest by_guti;
  by_guti.guti = guti;
  by_guti.lte = true;
  expect_nas_frame_is_strict(by_supi, 1);
  expect_nas_frame_is_strict(by_suci, 2);
  expect_nas_frame_is_strict(by_guti, 3);

  expect_nas_frame_is_strict(aka::AttachReply{9, challenge}, 4);
  expect_nas_frame_is_strict(aka::AttachReply{9, aka::IdentityRequest{}}, 5);
  expect_nas_frame_is_strict(aka::AuthResponse{9, rng.array<16>(), std::nullopt}, 6);
  expect_nas_frame_is_strict(
      aka::AuthResponse{9, crypto::ResStar{}, aka::Auts{rng.array<6>(), rng.array<8>()}}, 7);
  expect_nas_frame_is_strict(
      aka::AuthResponseReply{aka::Outcome{true, "backup", rng.array<32>(), "", guti}}, 8);
  expect_nas_frame_is_strict(aka::AuthResponseReply{challenge}, 9);
  expect_nas_frame_is_strict(aka::HandoverRequest{guti}, 10);
  expect_nas_frame_is_strict(aka::HandoverReply{guti, 2, rng.array<32>()}, 11);
  expect_nas_frame_is_strict(baseline::HssVectorRequest{supi}, 12);
  expect_nas_frame_is_strict(baseline::HssVectorReply{challenge.rand, challenge.autn,
                                                      rng.array<16>(), rng.array<32>()},
                             13);
}

TEST(FuzzDecode, UsageProofTruncations) {
  UsageProof p;
  p.serving_network = NetworkId("serving");
  p.supi = Supi("315010000000001");
  p.res_star = array_from_hex<16>("d0d1d2d3d4d5d6d7d8d9dadbdcdddedf");
  p.hxres_star = hxres_index(p.res_star);
  p.serving_signature = crypto::ed25519_sign(p.signed_payload(), signer());
  expect_all_truncations_throw(wire::encode(p), [](ByteView d) { return wire::decode<UsageProof>(d); });
}

TEST(FuzzDecode, RevokeRequestTruncations) {
  RevokeSharesRequest req;
  req.home_network = NetworkId("home");
  req.supi = Supi("315010000000001");
  req.hxres_indices.push_back(array_from_hex<16>("00000000000000000000000000000001"));
  req.tag = revoke_tag(crypto::HmacSha256(ByteArray<32>{}), NetworkId("backup"), req);
  expect_all_truncations_throw(wire::encode(req),
                               [](ByteView d) { return wire::decode<RevokeSharesRequest>(d); });
}

TEST(FuzzDecode, RandomMutationsNeverCrash) {
  // Flip random bytes in valid frames; decode must either succeed (the
  // mutation hit a don't-care byte, e.g. inside the signature — which then
  // fails verification) or throw WireError. Anything else is a bug.
  const auto keys = signer();
  const Bytes frames[] = {valid_vector_bundle(), valid_batched_vector_bundle()};
  Xoshiro256StarStar rng(0xf022);
  for (const Bytes& frame : frames) {
    ASSERT_TRUE(wire::decode<AuthVectorBundle>(frame).verify(keys.public_key));
    for (int trial = 0; trial < 2000; ++trial) {
      Bytes mutated = frame;
      const std::size_t pos = rng.next_below(mutated.size());
      mutated[pos] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
      try {
        const auto decoded = wire::decode<AuthVectorBundle>(mutated);
        // Decoded despite mutation: verification must now fail. Every byte
        // is signed leaf content, part of the batch path (which the root
        // recomputation covers) or the signature itself.
        EXPECT_FALSE(decoded.verify(keys.public_key)) << "mutation at " << pos;
      } catch (const wire::WireError&) {
        // fine
      }
    }
  }
}

TEST(FuzzDecode, RandomGarbageNeverCrashes) {
  Xoshiro256StarStar rng(99);
  for (int trial = 0; trial < 2000; ++trial) {
    Bytes garbage(rng.next_below(300));
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.next());
    EXPECT_THROW((void)wire::decode<AuthVectorBundle>(garbage), wire::WireError);
    try {
      (void)wire::decode<StoreMaterialRequest>(garbage);
      // Extremely unlikely to parse, but if it does it must be benign.
    } catch (const wire::WireError&) {
    }
  }
}

TEST(FuzzDecode, HugeDeclaredCountsAreBounded) {
  // A peer's frame declaring 2^32 - 1 elements in a handful of bytes: every
  // counted sequence must throw WireError when the elements run out, never
  // reserve room for the declared count first (std::bad_alloc is not a
  // WireError, so no handler would catch it).
  constexpr std::uint32_t kHuge = 0xffffffffu;
  const auto frame = [](auto&& write) {
    wire::Writer w;
    write(w);
    return std::move(w).take();
  };
  const Bytes store_batches = frame([](wire::Writer& w) {
    w.string("h");
    w.u32(kHuge);
  });
  const Bytes store_vectors = frame([](wire::Writer& w) {  // inside one batch's frame
    wire::Writer batch;
    batch.string("315010000000001");
    batch.u16(0);
    batch.u16(1);
    batch.raw(crypto::Ed25519Signature{});
    batch.u8(0);  // round path
    batch.u32(0);  // nodes
    batch.u32(kHuge);
    w.string("h");
    w.u32(1);
    w.bytes(batch.data());
  });
  const Bytes revoke = frame([](wire::Writer& w) {
    w.string("h");
    w.string("315010000000001");
    w.u32(kHuge);
  });
  EXPECT_THROW((void)wire::decode<StoreMaterialRequest>(store_batches), wire::WireError);
  EXPECT_THROW((void)wire::decode<StoreMaterialRequest>(store_vectors), wire::WireError);
  EXPECT_THROW((void)wire::decode<ReportRequest>(store_batches), wire::WireError);
  EXPECT_THROW((void)wire::decode<RevokeSharesRequest>(revoke), wire::WireError);
  EXPECT_THROW((void)wire::decode<directory::BackupsEntry>(store_batches), wire::WireError);
}

TEST(FuzzDecode, HugeDeclaredLengthsAreBounded) {
  // A frame claiming a 4GiB string must throw, not allocate.
  wire::Writer w;
  w.u32(0xffffffffu);
  const Bytes frame = std::move(w).take();
  wire::Reader r(frame);
  EXPECT_THROW((void)r.bytes(), wire::WireError);
}

// ---- A backup's persisted batch record -------------------------------------

/// A backup restored from `store` at construction, on a node of its own.
struct RestoredBackup {
  sim::Simulator simulator{1};
  sim::Network network{simulator};
  sim::Rpc rpc{network};
  sim::NodeIndex node = network.add_node({});
  directory::DirectoryClient directory{rpc, node, node};
  BackupNetwork backup;

  explicit RestoredBackup(store::KvStore& store)
      : backup(rpc, node, NetworkId("backup"), crypto::X25519Scalar{}, directory,
               FederationConfig{}, &store) {}

  std::size_t held() const {
    const Supi supi("315010000000001");
    return backup.stored_vectors(NetworkId("home"), supi) +
           backup.stored_shares(NetworkId("home"), supi);
  }
};

/// Batch 1 of a three-batch round of five vectors and two shares, as the
/// BatchRecord of a backup that holds all of it, and its store key.
std::pair<std::string, BatchRecord> valid_batch_record() {
  std::vector<StoreMaterialRequest> round = signed_round();
  for (StoreMaterialRequest& push : round) {
    StoreBatch& batch = push.batches[0];
    std::vector<ShareLeaf> shares(2);
    for (std::uint8_t i = 0; i < shares.size(); ++i) {
      ShareLeaf& share = shares[i];
      share.hxres_star = batch.vectors[i].hxres_star;
      share.hxres_star[15] = i;
      share.x = 2;
      ByteArray<32> y;
      y.fill(static_cast<std::uint8_t>(0x30 + i));
      share.y = y;
    }
    lay_out(batch, {batch.vectors.begin(), batch.vectors.end()}, shares);
  }
  sign_round(round, signer());
  const StoreMaterialRequest& push = round[1];
  const StoreBatch& batch = push.batches[0];
  const BatchRecord record{batch.supi,   batch.batch_index, batch.batch_count, batch.signature,
                           batch.round,  {},                batch.vectors,     batch.shares};
  const std::string key = "batch/" + push.home_network.str() + "/" +
                          to_hex(crypto::MerkleTree(leaves_of(push.home_network, batch)).root());
  return {key, record};
}

TEST(FuzzDecode, BatchRecordTruncationsAndMutationsAreDroppedAtRestore) {
  // A backup restores a held batch from its record only when every held
  // leaf still hashes to the leaf the record lists for it: a truncated or
  // mutated record is dropped whole, without an exception or an allocation
  // sized by a corrupt count. Only the fields restore does not rehash (the
  // round signature, round path and round position) may change and still
  // restore, to a bundle the serving network then refuses.
  const auto [key, record] = valid_batch_record();
  const Bytes valid = wire::encode(record);
  const auto restored_from = [&key = key](ByteView value) {
    store::KvStore store;
    store.put(key, value);
    return RestoredBackup(store).held();
  };
  ASSERT_EQ(restored_from(valid), 7u);

  expect_all_truncations_throw(valid, [](ByteView d) { return wire::decode<BatchRecord>(d); });
  for (std::size_t len = 0; len < valid.size(); ++len) {
    EXPECT_EQ(restored_from(ByteView(valid.data(), len)), 0u) << "prefix length " << len;
  }

  Xoshiro256StarStar rng(0xba7c);
  for (int trial = 0; trial < 500; ++trial) {
    Bytes mutated = valid;
    const std::size_t pos = rng.next_below(mutated.size());
    mutated[pos] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
    std::size_t held = 0;
    ASSERT_NO_THROW(held = restored_from(mutated)) << "mutation at " << pos;
    if (held == 0) continue;
    EXPECT_EQ(held, 7u) << "mutation at " << pos;
    // Restored: the mutation left every rehashed byte as it was.
    auto unhashed = wire::decode<BatchRecord>(mutated);
    unhashed.batch_index = record.batch_index;
    unhashed.batch_count = record.batch_count;
    unhashed.signature = record.signature;
    unhashed.round = record.round;
    EXPECT_EQ(wire::encode(unhashed), valid) << "mutation at " << pos;
  }
}

// ---- Encoded leaf sequences ------------------------------------------------

/// StoreBatch, its push and BatchRecord with every leaf sequence a
/// std::vector: the field lists the encoded sequences must decode as.
struct VectorStoreBatch {
  Supi supi;
  std::uint16_t batch_index = 0;
  std::uint16_t batch_count = 1;
  crypto::Ed25519Signature signature{};
  std::vector<crypto::Sha256Digest> round;
  std::vector<TreeNode> nodes;
  std::vector<VectorLeaf> vectors;
  std::vector<ShareLeaf> shares;

  template <typename F, typename Self>
  static void fields(F& f, Self& m) {
    f.field(m.supi, m.batch_index, m.batch_count, m.signature, m.round, m.nodes, m.vectors,
            m.shares);
  }
};

struct VectorStorePush {
  NetworkId home_network;
  std::vector<VectorStoreBatch> batches;
  SecretBytes suci_secret;
  crypto::Sha256Digest tag{};

  template <typename F, typename Self>
  static void fields(F& f, Self& m) {
    f.field(m.home_network, m.batches, m.suci_secret, m.tag);
  }
};

struct VectorBatchRecord {
  Supi supi;
  std::uint16_t batch_index = 0;
  std::uint16_t batch_count = 1;
  crypto::Ed25519Signature signature{};
  std::vector<crypto::Sha256Digest> round;
  std::vector<ReleasedLeaf> released;
  std::vector<VectorLeaf> vectors;
  std::vector<ShareLeaf> shares;

  template <typename F, typename Self>
  static void fields(F& f, Self& m) {
    f.field(m.supi, m.batch_index, m.batch_count, m.signature, m.round, m.released, m.vectors,
            m.shares);
  }
};

/// Whether `frame` decodes as a T, and then its encoding again.
template <typename T>
std::optional<Bytes> reencoded(ByteView frame) {
  try {
    return wire::encode(wire::decode<T>(frame));
  } catch (const wire::WireError&) {
    return std::nullopt;
  }
}

TEST(FuzzDecode, EncodedSequencesDecodeAsTheirVectors) {
  // A push and a record hold their leaf sequences as their encoding
  // (wire::EncodedSequence): each decodes exactly the frames the same
  // field list of std::vectors decodes, to the same bytes, and refuses the
  // rest: truncations, and random mutations of counts, element frames,
  // booleans and leaves.
  const Bytes record = wire::encode(valid_batch_record().second);
  const std::pair<Bytes, bool> corpora[] = {{valid_store_request(), true}, {record, false}};
  Xoshiro256StarStar rng(0x5e9);
  for (const auto& [valid, push] : corpora) {
    const auto both = [push = push](ByteView frame) {
      return push ? std::pair{reencoded<StoreMaterialRequest>(frame),
                              reencoded<VectorStorePush>(frame)}
                  : std::pair{reencoded<BatchRecord>(frame), reencoded<VectorBatchRecord>(frame)};
    };
    ASSERT_EQ(both(valid).first, valid);
    ASSERT_EQ(both(valid).second, valid);
    for (std::size_t len = 0; len < valid.size(); ++len) {
      const auto [encoded, vectors] = both(ByteView(valid).first(len));
      EXPECT_FALSE(encoded.has_value()) << "prefix length " << len;
      EXPECT_FALSE(vectors.has_value()) << "prefix length " << len;
    }
    std::size_t decoded = 0;
    for (int trial = 0; trial < 2000; ++trial) {
      Bytes mutated = valid;
      const std::size_t pos = rng.next_below(mutated.size());
      mutated[pos] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
      const auto [encoded, vectors] = both(mutated);
      EXPECT_EQ(encoded, vectors) << "mutation at " << pos;
      decoded += encoded.has_value() ? 1 : 0;
    }
    EXPECT_GT(decoded, 0u);  // the leaves' own bytes decode as any value
  }
}

// ---- A backup's persisted proof segment ----------------------------------

/// Three pending proofs' entries, appended back to back as a backup's store
/// keeps one segment of them, and the offset each entry ends at.
std::pair<Bytes, std::vector<std::size_t>> valid_segment() {
  Bytes segment;
  std::vector<std::size_t> ends;
  for (std::uint8_t i = 0; i < 3; ++i) {
    ProofEntry entry{Supi("315010000000001"), NetworkId("serving"), {}, 1000 + i, {}};
    entry.res_star.fill(static_cast<std::uint8_t>(0x10 + i));
    entry.serving_signature.fill(static_cast<std::uint8_t>(0x20 + i));
    const Bytes bytes = wire::encode(entry);
    segment.insert(segment.end(), bytes.begin(), bytes.end());
    ends.push_back(segment.size());
  }
  return {segment, ends};
}

/// The proofs a backup restores from `segment`, its home's only one, and
/// the segment keys its store holds after the restore.
std::pair<std::size_t, std::vector<std::string>> restore_segment(ByteView segment) {
  store::KvStore store;
  store.put("proof/home/0000000000000007", segment);
  const std::size_t pending = RestoredBackup(store).backup.pending_reports(NetworkId("home"));
  return {pending, store.keys_with_prefix("proof/")};
}

TEST(FuzzDecode, ProofSegmentTruncationsAndMutationsAreDroppedAtRestore) {
  // A backup restores a segment's entries up to the first that does not
  // decode and drops the rest; it appends what it restored to a segment
  // numbered past the stored one and erases that. A truncated, mutated or
  // random value never throws out of the restore.
  const auto [valid, ends] = valid_segment();
  const std::string fresh = "proof/home/0000000000000008";
  ASSERT_EQ(restore_segment(valid), std::pair(std::size_t{3}, std::vector{fresh}));

  for (std::size_t len = 0; len < valid.size(); ++len) {
    const auto whole =
        static_cast<std::size_t>(std::ranges::upper_bound(ends, len) - ends.begin());
    const auto [pending, keys] = restore_segment(ByteView(valid.data(), len));
    EXPECT_EQ(pending, whole) << "prefix length " << len;
    EXPECT_EQ(keys, whole == 0 ? std::vector<std::string>{} : std::vector{fresh})
        << "prefix length " << len;
  }

  Xoshiro256StarStar rng(0x5e9);
  for (int trial = 0; trial < 500; ++trial) {
    Bytes mutated = valid;
    const std::size_t pos = rng.next_below(mutated.size());
    mutated[pos] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
    std::pair<std::size_t, std::vector<std::string>> restored;
    ASSERT_NO_THROW(restored = restore_segment(mutated)) << "mutation at " << pos;
    EXPECT_LE(restored.first, 3u) << "mutation at " << pos;
    EXPECT_LE(restored.second.size(), 1u) << "mutation at " << pos;
  }
  for (int trial = 0; trial < 200; ++trial) {
    Bytes garbage(rng.next_below(512));
    for (auto& byte : garbage) byte = static_cast<std::uint8_t>(rng.next_below(256));
    ASSERT_NO_THROW((void)restore_segment(garbage)) << "trial " << trial;
  }
}

TEST(FuzzDecode, ProofSegmentUnderAMalformedKeyIsDroppedAtRestore) {
  // A key whose tail is not a 16-hex-digit sequence number names no
  // segment: its value is not read, and the restore erases it.
  const auto [valid, ends] = valid_segment();
  for (const std::string key : {"proof/home/7", "proof/home/000000000000000g",
                                "proof/home/00000000000000007"}) {
    store::KvStore store;
    store.put(key, valid);
    EXPECT_EQ(RestoredBackup(store).backup.pending_reports(NetworkId("home")), 0u) << key;
    EXPECT_TRUE(store.keys_with_prefix("proof/").empty()) << key;
  }
}

}  // namespace
}  // namespace dauth::core
