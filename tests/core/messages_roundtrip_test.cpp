// Property-style round-trip coverage for every message type in
// core/messages.h, directory/directory.h and the NAS frames of aka/nas.h
// (with the SUCI and the baseline's hss.get_av pair): with randomized
// field values
// (including empty/short/long vectors and optional-field presence),
//
//   1. encode() -> decode() -> encode() must be byte-identical, and
//   2. decoding any strict prefix of a valid encoding must throw WireError
//      (a truncated message must never parse as a shorter valid one).
//
// Comparing re-encodings (rather than fields) needs no operator== on the
// messages — which rule L4 deliberately forbids for secret-bearing structs.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "aka/nas.h"
#include "aka/suci.h"
#include "baseline/standalone_core.h"
#include "common/rng.h"
#include "core/messages.h"
#include "directory/directory.h"
#include "wire/reader.h"

namespace dauth::core {
namespace {

using Rng = Xoshiro256StarStar;

Bytes random_bytes(Rng& rng, std::size_t n) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

template <std::size_t N>
ByteArray<N> random_array(Rng& rng) {
  ByteArray<N> out;
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

NetworkId random_network(Rng& rng) {
  return NetworkId("net-" + std::to_string(rng.next_below(100000)));
}

Supi random_supi(Rng& rng) {
  std::string digits = "90155";
  for (int i = 0; i < 10; ++i) digits += static_cast<char>('0' + rng.next_below(10));
  return Supi(digits);
}

crypto::ShamirShare random_share(Rng& rng) {
  crypto::ShamirShare s;
  s.x = static_cast<std::uint8_t>(1 + rng.next_below(255));
  s.y = random_bytes(rng, rng.next_below(48));
  return s;
}

/// A u16 position, often at one of the bounds.
std::uint16_t random_position(Rng& rng) {
  switch (rng.next_below(4)) {
    case 0: return 0;
    case 1: return 0xffff;
    default: return static_cast<std::uint16_t>(rng.next());
  }
}

std::vector<crypto::Sha256Digest> random_path(Rng& rng, std::size_t max_length) {
  std::vector<crypto::Sha256Digest> path(rng.next_below(max_length + 1));
  for (auto& hash : path) hash = random_array<32>(rng);
  return path;
}

BatchPath random_batch_path(Rng& rng) {
  BatchPath path;
  path.leaf_index = random_position(rng);
  path.leaf_count = random_position(rng);
  path.batch_index = random_position(rng);
  path.batch_count = random_position(rng);
  path.siblings = random_path(rng, 32);
  return path;
}

AuthVectorBundle random_vector_bundle(Rng& rng) {
  AuthVectorBundle b;
  b.home_network = random_network(rng);
  b.supi = random_supi(rng);
  b.sqn = rng.next();
  b.rand = random_array<16>(rng);
  b.autn = random_array<16>(rng);
  b.hxres_star = random_array<16>(rng);
  b.flood = rng.next_below(2) == 1;
  b.batch = random_batch_path(rng);
  b.home_signature = random_array<64>(rng);  // round-trip only; not verified
  return b;
}

KeyShareBundle random_share_bundle(Rng& rng) {
  KeyShareBundle b;
  b.home_network = random_network(rng);
  b.supi = random_supi(rng);
  b.hxres_star = random_array<16>(rng);
  b.share = random_share(rng);
  b.batch = random_batch_path(rng);
  b.home_signature = random_array<64>(rng);
  return b;
}

UsageProof random_proof(Rng& rng) {
  UsageProof p;
  p.serving_network = random_network(rng);
  p.supi = random_supi(rng);
  p.hxres_star = random_array<16>(rng);
  p.res_star = crypto::ResStar(ByteView(random_array<16>(rng)));
  p.timestamp = static_cast<Time>(rng.next());
  p.serving_signature = random_array<64>(rng);
  return p;
}

StoreBatch random_store_batch(Rng& rng) {
  StoreBatch b;
  b.supi = random_supi(rng);
  b.batch_index = random_position(rng);
  b.batch_count = random_position(rng);
  b.signature = random_array<64>(rng);
  b.round = random_path(rng, 32);
  b.nodes.resize(rng.next_below(40));
  for (TreeNode& node : b.nodes) node.hash = random_array<32>(rng);
  std::vector<VectorLeaf> vectors(rng.next_below(3));
  for (VectorLeaf& v : vectors) {
    v = {random_position(rng),    rng.next(),
         random_array<16>(rng),   random_array<16>(rng),
         random_array<16>(rng),   rng.next_below(2) == 1};
  }
  b.vectors = wire::EncodedSequence<VectorLeaf>(vectors);
  std::vector<ShareLeaf> shares(rng.next_below(3));
  for (ShareLeaf& s : shares) {
    s.leaf = random_position(rng);
    s.hxres_star = random_array<16>(rng);
    s.x = static_cast<std::uint8_t>(rng.next());
    s.y = random_array<32>(rng);
  }
  b.shares = wire::EncodedSequence<ShareLeaf, SecretBytes>(shares);
  return b;
}

StoreMaterialRequest random_store_request(Rng& rng) {
  StoreMaterialRequest r;
  r.home_network = random_network(rng);
  const std::size_t batches = rng.next_below(3);
  for (std::size_t i = 0; i < batches; ++i) r.batches.push_back(random_store_batch(rng));
  r.suci_secret = random_bytes(rng, rng.next_below(2) == 1 ? 32 : 0);
  r.tag = random_array<32>(rng);
  return r;
}

GetVectorRequest random_get_vector(Rng& rng) {
  GetVectorRequest r;
  r.serving_network = random_network(rng);
  if (rng.next_below(2) == 1) {
    r.supi = random_supi(rng);
  } else {
    r.suci = random_bytes(rng, rng.next_below(80));
  }
  return r;
}

ReportRequest random_report(Rng& rng) {
  ReportRequest r;
  r.backup_network = random_network(rng);
  const std::size_t proofs = rng.next_below(4);
  for (std::size_t i = 0; i < proofs; ++i) r.proofs.push_back(random_proof(rng));
  return r;
}

ShareReply random_share_reply(Rng& rng) {
  ShareReply r;
  r.share = random_share_bundle(rng);
  r.vectors_left = static_cast<std::uint32_t>(rng.next());
  return r;
}

RevokeSharesRequest random_revoke(Rng& rng) {
  RevokeSharesRequest r;
  r.home_network = random_network(rng);
  r.supi = random_supi(rng);
  const std::size_t indices = rng.next_below(5);
  for (std::size_t i = 0; i < indices; ++i) r.hxres_indices.push_back(random_array<16>(rng));
  r.tag = random_array<32>(rng);
  return r;
}

GutiResolveRequest random_guti_request(Rng& rng) { return {rng.next()}; }

GutiResolveReply random_guti_reply(Rng& rng) {
  return {random_supi(rng), random_network(rng)};
}

HandoverContextRequest random_handover_request(Rng& rng) {
  return {rng.next(), random_network(rng), random_array<64>(rng)};
}

HandoverContextReply random_handover_reply(Rng& rng) {
  return {random_supi(rng), random_network(rng), random_array<32>(rng),
          static_cast<std::uint32_t>(rng.next())};
}

ResyncRequest random_resync(Rng& rng) {
  return {random_supi(rng),
          random_array<16>(rng),
          {random_array<6>(rng), random_array<8>(rng)}};
}

KeyReply random_key_reply(Rng& rng) { return {random_array<32>(rng)}; }

Guti random_guti(Rng& rng) { return {random_network(rng), rng.next()}; }

aka::Suci random_suci(Rng& rng) {
  return {std::to_string(rng.next_below(1000)), std::to_string(rng.next_below(1000)),
          random_array<32>(rng), random_bytes(rng, rng.next_below(16)), random_array<8>(rng)};
}

/// One identity of the three, as a UE sends it.
aka::AttachRequest random_attach_request(Rng& rng) {
  aka::AttachRequest r;
  switch (rng.next_below(3)) {
    case 0: r.supi = random_supi(rng); break;
    case 1:
      r.suci = wire::encode(random_suci(rng));
      r.home = random_network(rng);
      break;
    default: r.guti = random_guti(rng); break;
  }
  r.lte = rng.next_below(2) == 1;
  return r;
}

aka::Challenge random_challenge(Rng& rng) {
  return {random_array<16>(rng), random_array<16>(rng)};
}

aka::AuthResponse random_auth_response(Rng& rng, bool with_auts) {
  aka::AuthResponse r{rng.next(), crypto::ResStar(ByteView(random_array<16>(rng))), {}};
  if (with_auts) r.auts = aka::Auts{random_array<6>(rng), random_array<8>(rng)};
  return r;
}

aka::Outcome random_outcome(Rng& rng) {
  return {rng.next_below(2) == 1, random_network(rng).str(), random_array<32>(rng),
          std::string(rng.next_below(40), 'x'), random_guti(rng)};
}

directory::NameLookup random_lookup(Rng& rng) { return {random_network(rng).str()}; }

directory::NetworkEntry random_network_entry(Rng& rng) {
  return {random_network(rng), random_array<32>(rng), random_array<32>(rng),
          random_array<32>(rng), rng.next(), random_array<64>(rng)};
}

directory::UserEntry random_user_entry(Rng& rng) {
  return {random_supi(rng), random_network(rng), random_array<64>(rng)};
}

directory::BackupsEntry random_backups_entry(Rng& rng) {
  directory::BackupsEntry e{random_network(rng), {}, random_array<64>(rng)};
  const std::size_t backups = rng.next_below(5);
  for (std::size_t i = 0; i < backups; ++i) e.backups.push_back(random_network(rng));
  return e;
}

/// The property itself, shared by all message types: stable re-encoding and
/// rejection of every strict prefix.
template <typename Message, typename Builder>
void check_round_trip(std::uint64_t seed, int iterations, Builder build) {
  Rng rng(seed);
  for (int iter = 0; iter < iterations; ++iter) {
    const Message original = build(rng);
    const Bytes encoded = wire::encode(original);
    const Message decoded = wire::decode<Message>(encoded);
    const Bytes re_encoded = wire::encode(decoded);
    ASSERT_EQ(encoded, re_encoded) << "iteration " << iter;

    for (std::size_t len = 0; len < encoded.size(); ++len) {
      EXPECT_THROW(wire::decode<Message>(ByteView(encoded.data(), len)), wire::WireError)
          << "prefix of length " << len << " parsed, iteration " << iter;
    }
  }
}

TEST(MessagesRoundTrip, AuthVectorBundle) {
  check_round_trip<AuthVectorBundle>(0xA1, 25, random_vector_bundle);
}

TEST(MessagesRoundTrip, KeyShareBundle) {
  check_round_trip<KeyShareBundle>(0xA2, 25, random_share_bundle);
}

TEST(MessagesRoundTrip, UsageProof) {
  check_round_trip<UsageProof>(0xA3, 25, random_proof);
}

TEST(MessagesRoundTrip, StoreMaterialRequest) {
  check_round_trip<StoreMaterialRequest>(0xA4, 10, random_store_request);
}

TEST(MessagesRoundTrip, PositionsAreFixedWidthU16) {
  // Four u16 positions whatever their values: a bundle's size does not
  // depend on where it sits in its batch or round.
  AuthVectorBundle low;
  AuthVectorBundle high;
  high.batch = {0xffff, 0xffff, 0xffff, 0xffff, {}};
  const Bytes low_wire = wire::encode(low);
  const Bytes high_wire = wire::encode(high);
  ASSERT_EQ(low_wire.size(), high_wire.size());
  const BatchPath decoded = wire::decode<AuthVectorBundle>(high_wire).batch;
  EXPECT_EQ(decoded.leaf_index, 0xffff);
  EXPECT_EQ(decoded.leaf_count, 0xffff);
  EXPECT_EQ(decoded.batch_index, 0xffff);
  EXPECT_EQ(decoded.batch_count, 0xffff);
  std::size_t differing = 0;
  for (std::size_t i = 0; i < low_wire.size(); ++i) differing += low_wire[i] != high_wire[i];
  EXPECT_EQ(differing, 8u);
}

TEST(MessagesRoundTrip, StoreMaterialRequestRoundPath) {
  Rng rng(0xAA);
  for (const std::size_t length : {0, 1, 16, 32}) {
    StoreMaterialRequest r = random_store_request(rng);
    StoreBatch& batch = r.batches.emplace_back(random_store_batch(rng));
    batch.round.assign(length, random_array<32>(rng));
    const StoreMaterialRequest decoded = wire::decode<StoreMaterialRequest>(wire::encode(r));
    EXPECT_EQ(decoded.batches.back().round, batch.round) << length;
  }
}

TEST(MessagesRoundTrip, GetVectorRequest) {
  check_round_trip<GetVectorRequest>(0xA5, 25, random_get_vector);
}

TEST(MessagesRoundTrip, ShareReply) {
  check_round_trip<ShareReply>(0xA8, 25, random_share_reply);
}

TEST(MessagesRoundTrip, TruncatedShareReplyIsBadReply) {
  // A backup.get_share reply cut short anywhere, including inside the
  // trailing vectors_left count, reaches the caller as kBadReply.
  sim::Simulator simulator{1};
  sim::Network network{simulator};
  sim::Rpc rpc{network};
  sim::NodeConfig config;
  config.name = "serving";
  const sim::NodeIndex serving = network.add_node(config);
  config.name = "backup";
  const sim::NodeIndex backup = network.add_node(config);

  Rng rng(0xA9);
  const Bytes encoded = wire::encode(random_share_reply(rng));
  std::size_t cut = 0;
  rpc.register_service(backup, "backup.get_share", [&](ByteView, sim::Responder r) {
    r.reply(Bytes(encoded.begin(), encoded.begin() + static_cast<std::ptrdiff_t>(cut)));
  });
  const sim::TypedStub stub(rpc, serving, kBackupGetShare);
  for (const std::size_t length : {std::size_t{0}, encoded.size() / 2, encoded.size() - 1}) {
    cut = length;
    std::optional<sim::RpcErrorCode> code;
    stub.call(backup, UsageProof{}, sim::RpcOptions::oneshot(),
              [&](sim::CallResult<ShareReply> result) {
                ASSERT_FALSE(result.ok()) << "cut at " << cut;
                code = result.error().code;
              });
    simulator.run();
    EXPECT_EQ(code, sim::RpcErrorCode::kBadReply) << "cut at " << cut;
  }
}

TEST(MessagesRoundTrip, ReportRequest) {
  check_round_trip<ReportRequest>(0xA6, 15, random_report);
}

TEST(MessagesRoundTrip, RevokeSharesRequest) {
  check_round_trip<RevokeSharesRequest>(0xA7, 25, random_revoke);
}

TEST(MessagesRoundTrip, GutiResolve) {
  check_round_trip<GutiResolveRequest>(0xB1, 10, random_guti_request);
  check_round_trip<GutiResolveReply>(0xB2, 10, random_guti_reply);
}

TEST(MessagesRoundTrip, HandoverContext) {
  check_round_trip<HandoverContextRequest>(0xB4, 10, random_handover_request);
  check_round_trip<HandoverContextReply>(0xB5, 10, random_handover_reply);
}

TEST(MessagesRoundTrip, ResyncRequest) {
  check_round_trip<ResyncRequest>(0xB6, 10, random_resync);
}

TEST(MessagesRoundTrip, KeyReply) {
  check_round_trip<KeyReply>(0xB7, 10, random_key_reply);
}

TEST(MessagesRoundTrip, NasFrames) {
  // Every NAS frame, each variant alternative and the AUTS both present and
  // absent, as its own run.
  check_round_trip<aka::AttachRequest>(0xC1, 25, random_attach_request);
  check_round_trip<aka::AttachReply>(0xC2, 10, [](Rng& rng) {
    return aka::AttachReply{rng.next(), random_challenge(rng)};
  });
  check_round_trip<aka::AttachReply>(0xC3, 5, [](Rng& rng) {
    return aka::AttachReply{rng.next(), aka::IdentityRequest{}};
  });
  check_round_trip<aka::AuthResponse>(
      0xC4, 10, [](Rng& rng) { return random_auth_response(rng, /*with_auts=*/false); });
  check_round_trip<aka::AuthResponse>(
      0xC5, 10, [](Rng& rng) { return random_auth_response(rng, /*with_auts=*/true); });
  check_round_trip<aka::AuthResponseReply>(
      0xC6, 10, [](Rng& rng) { return aka::AuthResponseReply{random_outcome(rng)}; });
  check_round_trip<aka::AuthResponseReply>(
      0xC7, 10, [](Rng& rng) { return aka::AuthResponseReply{random_challenge(rng)}; });
  check_round_trip<aka::HandoverRequest>(
      0xC8, 10, [](Rng& rng) { return aka::HandoverRequest{random_guti(rng)}; });
  check_round_trip<aka::HandoverReply>(0xC9, 10, [](Rng& rng) {
    return aka::HandoverReply{random_guti(rng), static_cast<std::uint32_t>(rng.next()),
                              random_array<32>(rng)};
  });
  check_round_trip<aka::Suci>(0xCA, 10, random_suci);
  check_round_trip<baseline::HssVectorRequest>(
      0xCB, 10, [](Rng& rng) { return baseline::HssVectorRequest{random_supi(rng)}; });
  check_round_trip<baseline::HssVectorReply>(0xCC, 10, [](Rng& rng) {
    return baseline::HssVectorReply{random_array<16>(rng), random_array<16>(rng),
                                    crypto::ResStar(ByteView(random_array<16>(rng))),
                                    crypto::Key256(ByteView(random_array<32>(rng)))};
  });
}

TEST(MessagesRoundTrip, NasFramesKeepTheirAlternative) {
  // The tag selects the alternative and presence the AUTS: a round trip
  // keeps both, not just the bytes.
  Rng rng(0xCD);
  const aka::AttachReply identity{7, aka::IdentityRequest{}};
  EXPECT_TRUE(std::holds_alternative<aka::IdentityRequest>(
      wire::decode<aka::AttachReply>(wire::encode(identity)).step));
  const aka::AuthResponseReply retry{random_challenge(rng)};
  EXPECT_TRUE(std::holds_alternative<aka::Challenge>(
      wire::decode<aka::AuthResponseReply>(wire::encode(retry)).step));
  EXPECT_TRUE(wire::decode<aka::AuthResponse>(wire::encode(random_auth_response(rng, true)))
                  .auts.has_value());
  EXPECT_FALSE(wire::decode<aka::AuthResponse>(wire::encode(random_auth_response(rng, false)))
                   .auts.has_value());
}

TEST(MessagesRoundTrip, DirectoryEntries) {
  check_round_trip<directory::NameLookup>(0xB8, 10, random_lookup);
  check_round_trip<directory::NetworkEntry>(0xB9, 10, random_network_entry);
  check_round_trip<directory::UserEntry>(0xBA, 10, random_user_entry);
  check_round_trip<directory::BackupsEntry>(0xBB, 25, random_backups_entry);
}

}  // namespace
}  // namespace dauth::core
