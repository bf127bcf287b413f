#include "core/messages.h"

#include <stdexcept>

#include "wire/reader.h"
#include "wire/writer.h"

namespace dauth::core {
namespace {

// A position is a u16, so a batch and a round are each at most 16 levels
// tall: 32 siblings cover the longest served path.
constexpr std::size_t kMaxPositions = 0xffff;
constexpr std::size_t kMaxPathLength = 32;

// Feeds a Merkle leaf hash the bytes a wire::Writer would hold, and wipes
// its hash state (which can hold a share ordinate) when done.
class LeafHasher : public wire::Encoder<LeafHasher> {
 public:
  LeafHasher() = default;
  LeafHasher(const LeafHasher&) = delete;
  LeafHasher& operator=(const LeafHasher&) = delete;
  ~LeafHasher() { secure_wipe(&hash_, sizeof(hash_)); }

  void raw(ByteView data) noexcept { hash_.update(data); }
  crypto::Sha256Digest finish() noexcept { return hash_.finish(); }

 private:
  crypto::Sha256 hash_ = crypto::merkle_leaf_hasher();
};

// Counts the bytes a wire::Writer would hold: a bundle's frame length, and
// a store request's exact size.
class ByteCounter : public wire::Encoder<ByteCounter> {
 public:
  void raw(ByteView data) noexcept { size_ += data.size(); }
  std::size_t size() const noexcept { return size_; }

 private:
  std::size_t size_ = 0;
};

template <typename Out>
void write_hashes(Out& w, const std::vector<crypto::Sha256Digest>& hashes) {
  w.u8(static_cast<std::uint8_t>(hashes.size()));
  for (const auto& hash : hashes) w.fixed(hash);
}

std::vector<crypto::Sha256Digest> read_hashes(wire::Reader& r) {
  const std::uint8_t length = r.u8();
  if (length > kMaxPathLength) throw wire::WireError("merkle path too long");
  std::vector<crypto::Sha256Digest> hashes;
  hashes.reserve(length);
  for (std::uint8_t i = 0; i < length; ++i) hashes.push_back(r.fixed<32>());
  return hashes;
}

template <typename Out>
void write_batch_path(Out& w, const BatchPath& path) {
  w.u16(path.leaf_index);
  w.u16(path.leaf_count);
  w.u16(path.batch_index);
  w.u16(path.batch_count);
  write_hashes(w, path.siblings);
}

BatchPath read_batch_path(wire::Reader& r) {
  BatchPath path;
  path.leaf_index = r.u16();
  path.leaf_count = r.u16();
  path.batch_index = r.u16();
  path.batch_count = r.u16();
  path.siblings = read_hashes(r);
  return path;
}

// A batch's leaf in its round tree: its leaf count travels with its root,
// since an RFC 9162 path does not pin the size of the tree it climbs.
crypto::Sha256Digest round_leaf(std::uint16_t leaf_count, const crypto::Sha256Digest& batch_root) {
  LeafHasher leaf;
  leaf.u16(leaf_count);
  leaf.fixed(batch_root);
  return leaf.finish();
}

// The message a round's home signature covers.
Bytes round_signed_payload(const NetworkId& home, std::uint16_t batch_count,
                           const crypto::Sha256Digest& round_root) {
  wire::Writer w;
  w.string("bundle-round-v1");
  w.string(home.str());
  w.u16(batch_count);
  w.fixed(round_root);
  return std::move(w).take();
}

// The signed message implied by a batch root and the round path above it.
std::optional<Bytes> round_payload(const NetworkId& home, std::uint16_t leaf_count,
                                   const crypto::Sha256Digest& batch_root,
                                   std::uint16_t batch_index, std::uint16_t batch_count,
                                   std::span<const crypto::Sha256Digest> round) {
  const auto root = crypto::merkle_root_from_path(round_leaf(leaf_count, batch_root),
                                                  batch_index, batch_count, round);
  if (!root) return std::nullopt;
  return round_signed_payload(home, batch_count, *root);
}

// ---- Bundle fields -------------------------------------------------------------
// Each bundle's signed fields are declared once, over any wire::Encoder sink:
// its encoding writes them, then its position and the round signature, and
// its batch leaf hashes a domain label, then them.

template <typename Out>
void write_fields(Out& out, const AuthVectorBundle& b) {
  out.string(b.home_network.str());
  out.string(b.supi.str());
  out.u64(b.sqn);
  out.fixed(b.rand);
  out.fixed(b.autn);
  out.fixed(b.hxres_star);
  out.boolean(b.flood);
}

template <typename Out>
void write_fields(Out& out, const KeyShareBundle& b) {
  out.string(b.home_network.str());
  out.string(b.supi.str());
  out.fixed(b.hxres_star);
  out.u8(b.share.x);
  out.bytes(b.share.y);  // DAUTH_DISCLOSE(Shamir share ordinate: below-threshold subsets reveal nothing, §4.1)
}

constexpr std::string_view leaf_label(const AuthVectorBundle&) { return "auth-vector-bundle-v1"; }
constexpr std::string_view leaf_label(const KeyShareBundle&) { return "key-share-bundle-v1"; }

// The batch leaf's data: the domain label, then the signed fields.
template <typename Out, typename Bundle>
void write_leaf(Out& out, const Bundle& b) {
  out.string(leaf_label(b));
  write_fields(out, b);
}

template <typename Out, typename Bundle>
void write_bundle(Out& out, const Bundle& b) {
  write_fields(out, b);
  write_batch_path(out, b.batch);
  out.fixed(b.home_signature);
}

template <typename Bundle>
crypto::Sha256Digest leaf_of(const Bundle& b) {
  LeafHasher leaf;
  write_leaf(leaf, b);
  return leaf.finish();
}

template <typename Bundle>
std::optional<Bytes> bundle_payload(const Bundle& bundle) {
  const BatchPath& p = bundle.batch;
  const std::span<const crypto::Sha256Digest> path(p.siblings);
  const std::size_t in_batch = crypto::merkle_path_length(p.leaf_index, p.leaf_count);
  if (path.size() < in_batch) return std::nullopt;
  const auto batch_root = crypto::merkle_root_from_path(bundle.leaf_hash(), p.leaf_index,
                                                        p.leaf_count, path.first(in_batch));
  if (!batch_root) return std::nullopt;
  return round_payload(bundle.home_network, p.leaf_count, *batch_root, p.batch_index,
                       p.batch_count, path.subspan(in_batch));
}

template <typename Bundle>
bool verify_bundle(const Bundle& bundle, const crypto::Ed25519PublicKey& home_key) {
  const auto payload = bundle_payload(bundle);
  return payload && crypto::ed25519_verify(*payload, bundle.home_signature, home_key);
}

// One batch of a round being signed: its bundles, and where its round path
// goes (null when the caller keeps none, as for a round of one batch).
struct RoundBatch {
  std::span<AuthVectorBundle> vectors;
  std::span<KeyShareBundle> shares;
  std::vector<crypto::Sha256Digest>* round = nullptr;
};

void sign_batches(std::span<const RoundBatch> batches, const crypto::Ed25519KeyPair& key) {
  if (batches.size() > kMaxPositions) throw std::invalid_argument("sign_round: too many batches");
  const NetworkId* home = nullptr;  // the first bundle's
  std::vector<crypto::Sha256Digest> round_leaves;
  round_leaves.reserve(batches.size());
  for (const RoundBatch& batch : batches) {
    const std::size_t count = batch.vectors.size() + batch.shares.size();
    if (count == 0) throw std::invalid_argument("sign_round: empty batch");
    if (count > kMaxPositions) throw std::invalid_argument("sign_round: batch too large");
    std::vector<crypto::Sha256Digest> leaves;
    leaves.reserve(count);
    const auto add_leaf = [&](const auto& bundle) {
      if (home == nullptr) home = &bundle.home_network;
      if (bundle.home_network != *home) {
        throw std::invalid_argument("sign_round: bundles of different home networks");
      }
      leaves.push_back(bundle.leaf_hash());
    };
    for (const auto& v : batch.vectors) add_leaf(v);
    for (const auto& s : batch.shares) add_leaf(s);
    round_leaves.push_back(round_leaf(static_cast<std::uint16_t>(count),
                                      crypto::MerkleTree(std::move(leaves)).root()));
  }

  const auto batch_count = static_cast<std::uint16_t>(batches.size());
  const crypto::MerkleTree round(std::move(round_leaves));
  const crypto::Ed25519Signature signature =
      crypto::ed25519_sign(round_signed_payload(*home, batch_count, round.root()), key);
  for (std::uint16_t b = 0; b < batch_count; ++b) {
    const RoundBatch& batch = batches[b];
    if (batch.round != nullptr) *batch.round = round.path(b);
    const auto leaf_count = static_cast<std::uint16_t>(batch.vectors.size() + batch.shares.size());
    std::uint16_t index = 0;
    const auto place = [&](auto& bundle) {
      bundle.batch = BatchPath{index++, leaf_count, b, batch_count, {}};
      bundle.home_signature = signature;
    };
    for (auto& v : batch.vectors) place(v);
    for (auto& s : batch.shares) place(s);
  }
}

crypto::ShamirShare read_shamir_share(wire::Reader& r) {
  crypto::ShamirShare share;
  share.x = r.u8();
  share.y = r.bytes();
  return share;
}

// A KeyShareBundle's wire form, shared by its own decoding and by the
// ShareReply that carries it.
KeyShareBundle read_share_bundle(wire::Reader& r) {
  KeyShareBundle b;
  b.home_network = NetworkId(r.string());
  b.supi = Supi(r.string());
  b.hxres_star = r.fixed<16>();
  b.share = read_shamir_share(r);
  b.batch = read_batch_path(r);
  b.home_signature = r.fixed<64>();
  return b;
}

}  // namespace

// ---- AuthVectorBundle -------------------------------------------------------

crypto::Sha256Digest AuthVectorBundle::leaf_hash() const { return leaf_of(*this); }

Bytes AuthVectorBundle::signed_payload() const {
  wire::Writer w;
  write_leaf(w, *this);
  return std::move(w).take();
}

Bytes AuthVectorBundle::encode() const {
  wire::Writer w;
  write_bundle(w, *this);
  return std::move(w).take();
}

AuthVectorBundle AuthVectorBundle::decode(ByteView data) {
  wire::Reader r(data);
  AuthVectorBundle b;
  b.home_network = NetworkId(r.string());
  b.supi = Supi(r.string());
  b.sqn = r.u64();
  b.rand = r.fixed<16>();
  b.autn = r.fixed<16>();
  b.hxres_star = r.fixed<16>();
  b.flood = r.boolean();
  b.batch = read_batch_path(r);
  b.home_signature = r.fixed<64>();
  r.expect_done();
  return b;
}

std::optional<Bytes> AuthVectorBundle::batch_payload() const { return bundle_payload(*this); }

bool AuthVectorBundle::verify(const crypto::Ed25519PublicKey& home_key) const {
  return verify_bundle(*this, home_key);
}

// ---- KeyShareBundle ---------------------------------------------------------

crypto::Sha256Digest KeyShareBundle::leaf_hash() const { return leaf_of(*this); }

Bytes KeyShareBundle::signed_payload() const {
  wire::Writer w;
  write_leaf(w, *this);
  return std::move(w).take();
}

Bytes KeyShareBundle::encode() const {
  wire::Writer w;
  write_bundle(w, *this);
  return std::move(w).take();
}

KeyShareBundle KeyShareBundle::decode(ByteView data) {
  wire::Reader r(data);
  KeyShareBundle b = read_share_bundle(r);
  r.expect_done();
  return b;
}

std::optional<Bytes> KeyShareBundle::batch_payload() const { return bundle_payload(*this); }

bool KeyShareBundle::verify(const crypto::Ed25519PublicKey& home_key) const {
  return verify_bundle(*this, home_key);
}

// ---- Dissemination rounds ---------------------------------------------------

void sign_batch(std::span<AuthVectorBundle> vectors, std::span<KeyShareBundle> shares,
                const crypto::Ed25519KeyPair& key) {
  if (vectors.empty() && shares.empty()) return;
  const RoundBatch batch{vectors, shares};
  sign_batches({&batch, 1}, key);
}

void sign_single(AuthVectorBundle& bundle, const crypto::Ed25519KeyPair& key) {
  sign_batch({&bundle, 1}, {}, key);
}

void sign_single(KeyShareBundle& bundle, const crypto::Ed25519KeyPair& key) {
  sign_batch({}, {&bundle, 1}, key);
}

void sign_round(std::span<StoreMaterialRequest> requests, const crypto::Ed25519KeyPair& key) {
  if (requests.empty()) return;
  std::vector<RoundBatch> batches;
  batches.reserve(requests.size());
  for (StoreMaterialRequest& request : requests) {
    batches.push_back({request.vectors, request.shares, &request.round});
  }
  sign_batches(batches, key);
}

// ---- UsageProof -------------------------------------------------------------

Bytes UsageProof::signed_payload() const {
  wire::Writer w;
  w.string("usage-proof-v1");
  w.string(serving_network.str());
  w.string(supi.str());
  w.fixed(hxres_star);
  w.fixed(res_star);  // DAUTH_DISCLOSE(RES* preimage release is the proof of vector use, §4.2.2)
  w.i64(timestamp);
  return std::move(w).take();
}

Bytes UsageProof::encode() const {
  wire::Writer w;
  w.string(serving_network.str());
  w.string(supi.str());
  w.fixed(hxres_star);
  w.fixed(res_star);  // DAUTH_DISCLOSE(RES* preimage release is the proof of vector use, §4.2.2)
  w.i64(timestamp);
  w.fixed(serving_signature);
  return std::move(w).take();
}

UsageProof UsageProof::decode(ByteView data) {
  wire::Reader r(data);
  UsageProof p;
  p.serving_network = NetworkId(r.string());
  p.supi = Supi(r.string());
  p.hxres_star = r.fixed<16>();
  p.res_star = r.fixed<16>();
  p.timestamp = r.i64();
  p.serving_signature = r.fixed<64>();
  r.expect_done();
  return p;
}

bool UsageProof::verify(const crypto::Ed25519PublicKey& serving_key) const {
  return crypto::ed25519_verify(signed_payload(), serving_signature, serving_key);
}

// ---- RPC payloads -----------------------------------------------------------

namespace {

// A bundle as a length-prefixed frame, written in place.
template <typename Out, typename Bundle>
void write_framed(Out& out, const Bundle& b) {
  ByteCounter length;
  write_bundle(length, b);
  out.u32(static_cast<std::uint32_t>(length.size()));
  write_bundle(out, b);
}

template <typename Out>
void write_request(Out& out, const StoreMaterialRequest& req) {
  out.string(req.home_network.str());
  out.u32(static_cast<std::uint32_t>(req.vectors.size()));
  for (const auto& v : req.vectors) write_framed(out, v);
  out.u32(static_cast<std::uint32_t>(req.shares.size()));
  for (const auto& s : req.shares) write_framed(out, s);
  write_hashes(out, req.round);
  out.bytes(req.suci_secret);  // DAUTH_DISCLOSE(deconcealment secret is provisioned to backups by design, §4.2)
}

// The next length-prefixed frame, as a view into the reader's input.
ByteView read_frame(wire::Reader& r) { return r.raw(r.u32()); }

}  // namespace

Bytes StoreMaterialRequest::encode() const {
  // A request carries a whole batch and is held until its push completes,
  // so it is sized exactly before it is written.
  ByteCounter size;
  write_request(size, *this);
  wire::Writer w;
  w.reserve(size.size());
  write_request(w, *this);
  return std::move(w).take();
}

StoreMaterialRequest StoreMaterialRequest::decode(ByteView data) {
  wire::Reader r(data);
  StoreMaterialRequest req;
  req.home_network = NetworkId(r.string());
  const std::uint32_t vector_count = r.u32();
  req.vectors.reserve(vector_count);
  for (std::uint32_t i = 0; i < vector_count; ++i)
    req.vectors.push_back(AuthVectorBundle::decode(read_frame(r)));
  const std::uint32_t share_count = r.u32();
  req.shares.reserve(share_count);
  for (std::uint32_t i = 0; i < share_count; ++i)
    req.shares.push_back(KeyShareBundle::decode(read_frame(r)));
  req.round = read_hashes(r);
  req.suci_secret = r.bytes();
  r.expect_done();
  return req;
}

bool BundleBatch::verify_root(const NetworkId& home,
                              const crypto::Ed25519PublicKey& home_key) const {
  const auto payload =
      round_payload(home, static_cast<std::uint16_t>(tree.leaf_count()), tree.root(), batch_index,
                    batch_count, round);
  return payload && crypto::ed25519_verify(*payload, signature, home_key);
}

BatchPath BundleBatch::position(std::uint16_t leaf_index) const {
  BatchPath path{leaf_index, static_cast<std::uint16_t>(tree.leaf_count()), batch_index,
                 batch_count, tree.path(leaf_index)};
  path.siblings.insert(path.siblings.end(), round.begin(), round.end());
  return path;
}

std::optional<std::vector<BundleBatch>> split_batches(const StoreMaterialRequest& request) {
  struct Open {
    BatchPath position;  // the first bundle's, without a path
    crypto::Ed25519Signature signature;
    std::vector<crypto::Sha256Digest> leaves;
  };
  const std::size_t total = request.vectors.size() + request.shares.size();
  if (total == 0) return std::nullopt;  // nothing signed: nothing to accept
  std::vector<BundleBatch> batches;
  std::optional<Open> open;
  std::size_t position = 0;
  const auto add = [&](const auto& bundle) {
    const BatchPath& path = bundle.batch;
    if (bundle.home_network != request.home_network || !path.siblings.empty()) return false;
    if (!open) {
      if (path.leaf_index != 0 || path.leaf_count == 0 || path.leaf_count > total - position ||
          request.round.size() != crypto::merkle_path_length(path.batch_index, path.batch_count)) {
        return false;
      }
      open = Open{path, bundle.home_signature, {}};
      open->leaves.reserve(path.leaf_count);
    } else if (path.leaf_index != open->leaves.size() ||
               path.leaf_count != open->position.leaf_count ||
               path.batch_index != open->position.batch_index ||
               path.batch_count != open->position.batch_count ||
               bundle.home_signature != open->signature) {
      return false;
    }
    open->leaves.push_back(bundle.leaf_hash());
    ++position;
    if (open->leaves.size() == open->position.leaf_count) {
      batches.push_back({crypto::MerkleTree(std::move(open->leaves)),
                         open->position.batch_index, open->position.batch_count, request.round,
                         open->signature});
      open.reset();
    }
    return true;
  };
  for (const auto& v : request.vectors) {
    if (!add(v)) return std::nullopt;
  }
  for (const auto& s : request.shares) {
    if (!add(s)) return std::nullopt;
  }
  if (open) return std::nullopt;  // the last batch is missing bundles
  return batches;
}

Bytes GetVectorRequest::encode() const {
  wire::Writer w;
  w.string(serving_network.str());
  w.string(supi.str());
  w.bytes(suci);
  return std::move(w).take();
}

GetVectorRequest GetVectorRequest::decode(ByteView data) {
  wire::Reader r(data);
  GetVectorRequest req;
  req.serving_network = NetworkId(r.string());
  req.supi = Supi(r.string());
  req.suci = r.bytes();
  r.expect_done();
  return req;
}

Bytes ShareReply::encode() const {
  wire::Writer w;
  write_bundle(w, share);
  w.u32(vectors_left);
  return std::move(w).take();
}

ShareReply ShareReply::decode(ByteView data) {
  wire::Reader r(data);
  ShareReply reply;
  reply.share = read_share_bundle(r);
  reply.vectors_left = r.u32();
  r.expect_done();
  return reply;
}

Bytes ReportRequest::encode() const {
  wire::Writer w;
  w.string(backup_network.str());
  w.u32(static_cast<std::uint32_t>(proofs.size()));
  for (const auto& p : proofs) w.bytes(p.encode());
  return std::move(w).take();
}

ReportRequest ReportRequest::decode(ByteView data) {
  wire::Reader r(data);
  ReportRequest req;
  req.backup_network = NetworkId(r.string());
  const std::uint32_t count = r.u32();
  req.proofs.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) req.proofs.push_back(UsageProof::decode(r.bytes()));
  r.expect_done();
  return req;
}

Bytes RevokeSharesRequest::signed_payload() const {
  wire::Writer w;
  w.string("revoke-shares-v1");
  w.string(home_network.str());
  w.string(supi.str());
  w.u32(static_cast<std::uint32_t>(hxres_indices.size()));
  for (const auto& h : hxres_indices) w.fixed(h);
  return std::move(w).take();
}

Bytes RevokeSharesRequest::encode() const {
  wire::Writer w;
  w.string(home_network.str());
  w.string(supi.str());
  w.u32(static_cast<std::uint32_t>(hxres_indices.size()));
  for (const auto& h : hxres_indices) w.fixed(h);
  w.fixed(home_signature);
  return std::move(w).take();
}

RevokeSharesRequest RevokeSharesRequest::decode(ByteView data) {
  wire::Reader r(data);
  RevokeSharesRequest req;
  req.home_network = NetworkId(r.string());
  req.supi = Supi(r.string());
  const std::uint32_t count = r.u32();
  req.hxres_indices.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) req.hxres_indices.push_back(r.fixed<16>());
  req.home_signature = r.fixed<64>();
  r.expect_done();
  return req;
}

bool RevokeSharesRequest::verify(const crypto::Ed25519PublicKey& home_key) const {
  return crypto::ed25519_verify(signed_payload(), home_signature, home_key);
}

// ---- Small typed-stub payloads ---------------------------------------------

Bytes GutiResolveRequest::encode() const {
  wire::Writer w;
  w.u64(guti);
  return std::move(w).take();
}

GutiResolveRequest GutiResolveRequest::decode(ByteView data) {
  wire::Reader r(data);
  GutiResolveRequest req;
  req.guti = r.u64();
  r.expect_done();
  return req;
}

Bytes GutiResolveReply::encode() const {
  wire::Writer w;
  w.string(supi.str());
  w.string(home.str());
  return std::move(w).take();
}

GutiResolveReply GutiResolveReply::decode(ByteView data) {
  wire::Reader r(data);
  GutiResolveReply reply;
  reply.supi = Supi(r.string());
  reply.home = NetworkId(r.string());
  r.expect_done();
  return reply;
}

Bytes HandoverContextRequest::encode() const {
  wire::Writer w;
  w.bytes(payload);
  w.fixed(signature);
  return std::move(w).take();
}

HandoverContextRequest HandoverContextRequest::decode(ByteView data) {
  wire::Reader r(data);
  HandoverContextRequest req;
  req.payload = r.bytes();
  req.signature = r.fixed<64>();
  r.expect_done();
  return req;
}

Bytes HandoverContextReply::encode() const {
  wire::Writer w;
  w.string(supi.str());
  w.string(home.str());
  w.fixed(k_ho);  // DAUTH_DISCLOSE(K_ho handover key; only sent to a signature-verified target network, §4.4)
  w.u32(counter);
  return std::move(w).take();
}

HandoverContextReply HandoverContextReply::decode(ByteView data) {
  wire::Reader r(data);
  HandoverContextReply reply;
  reply.supi = Supi(r.string());
  reply.home = NetworkId(r.string());
  reply.k_ho = r.fixed<32>();
  reply.counter = r.u32();
  r.expect_done();
  return reply;
}

Bytes ResyncRequest::encode() const {
  wire::Writer w;
  w.string(supi.str());
  w.fixed(rand);
  w.fixed(auts.sqn_ms_xor_ak_star);
  w.fixed(auts.mac_s);
  return std::move(w).take();
}

ResyncRequest ResyncRequest::decode(ByteView data) {
  wire::Reader r(data);
  ResyncRequest req;
  req.supi = Supi(r.string());
  req.rand = r.fixed<16>();
  req.auts.sqn_ms_xor_ak_star = r.fixed<6>();
  req.auts.mac_s = r.fixed<8>();
  r.expect_done();
  return req;
}

Bytes KeyReply::encode() const {
  // DAUTH_DISCLOSE(K_seaf release to the serving network that proved vector use, §4.2.2)
  return to_bytes(ByteView(k_seaf));
}

KeyReply KeyReply::decode(ByteView data) {
  if (data.size() != 32) throw wire::WireError("bad key reply size");
  KeyReply reply;
  reply.k_seaf = take<32>(data);
  return reply;
}

}  // namespace dauth::core
