// Self-test corpus for the dauth-taint analyzer (tools/taint_core.h).
//
// Mirrors the dauth-lint self-test contract: every rule is exercised with
// seeded-violation fixtures that MUST be flagged and near-miss siblings that
// MUST stay clean. If a propagation path or a contract check regresses, the
// positive fixture stops flagging and this test fails before src/ can rot;
// if a suppression (public override, sanitizer, disclosure) regresses, the
// negative fixture starts flagging and the src/ sweep turns red.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "taint_core.h"

namespace dauth::taint {
namespace {

Options taint_only() {
  Options o;
  o.contracts = false;
  return o;
}

Analysis run(std::string_view code, Options options = taint_only(),
             std::string_view path = "src/core/fixture.cpp") {
  return analyze({{std::string(path), std::string(code)}}, options);
}

bool has_rule(const Analysis& a, std::string_view rule) {
  return std::any_of(a.findings.begin(), a.findings.end(),
                     [&](const lint::Finding& f) { return f.rule == rule; });
}

int count_rule(const Analysis& a, std::string_view rule) {
  return static_cast<int>(std::count_if(
      a.findings.begin(), a.findings.end(),
      [&](const lint::Finding& f) { return f.rule == rule; }));
}

// ===========================================================================
// Taint pass positives: seeded violations that MUST be flagged.

TEST(TaintT1, SecretLexiconIdentifierIntoWriter) {
  const auto a = run("void f(wire::Writer& w, const Bytes& k_seaf) { w.bytes(k_seaf); }");
  ASSERT_TRUE(has_rule(a, "T1"));
  EXPECT_EQ(a.findings[0].line, 1);
}

TEST(TaintT1, SecretTypedParameterIntoWriter) {
  // No lexicon hit on the name: taint comes purely from the Secret<32> type.
  const auto a = run("void f(wire::Writer& w, const Secret<32>& material) {\n"
                     "  w.fixed(material);\n"
                     "}");
  EXPECT_TRUE(has_rule(a, "T1"));
}

TEST(TaintT1, TaintSurvivesLocalCopy) {
  const auto a = run("void f(wire::Writer& w) {\n"
                     "  Bytes buf;\n"
                     "  buf = session.k_seaf;\n"
                     "  w.bytes(buf);\n"
                     "}");
  EXPECT_TRUE(has_rule(a, "T1"));
}

TEST(TaintT1, TaintSurvivesMemcpyIntoPlainBuffer) {
  const auto a = run("void f(wire::Writer& w, const Key256& k) {\n"
                     "  std::uint8_t buf[32];\n"
                     "  std::memcpy(buf, k.data(), 32);\n"
                     "  w.raw(buf, 32);\n"
                     "}");
  EXPECT_TRUE(has_rule(a, "T1"));
}

TEST(TaintT1, InterproceduralParamToSink) {
  // The sink is one call away: `emit` forwards its parameter to the writer.
  const auto a = run("void emit(wire::Writer& w, const Bytes& payload) { w.bytes(payload); }\n"
                     "void caller(wire::Writer& w, const Bytes& res_star) {\n"
                     "  emit(w, res_star);\n"
                     "}");
  EXPECT_TRUE(has_rule(a, "T1"));
  const FunctionSummary* emit = a.find_function("emit");
  ASSERT_NE(emit, nullptr);
  EXPECT_EQ(emit->params_to_sink, std::uint64_t{1} << 2);  // bit i+1 <=> param i
}

TEST(TaintT1, ReturnedSecretFlowsToSink) {
  const auto a = run("Key256 derive_session() { Key256 out; return out; }\n"
                     "void f(wire::Writer& w) {\n"
                     "  auto material = derive_session();\n"
                     "  w.fixed(material);\n"
                     "}");
  EXPECT_TRUE(has_rule(a, "T1"));
}

TEST(TaintT1, CarryingTypeEncodeIsTainted) {
  // KeyShareBundle carries a secret member, so its serialized form is secret.
  const auto a = run("struct KeyShareBundle { Bytes share_y; Bytes encode() const; };\n"
                     "void f(wire::Writer& w, const KeyShareBundle& b) {\n"
                     "  w.bytes(b.encode());\n"
                     "}");
  EXPECT_TRUE(has_rule(a, "T1"));
  const auto& carrying = a.secret_carrying_types;
  EXPECT_NE(std::find(carrying.begin(), carrying.end(), "KeyShareBundle"), carrying.end());
}

TEST(TaintT1, CarryingTypeIsTransitive) {
  // Wrapper carries a KeyShareBundle member, so the wrapper carries too.
  const auto a = run("struct KeyShareBundle { Bytes share_y; };\n"
                     "struct Wrapper { KeyShareBundle inner; };\n"
                     "void f(wire::Writer& w, const Wrapper& x) { w.bytes(x); }");
  EXPECT_TRUE(has_rule(a, "T1"));
}

TEST(TaintT1, TemplatedEncoderReceiverIsASink) {
  // Generic code over `template <typename Out>` may be instantiated with any
  // wire::Encoder, so a wire method on an Out is the wire encoder.
  const auto a = run("template <typename Out>\n"
                     "void write_fields(Out& out, const KeyShareBundle& b) {\n"
                     "  out.u8(b.share.x);\n"
                     "  out.bytes(b.share.y);\n"
                     "}");
  ASSERT_EQ(count_rule(a, "T1"), 1);
  EXPECT_EQ(a.findings[0].line, 4);
}

TEST(TaintT1, EncoderSubclassReceiverIsASink) {
  const auto a = run("class LeafHasher : public wire::Encoder<LeafHasher> {\n"
                     " public:\n"
                     "  void raw(ByteView data);\n"
                     "};\n"
                     "void f(const Key256& k_seaf) {\n"
                     "  LeafHasher leaf;\n"
                     "  leaf.fixed(k_seaf);\n"
                     "}");
  EXPECT_EQ(count_rule(a, "T1"), 1);
}

TEST(TaintT1, FieldListSecretMemberReachesEncoder) {
  // A message's field list feeds encode() through whatever visitor F is.
  const auto a = run("struct KeyReply {\n"
                     "  crypto::Key256 k_seaf{};\n"
                     "  template <typename F, typename Self>\n"
                     "  static void fields(F& f, Self& m) {\n"
                     "    f.field(m.k_seaf);\n"
                     "  }\n"
                     "};");
  ASSERT_EQ(count_rule(a, "T1"), 1);
  EXPECT_EQ(a.findings[0].line, 5);
}

TEST(TaintT1, FieldListSecretTypedMemberReachesEncoder) {
  // A member declared Secret<N> is secret whatever its name: the ordinate
  // `y` of a persisted share reaches the encoder through `m.y`.
  const auto a = run("struct ShareLeaf {\n"
                     "  std::uint8_t x = 0;\n"
                     "  Secret<32> y;\n"
                     "  template <typename F, typename Self>\n"
                     "  static void fields(F& f, Self& m) {\n"
                     "    f.field(m.x);\n"
                     "    f.field(m.y);\n"
                     "  }\n"
                     "};");
  ASSERT_EQ(count_rule(a, "T1"), 1);
  EXPECT_EQ(a.findings[0].line, 7);
}

TEST(TaintT2, ToHexOfSecret) {
  const auto a = run("std::string f() { return to_hex(opc_value); }");
  EXPECT_TRUE(has_rule(a, "T2"));
}

TEST(TaintT2, StreamInsertionOfSecret) {
  const auto a = run("void f(std::ostream& os) { os << state.k_seaf; }");
  EXPECT_TRUE(has_rule(a, "T2"));
}

TEST(TaintT3, SecretIntoKvStore) {
  const auto a = run("void f(store::KvStore& store, const Bytes& share_bytes) {\n"
                     "  store.put(\"x\", share_bytes);\n"
                     "}");
  EXPECT_TRUE(has_rule(a, "T3"));
}

TEST(TaintT3, SecretIntoWal) {
  const auto a = run("void f(store::Wal& wal, const Bytes& k_material) {\n"
                     "  wal.append(k_material);\n"
                     "}");
  EXPECT_TRUE(has_rule(a, "T3"));
}

TEST(TaintT3, SecretArgumentOfANestedPublicReturningCallIsClean) {
  // make_entry signs with the key and returns only public fields, so what
  // reaches keep() is its summary's return, not every argument passed in.
  // echo() returns its argument, which keeps carrying the secret.
  const std::string defs =
      "struct Entry { int id; Bytes signature; };\n"
      "Entry make_entry(int id, const crypto::Ed25519KeyPair& key_pair) {\n"
      "  Entry e;\n"
      "  e.id = id;\n"
      "  e.signature = crypto::ed25519_sign(e.payload(), key_pair);\n"
      "  return e;\n"
      "}\n"
      "Bytes echo(const Bytes& v) { return v; }\n"
      "void keep(store::KvStore& store, const Entry& entry) {\n"
      "  store.put(\"e\", wire::encode(entry));\n"
      "}\n"
      "void keep_bytes(store::KvStore& store, const Bytes& value) { store.put(\"b\", value); }\n";
  const auto clean = run(defs + "void publish(store::KvStore& store, const Bytes& k_seaf) {\n"
                                "  keep(store, make_entry(1, k_seaf));\n"
                                "}");
  EXPECT_FALSE(has_rule(clean, "T3"));
  // A field read off the call is as clean as the call, chained or bound to
  // a local first.
  const auto chained = run(defs + "void publish(store::KvStore& store, const Bytes& k_seaf) {\n"
                                  "  keep_bytes(store, make_entry(1, k_seaf).signature);\n"
                                  "}");
  EXPECT_FALSE(has_rule(chained, "T3"));
  const auto bound = run(defs + "void publish(store::KvStore& store, const Bytes& k_seaf) {\n"
                                "  const Entry entry = make_entry(1, k_seaf);\n"
                                "  keep_bytes(store, entry.signature);\n"
                                "}");
  EXPECT_FALSE(has_rule(bound, "T3"));
  const auto carried = run(defs + "void publish(store::KvStore& store, const Bytes& k_seaf) {\n"
                                  "  keep_bytes(store, echo(k_seaf));\n"
                                  "}");
  EXPECT_TRUE(has_rule(carried, "T3"));
  const auto carried_chained =
      run(defs + "void publish(store::KvStore& store, const Bytes& k_seaf) {\n"
                 "  keep_bytes(store, echo(k_seaf).data());\n"
                 "}");
  EXPECT_TRUE(has_rule(carried_chained, "T3"));
}

TEST(TaintT3, SecretRecordEncodedIntoAStorePutIsReported) {
  // wire::encode reaches its bytes through the message's field list, which
  // its summary cannot follow; the encoder still carries the record.
  const auto a = run("template <typename T> Bytes encode(const T& message) {\n"
                     "  Writer w;\n"
                     "  T::fields(w, message);\n"
                     "  return std::move(w).take();\n"
                     "}\n"
                     "struct HeldShares { Bytes share_y; };\n"
                     "void f(store::KvStore& store, const HeldShares& held) {\n"
                     "  store.put(\"held\", wire::encode(held));\n"
                     "}");
  EXPECT_TRUE(has_rule(a, "T3"));
}

TEST(TaintT3, SecretRecordEncodedIntoAStoreAppendIsReported) {
  // KvStore::append persists as put does: a backup appends each pending
  // proof's entry, RES* included, to its open segment.
  const std::string defs = "template <typename T> Bytes encode(const T& message) {\n"
                           "  Writer w;\n"
                           "  T::fields(w, message);\n"
                           "  return std::move(w).take();\n"
                           "}\n"
                           "struct ProofEntry { Bytes res_star; };\n";
  const auto a = run(defs + "void f(store::KvStore* store_, const ProofEntry& entry) {\n"
                            "  store_->append(\"proof/h/0\", wire::encode(entry));\n"
                            "}");
  ASSERT_EQ(count_rule(a, "T3"), 1);
  EXPECT_EQ(a.findings[0].line, 8);
}

TEST(TaintT4, SecretIntoRpcPayload) {
  const auto a = run("void f(const Bytes& xres_bytes) { rpc_.call(7, \"svc\", xres_bytes); }");
  EXPECT_TRUE(has_rule(a, "T4"));
}

TEST(TaintT4, SecretIntoResponderReply) {
  const auto a = run("void f(sim::Responder& responder, const Key256& k_seaf) {\n"
                     "  responder.reply(to_bytes(ByteView(k_seaf)));\n"
                     "}");
  EXPECT_TRUE(has_rule(a, "T4"));
}

// A held batch, as a backup keeps it: its shares carry secrets, so a handle
// to it is tainted whole; its tree position and vector leaves are inert.
// Returns a handler that takes a handle from the batch map, then `body`.
std::string held_batch_handler(std::string_view body) {
  return "struct ShareLeaf { std::uint8_t x = 0; Secret<32> y; };\n"
         "struct VectorLeaf { std::uint64_t sqn = 0; bool flood = false; };\n"
         "struct BundleBatch { std::uint16_t batch_index = 0; };\n"
         "struct HeldBatch {\n"
         "  BundleBatch batch;\n"
         "  std::vector<VectorLeaf> vectors;\n"
         "  std::vector<ShareLeaf> shares;\n"
         "  Bytes blob;\n"
         "};\n"
         "void f(sim::Responder& responder, std::map<int, HeldBatch>& batches) {\n"
         "  HeldBatch* held = next_batch(batches);\n" +
         std::string(body) + "}";
}

TEST(TaintT4, SecretPartsOfATaintedHandleReachReply) {
  // Its shares, the handle whole, and a raw buffer member, which may hold
  // whatever was copied into it, all keep the handle's taint.
  for (const char* sunk : {"held->shares", "*held", "held->blob"}) {
    const auto a = run(held_batch_handler("  responder.reply(" + std::string(sunk) + ");\n"));
    ASSERT_EQ(count_rule(a, "T4"), 1) << sunk;
    EXPECT_EQ(a.findings[0].line, 12) << sunk;
  }
}

TEST(TaintT4, SameNamedLocalsEachResolveToTheirOwnType) {
  // Two locals named `link`, of different types, in two blocks; only
  // Uplink's push sends its argument to the network. A use resolves to the
  // declaration in scope, so the sink is flagged through the Uplink local
  // whichever of the two is declared last.
  const std::string pushes =
      "struct Uplink { void push(const Bytes& payload); };\n"
      "struct Logbook { void push(const Bytes& payload); };\n"
      "void Uplink::push(const Bytes& payload) { rpc.call(7, \"svc\", payload); }\n"
      "void Logbook::push(const Bytes& payload) { count += payload.size(); }\n"
      "void f(const Key256& k_seaf) {\n";
  const auto uplink_first = run(pushes +
                                "  { Uplink link; link.push(k_seaf); }\n"
                                "  { Logbook link; link.push(k_seaf); }\n"
                                "}");
  ASSERT_EQ(count_rule(uplink_first, "T4"), 1);
  EXPECT_EQ(uplink_first.findings[0].line, 6);
  const auto uplink_last = run(pushes +
                               "  { Logbook link; link.push(k_seaf); }\n"
                               "  { Uplink link; link.push(k_seaf); }\n"
                               "}");
  ASSERT_EQ(count_rule(uplink_last, "T4"), 1);
  EXPECT_EQ(uplink_last.findings[0].line, 7);
}

TEST(TaintT5, DisclosureWithoutReason) {
  const auto a = run("void f(wire::Writer& w, const Bytes& k) {\n"
                     "  w.bytes(k);  // DAUTH_DISCLOSE()\n"
                     "}");
  EXPECT_TRUE(has_rule(a, "T5"));
  // An empty reason does NOT suppress the underlying flow either.
  EXPECT_TRUE(has_rule(a, "T1"));
}

TEST(TaintT6, SecretIntoTracerAttribute) {
  // Span attrs are exported verbatim (src/obs exporters): a tainted value
  // reaching Tracer::set_attr is a disclosure.
  const auto a = run("void f(obs::Tracer& tracer, const Bytes& k_seaf) {\n"
                     "  tracer.set_attr(ctx, \"k\", to_hex_free(k_seaf));\n"
                     "}");
  EXPECT_TRUE(has_rule(a, "T6"));
}

TEST(TaintT6, SecretIntoSpanAnnotate) {
  const auto a = run("void f(obs::SpanRecorder& span, const Secret<32>& material) {\n"
                     "  span.annotate(\"m\", material);\n"
                     "}");
  EXPECT_TRUE(has_rule(a, "T6"));
}

TEST(TaintT6, InterproceduralSecretReachesSpanAttr) {
  const auto a = run("void tag(obs::Tracer& tracer, const Bytes& value) {\n"
                     "  tracer.set_attr(ctx, \"v\", value);\n"
                     "}\n"
                     "void caller(obs::Tracer& tracer, const Bytes& res_star) {\n"
                     "  tag(tracer, res_star);\n"
                     "}");
  EXPECT_TRUE(has_rule(a, "T6"));
}

TEST(TaintT6, InvokedViewAccessorStillPassesWhole) {
  // `material.data()` inside the callee hands over the parameter's bytes,
  // so a secret argument at the call site is still a finding.
  const auto a = run("void tag(obs::Tracer& tracer, const SecretBytes& material) {\n"
                     "  tracer.set_attr(ctx, \"m\", hexify(material.data()));\n"
                     "}\n"
                     "void caller(obs::Tracer& tracer, const SecretBytes& k_seaf) {\n"
                     "  tag(tracer, k_seaf);\n"
                     "}");
  EXPECT_TRUE(has_rule(a, "T6"));
}

TEST(TaintT1, SecretMemberOfSecretClassEscapes) {
  // Inside Secret<N> itself every member is secret material.
  const auto a = run("struct SecretBox {\n"
                     "  Bytes bytes_;\n"
                     "  void dump(wire::Writer& w) { w.bytes(bytes_); }\n"
                     "};");
  EXPECT_TRUE(has_rule(a, "T1"));
}

// ===========================================================================
// Taint pass negatives: near-misses that MUST stay clean.

TEST(TaintClean, PublicComponentsAreNotSecret) {
  EXPECT_TRUE(run("void f(wire::Writer& w) { w.fixed(hxres_star); }").findings.empty());
  EXPECT_TRUE(run("void f(wire::Writer& w) { w.fixed(public_key); }").findings.empty());
  EXPECT_TRUE(run("void f(wire::Writer& w) { w.fixed(av.rand); w.fixed(av.autn); }")
                  .findings.empty());
}

TEST(TaintClean, MakeSharedResultIsNotAShare) {
  // std::make_shared contains the substring "share" but constructs fresh
  // state; its result must not read as Shamir material (the whole RPC layer
  // allocates call state this way and then names spans on it).
  const auto a = run("void f(obs::Tracer& tracer, const obs::TraceContext& parent) {\n"
                     "  auto state = std::make_shared<CallState>();\n"
                     "  state->span = parent;\n"
                     "  tracer.set_attr(state->span, \"peer\", \"n\");\n"
                     "}");
  EXPECT_TRUE(a.findings.empty());
}

TEST(TaintClean, SpanMemberIsNotAViewEscape) {
  // A *member* named `span` (a TraceContext) is not the `.span()` view
  // accessor: passing the owning struct to a function that only touches the
  // trace handle must not read as handing over its secret bytes.
  const auto a = run("struct KeyShareBundle { Bytes key_share; };\n"
                     "struct Attach { KeyShareBundle bundle; obs::TraceContext span; };\n"
                     "void finish(obs::Tracer& tracer, const std::shared_ptr<Attach>& attach) {\n"
                     "  tracer.set_attr(attach->span, \"path\", \"backup\");\n"
                     "}\n"
                     "void caller(obs::Tracer& tracer, const std::shared_ptr<Attach>& attach) {\n"
                     "  finish(tracer, attach);\n"
                     "}");
  EXPECT_TRUE(a.findings.empty());
}

TEST(TaintClean, PublicOverrideBeatsTaintedRoot) {
  // `material` is secret-carrying, but the hxres_star field inside is public.
  const auto a = run("void f(wire::Writer& w, const Key256& material) {\n"
                     "  auto s = to_hex(material_record.vector.hxres_star);\n"
                     "}");
  EXPECT_TRUE(a.findings.empty());
}

TEST(TaintClean, PublicKeyTypeOverridesSecretName) {
  // Name matches the lexicon, declared type says Public: type wins.
  const auto a = run("void f(wire::Writer& w) {\n"
                     "  crypto::Ed25519PublicKey signing_key;\n"
                     "  w.fixed(signing_key);\n"
                     "}");
  EXPECT_TRUE(a.findings.empty());
}

TEST(TaintClean, CurvePointTypeIsPublic) {
  const auto a = run("void f(wire::Writer& w) {\n"
                     "  crypto::X25519Point suci_key;\n"
                     "  w.fixed(suci_key);\n"
                     "}");
  EXPECT_TRUE(a.findings.empty());
}

TEST(TaintClean, FieldListPublicKeyMemberIsClean) {
  // `Self& m` is the enclosing message, so its members keep their declared
  // types: a public key named signing_key is public.
  const auto a = run("struct NetworkEntry {\n"
                     "  crypto::Ed25519PublicKey signing_key{};\n"
                     "  crypto::X25519Point suci_key{};\n"
                     "  template <typename F, typename Self>\n"
                     "  static void fields(F& f, Self& m) {\n"
                     "    f.field(m.signing_key, m.suci_key);\n"
                     "  }\n"
                     "};");
  EXPECT_TRUE(a.findings.empty());
}

TEST(TaintClean, ReaderFieldIsNotASink) {
  const auto a = run("void f(wire::Reader& r, Key256& k_seaf) { r.field(k_seaf); }");
  EXPECT_FALSE(has_rule(a, "T1"));
}

TEST(TaintClean, SanitizedFlowsAreLaundered) {
  EXPECT_TRUE(run("void f(wire::Writer& w, const Key256& k) {\n"
                  "  w.fixed(hmac_sha256(k, data));\n"
                  "}").findings.empty());
  EXPECT_TRUE(run("void f(wire::Writer& w) {\n"
                  "  const auto sig = crypto::ed25519_sign(payload, signing_key_);\n"
                  "  w.fixed(sig);\n"
                  "}").findings.empty());
  EXPECT_TRUE(run("bool f(const Key256& k, const Bytes& other) {\n"
                  "  return ct_equal(k, other);\n"
                  "}").findings.empty());
}

TEST(TaintClean, MetadataAccessorsAreHarmless) {
  EXPECT_TRUE(run("void f(wire::Writer& w, const Bytes& key) { w.u32(key.size()); }")
                  .findings.empty());
  EXPECT_TRUE(run("void f(wire::Writer& w, const Commitments& c) {\n"
                  "  w.u32(c.secret_length);\n"
                  "}").findings.empty());
  EXPECT_TRUE(run("void f(wire::Writer& w, const ShamirShare& share) { w.u8(share.x); }")
                  .findings.empty());
}

TEST(TaintClean, TracerAttrOfPublicValueIsClean) {
  // Supi, peer names, attempt counters: the attributes src/core actually
  // records. None are secret, so T6 must stay quiet.
  EXPECT_TRUE(run("void f(obs::Tracer& tracer, const Supi& supi) {\n"
                  "  tracer.set_attr(ctx, \"supi\", supi.str());\n"
                  "  tracer.set_attr(ctx, \"attempt\", attempt);\n"
                  "}").findings.empty());
}

TEST(TaintClean, SetAttrOnNonTracerBaseIsNotASink) {
  // A map named `attrs` is not the tracer; only tracer/span receivers count.
  EXPECT_TRUE(run("void f(std::map<std::string, Bytes>& attrs, const Bytes& k_seaf) {\n"
                  "  attrs.set_attr(\"k\", k_seaf);\n"
                  "}").findings.empty());
}

TEST(TaintClean, DisclosureWithReasonSuppresses) {
  const auto a = run("void f(wire::Writer& w, const Bytes& k_seaf) {\n"
                     "  w.bytes(k_seaf);  // DAUTH_DISCLOSE(release point, reviewed)\n"
                     "}");
  EXPECT_TRUE(a.findings.empty());
}

TEST(TaintClean, DisclosureOnPrecedingLineCoversSink) {
  const auto a = run("void f(const Bytes& k_seaf) {\n"
                     "  // DAUTH_DISCLOSE(share release after verification)\n"
                     "  responder.reply(k_seaf);\n"
                     "}");
  EXPECT_TRUE(a.findings.empty());
}

TEST(TaintClean, DisclosedCalleeDoesNotTaintCallers) {
  // The callee's sink is a reviewed disclosure; the caller stays clean.
  const auto a = run("void release(wire::Writer& w, const Bytes& payload) {\n"
                     "  w.bytes(payload);  // DAUTH_DISCLOSE(sanctioned release)\n"
                     "}\n"
                     "void caller(wire::Writer& w, const Bytes& k_seaf) {\n"
                     "  release(w, k_seaf);\n"
                     "}");
  EXPECT_TRUE(a.findings.empty());
}

TEST(TaintClean, FieldTaintDoesNotSmearToParent) {
  // Writing one secret field must not taint sibling fields of the struct.
  const auto a = run("void f(wire::Writer& w, const Bytes& k) {\n"
                     "  record.key_material = k;\n"
                     "  w.bytes(record.header);\n"
                     "}");
  EXPECT_TRUE(a.findings.empty());
}

TEST(TaintClean, TaintFollowsTheDeclarationNotTheName) {
  // Two locals named `home` in sibling loops: the first is built from a
  // secret-named `key` and indexes a secret's assignment, the second from a
  // public name. A use resolves to the declaration in scope, as a variable's
  // type does, so only the first carries taint.
  const std::string first_loop =
      "void BackupNetwork::restore(wire::Writer& w) {\n"
      "  for (const auto& key : store_->keys_with_prefix(\"sucikey/\")) {\n"
      "    const NetworkId home(key.substr(8));\n"
      "    homes_[home].suci_secret = take<32>(*store_->get(key));\n";
  const auto later_home = run(first_loop +
                              "  }\n"
                              "  for (const auto& name : store_->keys_with_prefix(\"batch/\")) {\n"
                              "    const NetworkId home(name.substr(6));\n"
                              "    w.bytes(home);\n"
                              "  }\n"
                              "}");
  EXPECT_TRUE(later_home.findings.empty());
  const auto same_home = run(first_loop + "    w.bytes(home);\n  }\n}");
  ASSERT_EQ(count_rule(same_home, "T1"), 1);
  EXPECT_EQ(same_home.findings[0].line, 5);
}

TEST(TaintClean, ParamFieldUseDoesNotMarkWholeParam) {
  // Only `o.failure` reaches the writer; callers passing secret-carrying
  // outcomes must stay clean (field-precision of params_to_sink).
  const auto a = run("void finish(wire::Writer& w, const Outcome& o) {\n"
                     "  w.string(o.failure);\n"
                     "}\n"
                     "void caller(wire::Writer& w, const Outcome& k_outcome) {\n"
                     "  finish(w, k_outcome);\n"
                     "}");
  const FunctionSummary* finish = a.find_function("finish");
  ASSERT_NE(finish, nullptr);
  EXPECT_EQ(finish->params_to_sink, std::uint64_t{0});
}

TEST(TaintClean, LambdaCapturesDoNotLeakIntoCallArguments) {
  // The callback mentions secret state; the rpc payload itself is clean.
  const auto a = run("void f(const Bytes& clean_payload, const Key256& k_seaf) {\n"
                     "  rpc_.call(7, \"svc\", clean_payload,\n"
                     "            [this, k_seaf](Bytes reply) { consume(k_seaf); });\n"
                     "}");
  EXPECT_TRUE(a.findings.empty());
}

TEST(TaintClean, ReaderMethodsAreNotSinks) {
  const auto a = run("void f(wire::Reader& r, Bytes& k_out) { k_out = r.bytes(); }");
  EXPECT_FALSE(has_rule(a, "T1"));
}

TEST(TaintClean, InertMembersOfATaintedHandleAreClean) {
  // The vector a backup serves is rebuilt from its batch's position and a
  // vector leaf: neither carries a secret, so neither takes the handle's.
  const auto a = run(held_batch_handler(
      "  const AuthVectorBundle bundle = served(held->batch, held->vectors.front());\n"
      "  responder.reply(bundle);\n"));
  EXPECT_TRUE(a.findings.empty());
}

/// A backup's served path, cut from a group of leaf hashes: each held
/// share's fields, its ordinate among them, go into its leaf's hash
/// (`sibling` is what one leaf contributes), and the group into a path
/// that the reply carries.
std::string share_group_handler(std::string_view sibling) {
  return "struct ShareLeaf { std::uint16_t leaf = 0; std::uint8_t x = 0; Secret<32> y; };\n"
         "KeyShareBundle leaf_bundle(const Supi& supi, const ShareLeaf& held) {\n"
         "  return {supi, held.x, SecretBytes(ByteView(held.y))};\n"
         "}\n"
         "std::vector<Sha256Digest> group(const Supi& supi,\n"
         "                                const std::vector<ShareLeaf>& shares) {\n"
         "  std::vector<Sha256Digest> hashes(shares.size());\n"
         "  for (const ShareLeaf& share : shares) {\n"
         "    hashes[share.leaf] = " +
         std::string(sibling) +
         ";\n"
         "  }\n"
         "  return hashes;\n"
         "}\n"
         "void f(sim::Responder& responder, const Supi& supi,\n"
         "       const std::vector<ShareLeaf>& shares) {\n"
         "  responder.reply(tree.path(0, group(supi, shares)));\n"
         "}";
}

TEST(TaintClean, LeafHashOfAHeldShareIsAPublicSibling) {
  // A leaf hash is a one-way digest that every served path publishes: the
  // shares' ordinates hashed into their leaves leave the path clean.
  for (const char* sibling : {"leaf_bundle(supi, share).leaf_hash()",
                              "crypto::merkle_leaf_hash(share.y)"}) {
    EXPECT_TRUE(run(share_group_handler(sibling)).findings.empty()) << sibling;
  }
}

TEST(TaintT4, RawOrdinateInAPathGroupReachesReply) {
  // The same group with an ordinate copied in, not hashed, is a leak.
  for (const char* sibling : {"share.y", "leaf_bundle(supi, share).share.y"}) {
    const auto a = run(share_group_handler(sibling));
    ASSERT_EQ(count_rule(a, "T4"), 1) << sibling;
    EXPECT_EQ(a.findings[0].line, 15) << sibling;
  }
}

TEST(TaintClean, NonCarryingMessageEncodeIsClean) {
  // AuthVectorBundle-shaped struct: all members public -> encode is clean.
  const auto a = run("struct VectorBundle { Bytes rand_v; Bytes autn_v; Bytes hxres_star;\n"
                     "                      Bytes encode() const; };\n"
                     "void f(sim::Responder& responder, const VectorBundle& b) {\n"
                     "  responder.reply(b.encode());\n"
                     "}");
  EXPECT_TRUE(a.findings.empty());
  const auto& carrying = a.secret_carrying_types;
  EXPECT_EQ(std::find(carrying.begin(), carrying.end(), "VectorBundle"), carrying.end());
}

// ===========================================================================
// Contract pass fixtures. Handlers live in "src/core/" (the default scope);
// the table is injected per-test via Options::contract_table.

Options contracts_only(std::vector<HandlerContract> table) {
  Options o;
  o.taint = false;
  o.contract_table = std::move(table);
  return o;
}

// A table must be non-empty or the analyzer substitutes default_contracts();
// one exempt sentinel keeps fixtures self-contained.
std::vector<HandlerContract> sentinel_table() {
  return {{"unused.svc", "", {}, {}, "sentinel: keeps the injected table non-empty"}};
}

const char* kRegistration =
    "void Node::install() {\n"
    "  rpc.register_service(\"svc.op\", [this](sim::Responder& r, Bytes b) {\n"
    "    handle_op(r, b);\n"
    "  });\n"
    "}\n";

// ---- positives ------------------------------------------------------------

TEST(ContractH1, UnknownServiceIsFlagged) {
  const auto a = run(kRegistration, contracts_only(sentinel_table()));
  ASSERT_TRUE(has_rule(a, "H1"));
  EXPECT_EQ(a.findings.size(), 1u);
}

TEST(ContractH1, EveryUnknownRegistrationIsFlagged) {
  const auto a = run("void Node::install() {\n"
                     "  rpc.register_service(\"svc.one\", h1);\n"
                     "  rpc.register_service(\"svc.two\", h2);\n"
                     "}\n",
                     contracts_only(sentinel_table()));
  EXPECT_EQ(count_rule(a, "H1"), 2);
}

TEST(ContractH1, UncontractedServiceInTheTypedFormIsFlagged) {
  // A typed registration names its service through the declared constant;
  // the framework's own forwarding registration names none and is skipped.
  const auto a = run(
      "inline constexpr sim::Service<Req, Rsp> kOp{\"svc.op\"};\n"
      "inline constexpr sim::Service<Req, sim::Ack> kOther{\"svc.other\"};\n"
      "void Node::install() {\n"
      "  sim::serve(rpc, node, kOp, [this](Req q, sim::TypedResponder<Rsp> r) {\n"
      "    handle_op(q, r);\n"
      "  });\n"
      "  sim::serve(rpc, node, kOther, [this](Req q, sim::TypedResponder<sim::Ack> r) {\n"
      "    r.reply({});\n"
      "  });\n"
      "  rpc.register_service(node, std::string(service.name), [](ByteView f, Responder r) {\n"
      "    r.fail(kMalformed, \"malformed \" + name);\n"
      "  });\n"
      "}\n",
      contracts_only({{"svc.op", "", {}, {}, "exempt"}}));
  ASSERT_EQ(count_rule(a, "H1"), 1);
  EXPECT_NE(a.findings[0].message.find("'svc.other'"), std::string::npos);
}

TEST(ContractH2, MissingGuardIsFlagged) {
  const auto a = run(std::string(kRegistration) +
                         "void Node::handle_op(sim::Responder& r, Bytes b) {\n"
                         "  state_[b.size()] = 1;\n"
                         "}\n",
                     contracts_only({{"svc.op", "Node::handle_op", {"verify"},
                                      {"state_["}, "must verify first"}}));
  EXPECT_TRUE(has_rule(a, "H2"));
}

TEST(ContractH2, EveryMissingGuardIsFlagged) {
  const auto a = run(std::string(kRegistration) +
                         "void Node::handle_op(sim::Responder& r, Bytes b) {\n"
                         "  state_[0] = 1;\n"
                         "}\n",
                     contracts_only({{"svc.op", "Node::handle_op",
                                      {"verify", "ct_equal"}, {"state_["}, "both"}}));
  EXPECT_EQ(count_rule(a, "H2"), 2);
}

TEST(ContractH3, MutationBeforeGuardIsFlagged) {
  const auto a = run(std::string(kRegistration) +
                         "void Node::handle_op(sim::Responder& r, Bytes b) {\n"
                         "  state_[0] = 1;\n"
                         "  if (!verify(b)) { r.fail(\"bad\"); return; }\n"
                         "}\n",
                     contracts_only({{"svc.op", "Node::handle_op", {"verify"},
                                      {"state_["}, "must verify first"}}));
  EXPECT_TRUE(has_rule(a, "H3"));
}

TEST(ContractH3, StoreWriteBeforeGuardIsFlagged) {
  const auto a = run(std::string(kRegistration) +
                         "void Node::handle_op(sim::Responder& r, Bytes b) {\n"
                         "  store_.put(\"x\", b);\n"
                         "  if (!verify(b)) return;\n"
                         "}\n",
                     contracts_only({{"svc.op", "Node::handle_op", {"verify"},
                                      {"store_.put"}, "must verify first"}}));
  EXPECT_TRUE(has_rule(a, "H3"));
}

TEST(ContractH3, MutationBetweenTwoGuardsIsFlagged) {
  // ALL guards must precede protected mutations, not just the first one.
  const auto a = run(std::string(kRegistration) +
                         "void Node::handle_op(sim::Responder& r, Bytes b) {\n"
                         "  if (!ct_equal(b, expected_)) return;\n"
                         "  state_[0] = 1;\n"
                         "  if (!verify(b)) return;\n"
                         "}\n",
                     contracts_only({{"svc.op", "Node::handle_op",
                                      {"ct_equal", "verify"}, {"state_["}, "both first"}}));
  EXPECT_TRUE(has_rule(a, "H3"));
}

TEST(ContractH4, NonRejectingGuardIsFlagged) {
  const auto a = run(std::string(kRegistration) +
                         "void Node::handle_op(sim::Responder& r, Bytes b) {\n"
                         "  bool ok = verify(b);\n"
                         "  state_[0] = 1;\n"
                         "}\n",
                     contracts_only({{"svc.op", "Node::handle_op", {"verify"},
                                      {"state_["}, "must reject"}}));
  EXPECT_TRUE(has_rule(a, "H4"));
}

TEST(ContractH4, GuardWhoseBranchDoesNotBailIsFlagged) {
  const auto a = run(std::string(kRegistration) +
                         "void Node::handle_op(sim::Responder& r, Bytes b) {\n"
                         "  if (verify(b)) { log(\"ok\"); }\n"
                         "  state_[0] = 1;\n"
                         "}\n",
                     contracts_only({{"svc.op", "Node::handle_op", {"verify"},
                                      {"state_["}, "must reject"}}));
  EXPECT_TRUE(has_rule(a, "H4"));
}

TEST(ContractH5, StaleHandlerNameIsFlagged) {
  const auto a = run(kRegistration, contracts_only({{"svc.op", "Node::handle_renamed",
                                                     {"verify"}, {}, "stale"}}));
  EXPECT_TRUE(has_rule(a, "H5"));
}

TEST(ContractH5, HandlerOutsideScopeIsFlagged) {
  // The handler exists, but in a file outside the contract scope.
  const auto a = analyze(
      {{"src/other/fixture.cpp",
        "void Node::handle_op(sim::Responder& r, Bytes b) { verify(b); }\n"}},
      contracts_only({{"svc.op", "Node::handle_op", {"verify"}, {}, "scoped"}}));
  EXPECT_TRUE(has_rule(a, "H5"));
}

TEST(ContractH3, SubscriptPatternRequiresSubscript) {
  // Pattern "users_[" must match the indexed write even via arrow chains.
  const auto a = run(std::string(kRegistration) +
                         "void Node::handle_op(sim::Responder& r, Bytes b) {\n"
                         "  users_[supi].shares = b;\n"
                         "  if (!verify(b)) return;\n"
                         "}\n",
                     contracts_only({{"svc.op", "Node::handle_op", {"verify"},
                                      {"users_["}, "verify first"}}));
  EXPECT_TRUE(has_rule(a, "H3"));
}

// ---- negatives ------------------------------------------------------------

TEST(ContractClean, WellGuardedHandlerPasses) {
  const auto a = run(std::string(kRegistration) +
                         "void Node::handle_op(sim::Responder& r, Bytes b) {\n"
                         "  if (!verify(b)) { r.fail(\"bad\"); return; }\n"
                         "  state_[0] = 1;\n"
                         "  store_.put(\"x\", b);\n"
                         "}\n",
                     contracts_only({{"svc.op", "Node::handle_op", {"verify"},
                                      {"state_[", "store_.put"}, "verify first"}}));
  EXPECT_TRUE(a.findings.empty());
}

TEST(ContractClean, MultiGuardHandlerPasses) {
  const auto a = run(std::string(kRegistration) +
                         "void Node::handle_op(sim::Responder& r, Bytes b) {\n"
                         "  if (!ct_equal(b, expected_)) { r.fail(\"preimage\"); return; }\n"
                         "  if (!verify(b)) { r.fail(\"sig\"); return; }\n"
                         "  state_[0] = 1;\n"
                         "}\n",
                     contracts_only({{"svc.op", "Node::handle_op",
                                      {"ct_equal", "verify"}, {"state_["}, "both"}}));
  EXPECT_TRUE(a.findings.empty());
}

TEST(ContractClean, ThrowingGuardBranchPasses) {
  const auto a = run(std::string(kRegistration) +
                         "void Node::handle_op(sim::Responder& r, Bytes b) {\n"
                         "  if (!verify(b)) throw std::runtime_error(\"bad\");\n"
                         "  state_[0] = 1;\n"
                         "}\n",
                     contracts_only({{"svc.op", "Node::handle_op", {"verify"},
                                      {"state_["}, "verify first"}}));
  EXPECT_TRUE(a.findings.empty());
}

TEST(ContractClean, KnownServiceRegistrationPasses) {
  const auto a = run(kRegistration, contracts_only({{"svc.op", "", {}, {}, "exempt"}}));
  EXPECT_TRUE(a.findings.empty());
}

TEST(ContractClean, ExemptHandlerIsNotChecked) {
  // handler == "" marks a contract-reviewed stateless service.
  const auto a = run(std::string(kRegistration) +
                         "void Node::handle_op(sim::Responder& r, Bytes b) {\n"
                         "  state_[0] = 1;\n"
                         "}\n",
                     contracts_only({{"svc.op", "", {}, {}, "stateless by review"}}));
  EXPECT_TRUE(a.findings.empty());
}

TEST(ContractClean, ReadOfProtectedStateIsNotAMutation) {
  // `.find` / `.at` reads don't match mutation patterns like "state_[".
  const auto a = run(std::string(kRegistration) +
                         "void Node::handle_op(sim::Responder& r, Bytes b) {\n"
                         "  auto it = state_.find(7);\n"
                         "  if (!verify(b)) { r.fail(\"bad\"); return; }\n"
                         "  state_[0] = 1;\n"
                         "}\n",
                     contracts_only({{"svc.op", "Node::handle_op", {"verify"},
                                      {"state_["}, "verify first"}}));
  EXPECT_TRUE(a.findings.empty());
}

TEST(ContractClean, RegistrationOutsideScopeIsIgnored) {
  const auto a =
      analyze({{"src/baseline/fixture.cpp", kRegistration}}, contracts_only(sentinel_table()));
  EXPECT_TRUE(a.findings.empty());
}

TEST(ContractClean, FrameworkRegisterServiceDefinitionIsIgnored) {
  // The rpc framework's own declaration has no string literal argument.
  const auto a = run("void RpcNode::register_service(std::string name, Handler h) {\n"
                     "  handlers_[name] = h;\n"
                     "}\n",
                     contracts_only(sentinel_table()), "src/sim/fixture.cpp");
  EXPECT_TRUE(a.findings.empty());
}

TEST(ContractClean, GuardInsideNestedCallbackStillCounts) {
  // Guards reached inside a lambda body still lexically precede mutations.
  const auto a = run(std::string(kRegistration) +
                         "void Node::handle_op(sim::Responder& r, Bytes b) {\n"
                         "  lookup(7, [this, b](Entry e) {\n"
                         "    if (!verify(b)) { return; }\n"
                         "    state_[0] = 1;\n"
                         "  });\n"
                         "}\n",
                     contracts_only({{"svc.op", "Node::handle_op", {"verify"},
                                      {"state_["}, "verify first"}}));
  EXPECT_TRUE(a.findings.empty());
}

TEST(ContractClean, MutationAbsentFromHandlerIsNotAnError) {
  // Renamed/removed state: order check simply has nothing to match (the
  // taint pass still covers the data flow).
  const auto a = run(std::string(kRegistration) +
                         "void Node::handle_op(sim::Responder& r, Bytes b) {\n"
                         "  if (!verify(b)) { r.fail(\"bad\"); return; }\n"
                         "}\n",
                     contracts_only({{"svc.op", "Node::handle_op", {"verify"},
                                      {"gone_["}, "verify first"}}));
  EXPECT_TRUE(a.findings.empty());
}

TEST(ContractClean, DefaultTableCoversProtocolSurface) {
  // The built-in table names the protocol's services; spot-check invariants.
  const auto table = default_contracts();
  EXPECT_GE(table.size(), 16u);
  for (const auto& c : table) {
    EXPECT_FALSE(c.service.empty());
    EXPECT_FALSE(c.rationale.empty()) << c.service;
  }
  const auto get_share =
      std::find_if(table.begin(), table.end(),
                   [](const HandlerContract& c) { return c.service == "backup.get_share"; });
  ASSERT_NE(get_share, table.end());
  // §4.2.2: share release requires BOTH the RES* preimage and the signature.
  EXPECT_NE(std::find(get_share->guards.begin(), get_share->guards.end(), "ct_equal"),
            get_share->guards.end());
  EXPECT_NE(std::find(get_share->guards.begin(), get_share->guards.end(), "verify"),
            get_share->guards.end());
}

// The shipped contract row for one service, taken from the default table.
std::vector<HandlerContract> shipped_contract(std::string_view service) {
  auto table = default_contracts();
  table.erase(std::remove_if(table.begin(), table.end(),
                             [&](const HandlerContract& c) { return c.service != service; }),
              table.end());
  return table;
}

// backup.store: the push's tag must check before any material is kept.

const char* kStoreRegistration =
    "void BackupNetwork::bind_services() {\n"
    "  rpc_.register_service(node_, \"backup.store\", [this](ByteView q, sim::Responder r) {\n"
    "    handle_store(q, r);\n"
    "  });\n"
    "}\n";

TEST(ContractH3, StoreBeforeTagCheckIsFlagged) {
  const auto a = run(std::string(kStoreRegistration) +
                         "void BackupNetwork::handle_store(ByteView q, sim::Responder r) {\n"
                         "  if (!well_formed(req)) { r.fail(); return; }\n"
                         "  users_[{req.home_network, supi}].vectors.push_back(v);\n"
                         "  if (!ct_equal(store_tag(*k, id_, req), req.tag)) {\n"
                         "    r.fail(); return;\n"
                         "  }\n"
                         "}\n",
                     contracts_only(shipped_contract("backup.store")));
  ASSERT_EQ(count_rule(a, "H3"), 1);
  EXPECT_NE(a.findings[0].message.find("store tag checked under the (home, backup) push key"),
            std::string::npos);
}

TEST(ContractClean, StoreAfterTagCheckPasses) {
  const auto a = run(std::string(kStoreRegistration) +
                         "void BackupNetwork::handle_store(ByteView q, sim::Responder r) {\n"
                         "  if (!well_formed(req)) { r.fail(); return; }\n"
                         "  if (!ct_equal(store_tag(*k, id_, req), req.tag)) {\n"
                         "    r.fail(); return;\n"
                         "  }\n"
                         "  users_[{req.home_network, supi}].vectors.push_back(v);\n"
                         "  store_->put(\"batch/\", leaves);\n"
                         "}\n",
                     contracts_only(shipped_contract("backup.store")));
  EXPECT_TRUE(a.findings.empty());
}

// backup.revoke_shares: the revoke's tag must check before any share is
// dropped.

const char* kRevokeRegistration =
    "void BackupNetwork::bind_services() {\n"
    "  rpc_.register_service(node_, \"backup.revoke_shares\", [this](ByteView q, sim::Responder r) {\n"
    "    handle_revoke_shares(q, r);\n"
    "  });\n"
    "}\n";

TEST(ContractH3, RevokeBeforeTagCheckIsFlagged) {
  const auto a = run(std::string(kRevokeRegistration) +
                         "void BackupNetwork::handle_revoke_shares(ByteView q, sim::Responder r) {\n"
                         "  share->first->release<ShareLeaf>(user, share->second);\n"
                         "  if (!ct_equal(revoke_tag(*k, id_, req), req.tag)) {\n"
                         "    r.fail(); return;\n"
                         "  }\n"
                         "}\n",
                     contracts_only(shipped_contract("backup.revoke_shares")));
  ASSERT_EQ(count_rule(a, "H3"), 1);
  EXPECT_NE(a.findings[0].message.find("revoke tag checked under the (home, backup) push key"),
            std::string::npos);
}

TEST(ContractClean, RevokeAfterTagCheckPasses) {
  const auto a = run(std::string(kRevokeRegistration) +
                         "void BackupNetwork::handle_revoke_shares(ByteView q, sim::Responder r) {\n"
                         "  if (!ct_equal(revoke_tag(*k, id_, req), req.tag)) {\n"
                         "    r.fail(); return;\n"
                         "  }\n"
                         "  share->first->release<ShareLeaf>(user, share->second);\n"
                         "  if (const HeldBatch* held = take_vector(user, state, hxres)) touch(held);\n"
                         "  persist_batch(user, state, *held);\n"
                         "}\n",
                     contracts_only(shipped_contract("backup.revoke_shares")));
  EXPECT_TRUE(a.findings.empty());
}

// home.resync: the AUTS must verify before the SQN allocator is rewound.

const char* kResyncRegistration =
    "void HomeNetwork::bind_services() {\n"
    "  rpc_.register_service(node_, \"home.resync\", [this](ByteView q, sim::Responder r) {\n"
    "    handle_resync(q, r);\n"
    "  });\n"
    "}\n";

TEST(ContractH3, ResyncBeforeAutsVerifyIsFlagged) {
  const auto a = run(std::string(kResyncRegistration) +
                         "void HomeNetwork::handle_resync(ByteView q, sim::Responder r) {\n"
                         "  it->second.sqn.resynchronize(sqn_ms);\n"
                         "  if (!aka::verify_auts(keys, req.rand, req.auts, sqn_ms)) {\n"
                         "    r.fail(); return;\n"
                         "  }\n"
                         "}\n",
                     contracts_only(shipped_contract("home.resync")));
  ASSERT_EQ(count_rule(a, "H3"), 1);
  EXPECT_NE(a.findings[0].message.find("AUTS MAC-S must verify"), std::string::npos);
}

TEST(ContractClean, ResyncAfterAutsVerifyPasses) {
  const auto a = run(std::string(kResyncRegistration) +
                         "void HomeNetwork::handle_resync(ByteView q, sim::Responder r) {\n"
                         "  if (!aka::verify_auts(keys, req.rand, req.auts, sqn_ms)) {\n"
                         "    r.fail(); return;\n"
                         "  }\n"
                         "  it->second.sqn.resynchronize(sqn_ms);\n"
                         "  serve_vector(req.supi, r);\n"
                         "}\n",
                     contracts_only(shipped_contract("home.resync")));
  EXPECT_TRUE(a.findings.empty());
}

// ===========================================================================
// Parser sanity: the function summaries the passes depend on.

TEST(Parser, RecordsQualifiedNamesParamsAndReturnTypes) {
  const auto a = run("Bytes HomeNetwork::build(const Supi& supi, int n) { return {}; }");
  const FunctionSummary* f = a.find_function("HomeNetwork::build");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(f->params.size(), 2u);
  EXPECT_EQ(f->params[0].name, "supi");
  EXPECT_EQ(f->params[1].name, "n");
  EXPECT_EQ(f->return_type, "Bytes");
}

TEST(Parser, SecretReturnTypeMarksSummary) {
  const auto a = run("Key256 derive() { Key256 k; return k; }");
  const FunctionSummary* f = a.find_function("derive");
  ASSERT_NE(f, nullptr);
  EXPECT_TRUE(f->returns_secret);
}

TEST(Parser, ParamToReturnPropagation) {
  const auto a = run("Bytes xor_buf(const Bytes& a, const Bytes& b) {\n"
                     "  Bytes out = a;\n"
                     "  return out;\n"
                     "}");
  const FunctionSummary* f = a.find_function("xor_buf");
  ASSERT_NE(f, nullptr);
  EXPECT_NE(f->params_to_return & 1u << 1, 0u);  // param 0 -> bit 1
}

}  // namespace
}  // namespace dauth::taint
