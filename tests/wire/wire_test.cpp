#include <gtest/gtest.h>

#include <optional>
#include <string_view>
#include <variant>
#include <vector>

#include "wire/reader.h"
#include "wire/writer.h"

namespace dauth::wire {
namespace {

TEST(Wire, PrimitiveRoundTrip) {
  Writer w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0102030405060708ULL);
  w.i64(-42);
  w.boolean(true);
  w.boolean(false);

  Reader r(w.data());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0102030405060708ULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_TRUE(r.done());
}

TEST(Wire, LittleEndianLayout) {
  Writer w;
  w.u32(0x01020304);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(w.data()[0], 0x04);
  EXPECT_EQ(w.data()[3], 0x01);
}

TEST(Wire, BytesAndStrings) {
  Writer w;
  w.bytes(Bytes{1, 2, 3});
  w.string("hello");
  w.bytes({});  // empty

  Reader r(w.data());
  EXPECT_EQ(r.bytes(), (Bytes{1, 2, 3}));
  EXPECT_EQ(r.string(), "hello");
  EXPECT_TRUE(r.bytes().empty());
  r.expect_done();
}

TEST(Wire, FixedArrays) {
  Writer w;
  const ByteArray<16> arr = array_from_hex<16>("000102030405060708090a0b0c0d0e0f");
  w.fixed(arr);

  Reader r(w.data());
  EXPECT_EQ(r.fixed<16>(), arr);
}

TEST(Wire, TruncatedReadsThrow) {
  Writer w;
  w.u16(7);
  Reader r(w.data());
  EXPECT_EQ(r.u8(), 7);
  EXPECT_THROW(r.u16(), WireError);  // only 1 byte left
}

TEST(Wire, TruncatedBytesThrow) {
  Writer w;
  w.u32(100);  // claims 100 bytes follow, none do
  Reader r(w.data());
  EXPECT_THROW(r.bytes(), WireError);
}

TEST(Wire, InvalidBooleanThrows) {
  const Bytes data = {2};
  Reader r(data);
  EXPECT_THROW(r.boolean(), WireError);
}

TEST(Wire, TrailingBytesDetected) {
  Writer w;
  w.u8(1);
  w.u8(2);
  Reader r(w.data());
  (void)r.u8();
  EXPECT_THROW(r.expect_done(), WireError);
}

TEST(Wire, RemainingTracksProgress) {
  Writer w;
  w.u64(1);
  Reader r(w.data());
  EXPECT_EQ(r.remaining(), 8u);
  (void)r.u32();
  EXPECT_EQ(r.remaining(), 4u);
}

TEST(Wire, DeterministicEncoding) {
  // Identical logical content must serialize to identical bytes (signatures
  // depend on this).
  auto encode = [] {
    Writer w;
    w.string("network-a");
    w.u64(17);
    w.bytes(Bytes{9, 9, 9});
    return std::move(w).take();
  };
  EXPECT_EQ(encode(), encode());
}

TEST(Wire, EmptyFrame) {
  Reader r(ByteView{});
  EXPECT_TRUE(r.done());
  EXPECT_THROW(r.u8(), WireError);
}

/// One field of every kind, and a sequence of itself.
struct Sample {
  bool flag = false;
  std::uint16_t small = 0;
  std::int64_t signed_value = 0;
  ByteArray<4> fixed{};
  Bytes blob;
  NetworkId id;
  std::vector<ByteArray<32>> path;
  std::vector<NetworkId> ids;
  std::vector<Sample> children;
  ByteArray<2> signature{};

  static constexpr std::string_view kDomain = "sample-v1";
  template <typename F, typename Self>
  static void fields(F& f, Self& m) {
    f.field(m.flag, m.small, m.signed_value, m.fixed, m.blob, m.id, m.path, m.ids, m.children);
    f.tail(m.signature);
  }
};

TEST(Wire, FieldListWritesEachTypeAsItsKindWriter) {
  Sample child;
  child.small = 7;
  const Sample m{true, 0x1234, -5, {1, 2, 3, 4}, {9, 8}, NetworkId("net"), {ByteArray<32>{}},
                 {NetworkId("a"), NetworkId("bc")}, {child}, {0xee, 0xff}};

  Writer child_wire;
  child_wire.boolean(false);
  child_wire.u16(7);
  child_wire.i64(0);
  child_wire.fixed(ByteArray<4>{});
  child_wire.bytes({});
  child_wire.string("");
  child_wire.u8(0);   // an empty path: a u8 count
  child_wire.u32(0);  // empty sequences: a u32 count
  child_wire.u32(0);
  child_wire.fixed(ByteArray<2>{});

  Writer body;  // every field before the tail
  body.boolean(true);
  body.u16(0x1234);
  body.i64(-5);
  body.fixed(ByteArray<4>{1, 2, 3, 4});
  body.bytes(Bytes{9, 8});
  body.string("net");
  body.u8(1);
  body.fixed(ByteArray<32>{});
  body.u32(2);
  body.string("a");
  body.string("bc");
  body.u32(1);
  body.bytes(child_wire.data());  // a message element is framed by its length

  Writer encoding;
  encoding.raw(body.data());
  encoding.fixed(ByteArray<2>{0xee, 0xff});
  Writer signed_part;
  signed_part.string("sample-v1");
  signed_part.raw(body.data());

  const Bytes encoded = encode(m);
  EXPECT_EQ(encoded, encoding.data());
  EXPECT_EQ(encoded.capacity(), encoded.size());
  EXPECT_EQ(signed_payload(m), signed_part.data());
  EXPECT_EQ(encode(decode<Sample>(encoded)), encoded);
}

TEST(Wire, FieldListRejectsOutOfRangeValues) {
  Bytes bad_bool = encode(Sample{});
  bad_bool[0] = 2;
  EXPECT_THROW((void)decode<Sample>(bad_bool), WireError);

  Sample long_path;
  long_path.path.resize(kMaxPathLength);
  EXPECT_NO_THROW((void)decode<Sample>(encode(long_path)));
  long_path.path.resize(kMaxPathLength + 1);
  EXPECT_THROW((void)decode<Sample>(encode(long_path)), WireError);
}

/// An optional and a variant, one alternative a message and one a value.
struct Choice {
  struct Empty {
    template <typename F, typename Self>
    static void fields(F&, Self&) {}
  };

  std::optional<ByteArray<2>> maybe;
  std::variant<Empty, std::uint32_t> either;

  template <typename F, typename Self>
  static void fields(F& f, Self& m) {
    f.field(m.maybe, m.either);
  }
};

TEST(Wire, OptionalIsAPresenceBoolThenTheValue) {
  Writer present;
  present.boolean(true);
  present.fixed(ByteArray<2>{5, 6});
  present.u8(1);  // Empty
  EXPECT_EQ(encode(Choice{ByteArray<2>{5, 6}, Choice::Empty{}}), present.data());
  EXPECT_EQ(decode<Choice>(present.data()).maybe, (ByteArray<2>{5, 6}));

  Writer absent;
  absent.boolean(false);
  absent.u8(1);
  EXPECT_EQ(encode(Choice{}), absent.data());
  EXPECT_FALSE(decode<Choice>(absent.data()).maybe.has_value());
}

TEST(Wire, VariantIsATagOfIndexPlusOneThenTheAlternative) {
  Writer second;
  second.boolean(false);
  second.u8(2);
  second.u32(0xdeadbeef);
  EXPECT_EQ(encode(Choice{std::nullopt, std::uint32_t{0xdeadbeef}}), second.data());
  const Choice decoded = decode<Choice>(second.data());
  ASSERT_EQ(decoded.either.index(), 1u);
  EXPECT_EQ(std::get<std::uint32_t>(decoded.either), 0xdeadbeefu);
}

TEST(Wire, OptionalAndVariantRejectOutOfRangeBytes) {
  const Bytes valid = encode(Choice{});  // presence 0, tag 1
  ASSERT_NO_THROW((void)decode<Choice>(valid));

  Bytes presence_two = valid;
  presence_two[0] = 2;
  EXPECT_THROW((void)decode<Choice>(presence_two), WireError);

  Bytes tag_zero = valid;
  tag_zero[1] = 0;
  EXPECT_THROW((void)decode<Choice>(tag_zero), WireError);

  Writer tag_past_last;  // two alternatives: tag 3 names none
  tag_past_last.boolean(false);
  tag_past_last.u8(3);
  tag_past_last.u32(0);
  EXPECT_THROW((void)decode<Choice>(tag_past_last.data()), WireError);
  Bytes tag_max = valid;
  tag_max[1] = 0xff;
  EXPECT_THROW((void)decode<Choice>(tag_max), WireError);
}

}  // namespace
}  // namespace dauth::wire
