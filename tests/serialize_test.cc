#include <gtest/gtest.h>

#include "common/rng.h"
#include "serialize/envelope.h"
#include "serialize/wire.h"

namespace zht {
namespace {

TEST(VarintTest, RoundTripBoundaries) {
  for (std::uint64_t v : {0ull, 1ull, 127ull, 128ull, 16383ull, 16384ull,
                          0xffffffffull, ~0ull}) {
    std::string buf;
    wire::Writer w(&buf);
    w.PutVarint(v);
    wire::Reader r(buf);
    std::uint64_t out;
    ASSERT_TRUE(r.GetVarint(&out));
    EXPECT_EQ(out, v);
    EXPECT_TRUE(r.AtEnd());
  }
}

TEST(VarintTest, TruncatedFails) {
  std::string buf;
  wire::Writer w(&buf);
  w.PutVarint(1u << 20);
  buf.pop_back();
  wire::Reader r(buf);
  std::uint64_t out;
  EXPECT_FALSE(r.GetVarint(&out));
}

TEST(VarintTest, EncodingIsMinimal) {
  std::string buf;
  wire::Writer w(&buf);
  w.PutVarint(127);
  EXPECT_EQ(buf.size(), 1u);
  buf.clear();
  w.PutVarint(128);
  EXPECT_EQ(buf.size(), 2u);
}

TEST(Fixed64Test, RoundTrip) {
  std::string buf;
  wire::Writer w(&buf);
  w.PutFixed64(0x0123456789abcdefull);
  EXPECT_EQ(buf.size(), 8u);
  wire::Reader r(buf);
  std::uint64_t out;
  ASSERT_TRUE(r.GetFixed64(&out));
  EXPECT_EQ(out, 0x0123456789abcdefull);
}

TEST(ZigZagTest, RoundTripSigned) {
  for (std::int64_t v :
       std::initializer_list<std::int64_t>{
           0, -1, 1, -64, 64, std::numeric_limits<std::int64_t>::min(),
           std::numeric_limits<std::int64_t>::max()}) {
    EXPECT_EQ(wire::Reader::ZigZagDecode(wire::Writer::ZigZagEncode(v)), v);
  }
}

TEST(TaggedFieldTest, UnknownFieldsSkipped) {
  std::string buf;
  wire::Writer w(&buf);
  w.PutVarintField(99, 7);        // unknown varint
  w.PutStringField(98, "junk");   // unknown length-delimited
  w.PutFixed64Field(97, 1234);    // unknown fixed64
  w.PutVarintField(1, 42);        // the one we want

  wire::Reader r(buf);
  std::uint64_t found = 0;
  while (!r.AtEnd()) {
    std::uint32_t field;
    wire::WireType type;
    ASSERT_TRUE(r.GetTag(&field, &type));
    if (field == 1) {
      ASSERT_TRUE(r.GetVarint(&found));
    } else {
      ASSERT_TRUE(r.SkipValue(type));
    }
  }
  EXPECT_EQ(found, 42u);
}

TEST(RequestTest, RoundTripAllFields) {
  Request req;
  req.op = OpCode::kAppend;
  req.seq = 123456789;
  req.key = "some-key";
  req.value = std::string("binary\0value", 12);
  req.epoch = 17;
  req.partition = 999;
  req.replica_index = 2;
  req.server_origin = true;

  auto decoded = Request::Decode(req.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, req);
}

TEST(RequestTest, DefaultsOmittedAndRestored) {
  Request req;
  req.op = OpCode::kLookup;
  req.key = "k";
  std::string encoded = req.Encode();
  EXPECT_LT(encoded.size(), 8u);  // compact: op + key only
  auto decoded = Request::Decode(encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, req);
}

TEST(RequestTest, MissingOpcodeRejected) {
  Request req;
  req.op = OpCode::kInsert;
  req.key = "k";
  std::string encoded = req.Encode();
  // Strip the leading opcode field (tag byte + value byte).
  auto decoded = Request::Decode(encoded.substr(2));
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

TEST(RequestTest, UnknownOpcodeRejected) {
  std::string buf;
  wire::Writer w(&buf);
  w.PutVarintField(1, 200);  // opcode out of range
  EXPECT_FALSE(Request::Decode(buf).ok());
}

TEST(RequestTest, RetiredOpcodesRejected) {
  // 8 (REPLICATE, never sent) and 9-11 (the unverified migration trio)
  // are retired: a peer still sending them gets kCorruption, not a
  // misrouted handler.
  for (std::uint64_t retired : {8, 9, 10, 11}) {
    std::string buf;
    wire::Writer w(&buf);
    w.PutVarintField(1, retired);
    auto decoded = Request::Decode(buf);
    ASSERT_FALSE(decoded.ok()) << retired;
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption) << retired;
  }
}

TEST(RequestTest, GarbageRejectedNotCrash) {
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    std::string junk = rng.AsciiString(rng.Below(64));
    auto decoded = Request::Decode(junk);  // must not crash
    if (decoded.ok()) {
      EXPECT_GE(static_cast<int>(decoded->op), 1);
    }
  }
}

TEST(ResponseTest, RoundTripAllFields) {
  Response resp;
  resp.seq = 77;
  resp.status = Status(StatusCode::kRedirect).raw();
  resp.value = "payload";
  resp.epoch = 31;
  resp.membership = "serialized-table-bytes";
  resp.redirect_host = "10.0.0.5";
  resp.redirect_port = 50000;

  auto decoded = Response::Decode(resp.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, resp);
}

TEST(ResponseTest, EmptyResponseIsOk) {
  Response resp;
  auto decoded = Response::Decode(resp.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->ok());
  EXPECT_EQ(decoded->status_as_object().code(), StatusCode::kOk);
}

TEST(ResponseTest, StatusObjectConversion) {
  Response resp;
  resp.status = Status(StatusCode::kMigrating).raw();
  EXPECT_FALSE(resp.ok());
  EXPECT_EQ(resp.status_as_object().code(), StatusCode::kMigrating);
}

TEST(OpCodeTest, NamesCoverAllOps) {
  int known = 0;
  for (int op = 0; op <= 255; ++op) {
    const bool named = OpCodeName(static_cast<OpCode>(op)) != "UNKNOWN";
    EXPECT_EQ(named, IsKnownOpCode(op)) << op;
    known += named;
  }
  EXPECT_EQ(known, 18);
  for (int retired : {8, 9, 10, 11}) EXPECT_FALSE(IsKnownOpCode(retired));
  EXPECT_FALSE(IsKnownOpCode(0));
  EXPECT_FALSE(IsKnownOpCode(256 + 2));  // no truncation to kLookup
}

// A uniformly drawn opcode the codec accepts (retired values excluded).
OpCode RandomKnownOp(Rng& rng) {
  for (;;) {
    const std::uint64_t v = 1 + rng.Below(22);
    if (IsKnownOpCode(v)) return static_cast<OpCode>(v);
  }
}

// Property sweep: random requests of every op round-trip exactly, and
// EncodedSize() (which batch and frame encoders size their buffers by)
// equals the encoding's length.
class EnvelopeFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(EnvelopeFuzzTest, RandomRoundTrip) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  for (int i = 0; i < 200; ++i) {
    Request req;
    req.op = RandomKnownOp(rng);
    req.seq = rng.Next();
    req.key = rng.AsciiString(rng.Below(40));
    req.value = rng.AsciiString(rng.Below(200));
    req.epoch = static_cast<std::uint32_t>(rng.Next());
    req.partition = static_cast<std::uint32_t>(rng.Below(1u << 20));
    req.replica_index = static_cast<std::uint8_t>(rng.Below(8));
    req.server_origin = rng.Chance(0.5);
    req.client_id = rng.Chance(0.5) ? rng.Next() : 0;
    EXPECT_EQ(req.EncodedSize(), req.Encode().size());
    auto decoded = Request::Decode(req.Encode());
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(*decoded, req);

    Response resp;
    resp.seq = rng.Chance(0.5) ? rng.Next() : 0;
    resp.status = static_cast<std::int32_t>(rng.Below(13));
    resp.value = rng.AsciiString(rng.Below(300));
    resp.epoch = static_cast<std::uint32_t>(rng.Next());
    resp.membership = rng.AsciiString(rng.Below(20));
    resp.redirect_host = rng.AsciiString(rng.Below(16));
    resp.redirect_port = static_cast<std::uint16_t>(rng.Below(65536));
    resp.retry_after_us = static_cast<std::uint32_t>(rng.Below(1u << 20));
    EXPECT_EQ(resp.EncodedSize(), resp.Encode().size());
    auto decoded_resp = Response::Decode(resp.Encode());
    ASSERT_TRUE(decoded_resp.ok());
    EXPECT_EQ(*decoded_resp, resp);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EnvelopeFuzzTest, ::testing::Range(1, 6));

}  // namespace
}  // namespace zht
