// Adversarial-input property tests for the wire layer: truncations,
// mutations, and random bytes must never crash or mis-decode silently into
// an equal-but-different message.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "membership/membership_table.h"
#include "serialize/batch.h"
#include "serialize/envelope.h"

namespace zht {
namespace {

class WireFuzzTest : public ::testing::TestWithParam<int> {};

Request RandomRequest(Rng& rng) {
  Request req;
  do {
    req.op = static_cast<OpCode>(1 + rng.Below(22));
  } while (!IsKnownOpCode(static_cast<std::uint64_t>(req.op)));
  req.seq = rng.Next();
  req.key = rng.AsciiString(rng.Below(30));
  req.value = rng.AsciiString(rng.Below(100));
  req.epoch = static_cast<std::uint32_t>(rng.Next());
  req.partition = static_cast<std::uint32_t>(rng.Below(1u << 16));
  req.replica_index = static_cast<std::uint8_t>(rng.Below(4));
  req.server_origin = rng.Chance(0.5);
  req.client_id = rng.Next();
  return req;
}

TEST_P(WireFuzzTest, TruncatedRequestsNeverCrashOrAlias) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31);
  for (int i = 0; i < 150; ++i) {
    Request req = RandomRequest(rng);
    std::string encoded = req.Encode();
    for (std::size_t cut = 0; cut < encoded.size(); ++cut) {
      auto decoded = Request::Decode(encoded.substr(0, cut));
      if (decoded.ok()) {
        // A prefix that still decodes must not claim to be the original.
        EXPECT_NE(*decoded, req) << "cut=" << cut;
      }
    }
    auto full = Request::Decode(encoded);
    ASSERT_TRUE(full.ok());
    EXPECT_EQ(*full, req);
  }
}

TEST_P(WireFuzzTest, RetiredOpcodesNeverDecode) {
  // Any otherwise valid request whose opcode is a retired wire value (8-11)
  // must be rejected as corruption, whatever fields ride along.
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 53);
  for (int i = 0; i < 150; ++i) {
    std::string encoded = RandomRequest(rng).Encode();
    // Encode leads with the opcode field: tag byte, then a one-byte varint.
    ASSERT_EQ(encoded[0], 0x08);
    encoded[1] = static_cast<char>(8 + rng.Below(4));
    auto decoded = Request::Decode(encoded);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
  }
}

TEST_P(WireFuzzTest, MutatedResponsesNeverCrash) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 37);
  for (int i = 0; i < 150; ++i) {
    Response resp;
    resp.seq = rng.Next();
    resp.status = static_cast<std::int32_t>(rng.Below(13));
    resp.value = rng.AsciiString(rng.Below(100));
    resp.epoch = static_cast<std::uint32_t>(rng.Next());
    resp.redirect_host = rng.AsciiString(rng.Below(16));
    resp.redirect_port = static_cast<std::uint16_t>(rng.Next());
    std::string encoded = resp.Encode();
    if (encoded.empty()) continue;
    // Flip random bytes; decoding must never crash.
    for (int flip = 0; flip < 8; ++flip) {
      std::string mutated = encoded;
      mutated[rng.Below(mutated.size())] =
          static_cast<char>(rng.Next() & 0xff);
      auto decoded = Response::Decode(mutated);
      (void)decoded;  // ok or error — just no UB/crash
    }
  }
}

TEST_P(WireFuzzTest, RandomBytesIntoMembershipDecoder) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 41);
  for (int i = 0; i < 200; ++i) {
    std::string junk = rng.AsciiString(rng.Below(256));
    auto table = MembershipTable::DecodeFull(junk);
    (void)table;
    MembershipTable target = MembershipTable::CreateUniform(
        16, {NodeAddress{"10.0.0.1", 1}, NodeAddress{"10.0.0.2", 2}});
    Status status = target.ApplyUpdate(junk);
    (void)status;  // must not crash; table must stay structurally sound
    EXPECT_EQ(target.num_partitions(), 16u);
  }
}

TEST_P(WireFuzzTest, TruncatedMembershipSnapshotsRejected) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 43);
  auto table = MembershipTable::CreateUniform(
      64, {NodeAddress{"10.0.0.1", 1}, NodeAddress{"10.0.0.2", 2},
           NodeAddress{"10.0.0.3", 3}});
  std::string encoded = table.EncodeFull();
  for (int i = 0; i < 100; ++i) {
    std::size_t cut = rng.Below(encoded.size());
    auto decoded = MembershipTable::DecodeFull(encoded.substr(0, cut));
    // Either cleanly rejected, or (rare) a structurally valid prefix —
    // but never the full table.
    if (decoded.ok()) {
      EXPECT_NE(*decoded, table);
    }
  }
}

TEST_P(WireFuzzTest, BatchEnvelopeRoundTripsAndRejectsTruncation) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 47);
  for (int i = 0; i < 50; ++i) {
    BatchRequest batch;
    std::size_t count = rng.Below(12);
    for (std::size_t op = 0; op < count; ++op) {
      batch.ops.push_back(RandomRequest(rng));
    }
    Request carrier = PackBatchRequest(batch.ops, rng.Next());
    ASSERT_EQ(carrier.op, OpCode::kBatch);

    // The carrier is an ordinary Request: the base codec round-trips it.
    auto carried = Request::Decode(carrier.Encode());
    ASSERT_TRUE(carried.ok());
    auto decoded = BatchRequest::Decode(carried->value);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(*decoded, batch);

    // Truncations must never crash nor silently alias the original.
    std::string payload = carrier.value;
    for (std::size_t cut = 0; cut < payload.size(); ++cut) {
      auto partial = BatchRequest::Decode(payload.substr(0, cut));
      if (partial.ok()) {
        EXPECT_NE(*partial, batch) << "cut=" << cut;
      }
    }

    // Response leg: pack/unpack N sub-responses.
    BatchResponse responses;
    for (std::size_t op = 0; op < count; ++op) {
      Response sub;
      sub.seq = rng.Next();
      sub.status = static_cast<std::int32_t>(rng.Below(13));
      sub.value = rng.AsciiString(rng.Below(60));
      responses.responses.push_back(std::move(sub));
    }
    Response packed = PackBatchResponse(
        responses, rng.Next(), static_cast<std::uint32_t>(rng.Next()));
    auto unpacked = UnpackBatchResponse(packed, count);
    ASSERT_TRUE(unpacked.ok());
    EXPECT_EQ(*unpacked, responses.responses);
    // A count mismatch is corruption, not a partial result.
    if (count > 0) {
      EXPECT_FALSE(UnpackBatchResponse(packed, count + 1).ok());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzzTest, ::testing::Range(1, 5));

}  // namespace
}  // namespace zht
