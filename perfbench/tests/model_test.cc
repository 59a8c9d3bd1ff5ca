// The correctness model: value records and the read-staleness rule.
#include <gtest/gtest.h>

#include "model.h"

namespace perfbench {
namespace {

TEST(Values, InsertRecordRoundTrips) {
  for (std::size_t size : {17u, 132u, 1024u, 4096u, 5000u}) {
    const std::string v = MakeInsertValue(42, 7, size);
    EXPECT_EQ(v.size(), size);
    EXPECT_EQ(ParseValue(v, 42, size), 7u);
  }
}

TEST(Values, AppendChainCarriesTheLastVersion) {
  std::string v = MakeInsertValue(9, 3, 132);
  v += MakeAppendValue(9, 4);
  v += MakeAppendValue(9, 5);
  EXPECT_EQ(ParseValue(v, 9, 132), 5u);
}

TEST(Values, RejectsAnythingButAnExactChain) {
  const std::string base = MakeInsertValue(9, 3, 132);
  EXPECT_EQ(ParseValue(base, 8, 132), 0u) << "another key's value";
  EXPECT_EQ(ParseValue(base.substr(0, 100), 9, 132), 0u) << "truncated";
  std::string torn = base;
  torn[77] ^= 1;
  EXPECT_EQ(ParseValue(torn, 9, 132), 0u) << "corrupt fill";
  EXPECT_EQ(ParseValue(base + MakeAppendValue(9, 5), 9, 132), 0u)
      << "lost append";
  EXPECT_EQ(ParseValue(base + MakeAppendValue(9, 4) + MakeAppendValue(9, 4),
                       9, 132),
            0u)
      << "doubled append";
  EXPECT_EQ(ParseValue(base + "x", 9, 132), 0u) << "stray bytes";
  EXPECT_EQ(ParseValue("", 9, 132), 0u);
}

TEST(KeyModel, FreshReadsPass) {
  KeyModel m(4);
  const std::uint32_t v1 = m.BeginWrite(2);
  m.AckWrite(2, v1);
  const std::uint32_t floor = m.BeginRead(2);
  EXPECT_TRUE(m.CheckRead(2, floor, v1));
}

TEST(KeyModel, StaleReadFails) {
  KeyModel m(4);
  m.AckWrite(1, m.BeginWrite(1));  // v1
  m.AckWrite(1, m.BeginWrite(1));  // v2 acknowledged
  const std::uint32_t floor = m.BeginRead(1);
  EXPECT_FALSE(m.CheckRead(1, floor, 1)) << "v1 is older than the acked v2";
  EXPECT_TRUE(m.CheckRead(1, floor, 2));
}

TEST(KeyModel, ReadConcurrentWithAWriteMaySeeEitherSide) {
  KeyModel m(4);
  m.AckWrite(0, m.BeginWrite(0));  // v1
  const std::uint32_t floor = m.BeginRead(0);
  const std::uint32_t v2 = m.BeginWrite(0);  // in flight during the read
  EXPECT_TRUE(m.CheckRead(0, floor, 1));
  EXPECT_TRUE(m.CheckRead(0, floor, v2));
  m.AckWrite(0, v2);
  // The read was sent before v2 was acked, so v1 is still allowed.
  EXPECT_TRUE(m.CheckRead(0, floor, 1));
}

TEST(KeyModel, FutureOrMissingVersionsFail) {
  KeyModel m(4);
  m.AckWrite(3, m.BeginWrite(3));
  const std::uint32_t floor = m.BeginRead(3);
  EXPECT_FALSE(m.CheckRead(3, floor, 2)) << "never issued";
  EXPECT_FALSE(m.CheckRead(3, floor, 0)) << "malformed value / not found";
}

TEST(KeyModel, FailedWriteMakesTheKeyUncertain) {
  KeyModel m(2);
  m.AckWrite(1, m.BeginWrite(1));
  m.BeginWrite(1);
  m.FailWrite(1);
  EXPECT_TRUE(m.uncertain(1));
  EXPECT_FALSE(m.write_inflight(1));
  EXPECT_EQ(m.acked(1), 1u);
  EXPECT_EQ(m.issued(1), 2u);
}

}  // namespace
}  // namespace perfbench
