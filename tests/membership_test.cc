#include <gtest/gtest.h>

#include "membership/membership_table.h"

namespace zht {
namespace {

std::vector<NodeAddress> Addresses(int n) {
  std::vector<NodeAddress> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(NodeAddress{"10.0.0." + std::to_string(i + 1),
                              static_cast<std::uint16_t>(50000 + i)});
  }
  return out;
}

TEST(NodeAddressTest, ParseAndFormat) {
  auto a = NodeAddress::Parse("10.1.2.3:8080");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->host, "10.1.2.3");
  EXPECT_EQ(a->port, 8080);
  EXPECT_EQ(a->ToString(), "10.1.2.3:8080");
  EXPECT_FALSE(NodeAddress::Parse("nocolon").ok());
  EXPECT_FALSE(NodeAddress::Parse("host:99999").ok());
  EXPECT_FALSE(NodeAddress::Parse("host:abc").ok());
  EXPECT_FALSE(NodeAddress::Parse(":123").ok());
}

TEST(MembershipTest, UniformBootstrapSplitsEvenly) {
  auto table = MembershipTable::CreateUniform(64, Addresses(4));
  EXPECT_EQ(table.epoch(), 1u);
  EXPECT_EQ(table.num_partitions(), 64u);
  EXPECT_EQ(table.instance_count(), 4u);
  for (InstanceId i = 0; i < 4; ++i) {
    EXPECT_EQ(table.PartitionsOf(i).size(), 16u) << "instance " << i;
  }
  // Contiguity: partition p belongs to instance p*k/n.
  EXPECT_EQ(table.OwnerOf(0), 0u);
  EXPECT_EQ(table.OwnerOf(15), 0u);
  EXPECT_EQ(table.OwnerOf(16), 1u);
  EXPECT_EQ(table.OwnerOf(63), 3u);
}

TEST(MembershipTest, UnevenSplitCoversAll) {
  auto table = MembershipTable::CreateUniform(10, Addresses(3));
  std::size_t total = 0;
  for (InstanceId i = 0; i < 3; ++i) {
    auto parts = table.PartitionsOf(i).size();
    EXPECT_GE(parts, 3u);
    EXPECT_LE(parts, 4u);
    total += parts;
  }
  EXPECT_EQ(total, 10u);
}

TEST(MembershipTest, InstancesPerNodeGrouping) {
  auto table = MembershipTable::CreateUniform(16, Addresses(8), 4);
  EXPECT_EQ(table.Instance(0).physical_node, 0u);
  EXPECT_EQ(table.Instance(3).physical_node, 0u);
  EXPECT_EQ(table.Instance(4).physical_node, 1u);
  EXPECT_EQ(table.Instance(7).physical_node, 1u);
}

TEST(MembershipTest, ReplicaChainUsesDistinctPhysicalNodes) {
  // 8 instances on 4 nodes (2 per node).
  auto table = MembershipTable::CreateUniform(16, Addresses(8), 2);
  auto chain = table.ReplicaChain(0, 2);
  ASSERT_EQ(chain.size(), 3u);
  std::set<std::uint32_t> nodes;
  for (InstanceId id : chain) {
    nodes.insert(table.Instance(id).physical_node);
  }
  EXPECT_EQ(nodes.size(), 3u) << "replicas share a physical node";
}

TEST(MembershipTest, ReplicaChainIsSuccessorBased) {
  auto table = MembershipTable::CreateUniform(16, Addresses(4));
  auto chain = table.ReplicaChain(0, 2);  // partition 0 owned by instance 0
  ASSERT_EQ(chain.size(), 3u);
  EXPECT_EQ(chain[0], 0u);
  EXPECT_EQ(chain[1], 1u);  // nearest successor
  EXPECT_EQ(chain[2], 2u);
}

TEST(MembershipTest, ReplicaChainSkipsDeadInstances) {
  auto table = MembershipTable::CreateUniform(16, Addresses(4));
  table.MarkDead(1);
  auto chain = table.ReplicaChain(0, 2);
  ASSERT_EQ(chain.size(), 3u);
  EXPECT_EQ(chain[1], 2u);
  EXPECT_EQ(chain[2], 3u);
}

TEST(MembershipTest, ReplicaChainCapsAtAvailableNodes) {
  auto table = MembershipTable::CreateUniform(16, Addresses(2));
  auto chain = table.ReplicaChain(0, 5);  // only 2 nodes exist
  EXPECT_EQ(chain.size(), 2u);
}

TEST(MembershipTest, MostAndLeastLoaded) {
  auto table = MembershipTable::CreateUniform(16, Addresses(4));
  // Move partitions 0..3 from instance 0 to instance 1: 1 has 8, 0 has 0.
  for (PartitionId p = 0; p < 4; ++p) table.SetOwner(p, 1);
  EXPECT_EQ(*table.MostLoaded(), 1u);
  EXPECT_EQ(*table.LeastLoaded(), 0u);
  EXPECT_EQ(*table.LeastLoaded(/*excluding=*/0u), 2u);
}

TEST(MembershipTest, EpochBumpsOnEveryMutation) {
  auto table = MembershipTable::CreateUniform(16, Addresses(2));
  std::uint32_t e = table.epoch();
  table.SetOwner(3, 1);
  EXPECT_EQ(table.epoch(), e + 1);
  table.AddInstance(NodeAddress{"10.0.0.9", 50009}, 9);
  EXPECT_EQ(table.epoch(), e + 2);
  table.MarkDead(0);
  EXPECT_EQ(table.epoch(), e + 3);
  table.MarkAlive(0);
  EXPECT_EQ(table.epoch(), e + 4);
}

TEST(MembershipTest, FullSnapshotRoundTrip) {
  auto table = MembershipTable::CreateUniform(100, Addresses(7), 2,
                                              HashKind::kJenkins);
  table.SetOwner(42, 3);
  table.MarkDead(5);
  auto decoded = MembershipTable::DecodeFull(table.EncodeFull());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, table);
  EXPECT_EQ(decoded->space().hash_kind(), HashKind::kJenkins);
}

TEST(MembershipTest, SnapshotIsCompact) {
  // 1M partitions over 1024 instances: RLE must keep this small (the paper
  // bounds the table at ~32 B/node; ownership adds only run overhead).
  auto table = MembershipTable::CreateUniform(1u << 20, Addresses(64), 1);
  std::string encoded = table.EncodeFull();
  EXPECT_LT(encoded.size(), 8192u);
}

TEST(MembershipTest, DeltaAppliesIncrementally) {
  auto table = MembershipTable::CreateUniform(32, Addresses(4));
  MembershipTable replica = table;

  table.SetOwner(5, 2);
  table.SetOwner(6, 2);
  InstanceId added = table.AddInstance(NodeAddress{"10.0.0.99", 50099}, 9);
  table.SetOwner(7, added);

  std::string delta = table.EncodeDelta(replica.epoch());
  EXPECT_LT(delta.size(), table.EncodeFull().size());
  ASSERT_TRUE(replica.ApplyUpdate(delta).ok());
  EXPECT_EQ(replica, table);
}

TEST(MembershipTest, DeltaIsIdempotent) {
  auto table = MembershipTable::CreateUniform(32, Addresses(4));
  MembershipTable replica = table;
  table.SetOwner(5, 2);
  std::string delta = table.EncodeDelta(replica.epoch());
  ASSERT_TRUE(replica.ApplyUpdate(delta).ok());
  ASSERT_TRUE(replica.ApplyUpdate(delta).ok());  // replay is harmless
  EXPECT_EQ(replica, table);
}

TEST(MembershipTest, StaleSnapshotIgnored) {
  auto table = MembershipTable::CreateUniform(32, Addresses(4));
  std::string old_snapshot = table.EncodeFull();
  table.SetOwner(1, 2);
  ASSERT_TRUE(table.ApplyUpdate(old_snapshot).ok());
  EXPECT_EQ(table.OwnerOf(1), 2u);  // not rolled back
}

TEST(MembershipTest, DeltaFromUnknownEpochFallsBackToFull) {
  auto table = MembershipTable::CreateUniform(32, Addresses(4));
  for (int i = 0; i < 10; ++i) table.SetOwner(1, i % 4);
  // since_epoch = 0 predates bootstrap history → full snapshot.
  std::string update = table.EncodeDelta(0);
  auto decoded = MembershipTable::DecodeFull(update);
  EXPECT_TRUE(decoded.ok());
}

TEST(MembershipTest, DeltaAheadOfReceiverRejected) {
  auto table = MembershipTable::CreateUniform(32, Addresses(4));
  MembershipTable behind = table;
  table.SetOwner(1, 1);
  table.SetOwner(2, 2);
  // Delta starting *after* the receiver's epoch cannot apply.
  std::string delta = table.EncodeDelta(table.epoch() - 1);
  Status status = behind.ApplyUpdate(delta);
  EXPECT_FALSE(status.ok());
}

// A table whose epoch already covers a join it never saw (here it moved a
// partition on its own at that epoch) skips the join's instance record in a
// delta; the delta's move of a partition to that instance must then be
// refused, not stored as an owner the table cannot look up.
TEST(MembershipTest, DeltaNamingAnUnknownOwnerRejected) {
  auto table = MembershipTable::CreateUniform(32, Addresses(4));
  MembershipTable receiver = table;
  const std::uint32_t since = table.epoch();
  const InstanceId added =
      table.AddInstance(NodeAddress{"10.0.0.99", 50099}, 9);
  table.SetOwner(7, added);
  receiver.SetOwner(3, 1);
  const InstanceId owner = receiver.OwnerOf(7);
  EXPECT_EQ(receiver.ApplyUpdate(table.EncodeDelta(since)).code(),
            StatusCode::kCorruption);
  EXPECT_EQ(receiver.OwnerOf(7), owner);
  EXPECT_EQ(receiver.ReplicaChain(7, 1).front(), owner);
}

TEST(MembershipTest, CorruptUpdateRejected) {
  auto table = MembershipTable::CreateUniform(32, Addresses(4));
  EXPECT_FALSE(table.ApplyUpdate("garbage").ok());
  EXPECT_FALSE(table.ApplyUpdate("").ok());
  EXPECT_FALSE(MembershipTable::DecodeFull("x").ok());
}

TEST(MembershipTest, MemoryFootprintMatchesPaperBudget) {
  // §III.A: "membership is very small, 32 bytes per entry, 1 million nodes
  // only need 32MB". Our serialized entry must stay in that ballpark.
  auto table = MembershipTable::CreateUniform(4096, Addresses(256));
  std::string encoded = table.EncodeFull();
  double per_instance =
      static_cast<double>(encoded.size()) / table.instance_count();
  EXPECT_LT(per_instance, 64.0);
}

}  // namespace
}  // namespace zht
