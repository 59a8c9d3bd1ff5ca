// Unit tests of ZhtServer::Handle — the protocol state machine exercised
// directly, without a cluster harness: ownership checks and REDIRECT
// payloads, epoch piggybacking, MIGRATING responses, replica traffic,
// membership pull/push, partition transfer (migration over the verified
// Begin/Data/End stream, the per-partition lifecycle edges, shadow-store
// ids), and the append dedup window.
#include <future>
#include <mutex>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "core/zht_server.h"
#include "net/loopback.h"
#include "novoht/novoht.h"
#include "serialize/metrics_codec.h"
#include "serialize/wire.h"

namespace zht {
namespace {

class ZhtServerUnitTest : public ::testing::Test {
 protected:
  void SetUp() override {
    addresses_ = {NodeAddress{"10.0.0.1", 50000},
                  NodeAddress{"10.0.0.2", 50000},
                  NodeAddress{"10.0.0.3", 50000}};
    table_ = MembershipTable::CreateUniform(24, addresses_);
    transport_ = std::make_unique<LoopbackTransport>(&network_);
  }

  std::unique_ptr<ZhtServer> MakeServer(InstanceId self, int replicas = 0) {
    ZhtServerOptions options;
    options.self = self;
    options.cluster.num_replicas = replicas;
    return std::make_unique<ZhtServer>(table_, options, transport_.get());
  }

  // A key owned by the given instance (brute-force search).
  std::string KeyOwnedBy(InstanceId owner) {
    for (int i = 0; i < 10000; ++i) {
      std::string key = "key-" + std::to_string(i);
      if (table_.OwnerOf(table_.PartitionOfKey(key)) == owner) return key;
    }
    ADD_FAILURE() << "no key found for instance " << owner;
    return "";
  }

  Request DataRequest(OpCode op, const std::string& key,
                      const std::string& value = "") {
    Request request;
    request.op = op;
    request.seq = ++seq_;
    request.key = key;
    request.value = value;
    request.epoch = table_.epoch();
    return request;
  }

  // A partition-addressed transfer message (as a stream source sends it).
  Request TransferRequest(OpCode op, PartitionId partition,
                          std::string value = "") {
    Request request;
    request.op = op;
    request.seq = ++seq_;
    request.partition = partition;
    request.value = std::move(value);
    request.server_origin = true;
    return request;
  }

  std::vector<NodeAddress> addresses_;
  MembershipTable table_;
  LoopbackNetwork network_;
  std::unique_ptr<LoopbackTransport> transport_;
  std::uint64_t seq_ = 0;
};

TEST_F(ZhtServerUnitTest, OwnerServesAndEchoesSeq) {
  auto server = MakeServer(0);
  std::string key = KeyOwnedBy(0);
  Response resp = server->Handle(DataRequest(OpCode::kInsert, key, "v"));
  EXPECT_TRUE(resp.ok());
  EXPECT_EQ(resp.seq, seq_);
  resp = server->Handle(DataRequest(OpCode::kLookup, key));
  EXPECT_EQ(resp.value, "v");
}

TEST_F(ZhtServerUnitTest, WrongOwnerRedirectsWithOwnerAddress) {
  auto server = MakeServer(0);
  std::string key = KeyOwnedBy(2);
  Response resp = server->Handle(DataRequest(OpCode::kInsert, key, "v"));
  EXPECT_EQ(resp.status_as_object().code(), StatusCode::kRedirect);
  EXPECT_EQ(resp.redirect_host, "10.0.0.3");
  EXPECT_EQ(resp.redirect_port, 50000);
  EXPECT_FALSE(resp.membership.empty());  // piggybacked table for the
                                          // lazy client update
  EXPECT_EQ(server->stats().redirects, 1u);
  EXPECT_EQ(server->stats().ops, 0u);  // nothing applied
}

TEST_F(ZhtServerUnitTest, RedirectMembershipIsApplicable) {
  auto server = MakeServer(0);
  std::string key = KeyOwnedBy(1);
  Request request = DataRequest(OpCode::kLookup, key);
  request.epoch = 0;  // very stale client
  Response resp = server->Handle(std::move(request));
  ASSERT_EQ(resp.status_as_object().code(), StatusCode::kRedirect);
  MembershipTable fresh;
  EXPECT_TRUE(fresh.ApplyUpdate(resp.membership).ok());
  EXPECT_EQ(fresh.instance_count(), 3u);
}

TEST_F(ZhtServerUnitTest, PingReportsEpoch) {
  auto server = MakeServer(0);
  Request ping;
  ping.op = OpCode::kPing;
  ping.seq = 9;
  Response resp = server->Handle(std::move(ping));
  EXPECT_TRUE(resp.ok());
  EXPECT_EQ(resp.epoch, table_.epoch());
}

TEST_F(ZhtServerUnitTest, ReplicaTrafficBypassesOwnershipCheck) {
  auto server = MakeServer(0);
  std::string key = KeyOwnedBy(2);  // not ours
  Request request = DataRequest(OpCode::kInsert, key, "copy");
  request.server_origin = true;
  request.replica_index = 1;
  Response resp = server->Handle(std::move(request));
  EXPECT_TRUE(resp.ok());
  EXPECT_EQ(server->TotalEntries(), 1u);
}

TEST_F(ZhtServerUnitTest, ClientFailoverReadServedByChainMember) {
  // Instance 1 is the first successor of instance 0's partitions.
  auto server = MakeServer(1, /*replicas=*/1);
  std::string key = KeyOwnedBy(0);
  // Seed the replica copy.
  Request seed = DataRequest(OpCode::kInsert, key, "v");
  seed.server_origin = true;
  seed.replica_index = 1;
  EXPECT_TRUE(server->Handle(std::move(seed)).ok());
  // Client failover read: replica_index=1, not server-origin.
  Request read = DataRequest(OpCode::kLookup, key);
  read.replica_index = 1;
  Response resp = server->Handle(std::move(read));
  EXPECT_TRUE(resp.ok());
  EXPECT_EQ(resp.value, "v");
}

TEST_F(ZhtServerUnitTest, FailoverToNonChainMemberStillRedirects) {
  // Instance 2 is NOT in the 2-member chain of instance 0's partitions.
  auto server = MakeServer(2, /*replicas=*/1);
  std::string key = KeyOwnedBy(0);
  Request read = DataRequest(OpCode::kLookup, key);
  read.replica_index = 1;
  Response resp = server->Handle(std::move(read));
  EXPECT_EQ(resp.status_as_object().code(), StatusCode::kRedirect);
}

TEST_F(ZhtServerUnitTest, MembershipPullFullAndDelta) {
  auto server = MakeServer(0);
  Request pull;
  pull.op = OpCode::kMembershipPull;
  pull.seq = 1;
  pull.epoch = 0;  // wants a full snapshot
  Response resp = server->Handle(std::move(pull));
  auto full = MembershipTable::DecodeFull(resp.membership);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(*full, table_);

  Request delta_pull;
  delta_pull.op = OpCode::kMembershipPull;
  delta_pull.seq = 2;
  delta_pull.epoch = table_.epoch();  // up to date: empty delta
  resp = server->Handle(std::move(delta_pull));
  MembershipTable copy = table_;
  EXPECT_TRUE(copy.ApplyUpdate(resp.membership).ok());
  EXPECT_EQ(copy, table_);
}

TEST_F(ZhtServerUnitTest, MembershipPushAdvancesEpoch) {
  auto server = MakeServer(0);
  MembershipTable updated = table_;
  updated.SetOwner(3, 1);
  Request push;
  push.op = OpCode::kMembershipPush;
  push.seq = 1;
  push.value = updated.EncodeDelta(table_.epoch());
  push.server_origin = true;
  Response resp = server->Handle(std::move(push));
  EXPECT_TRUE(resp.ok());
  EXPECT_EQ(resp.epoch, updated.epoch());
  EXPECT_EQ(server->table().OwnerOf(3), 1u);
}

TEST_F(ZhtServerUnitTest, MigrationTrioMovesPairs) {
  auto source = MakeServer(0);
  auto target_slot = std::make_shared<AsyncRequestHandler>();
  NodeAddress target_address = network_.Register(
      [target_slot](Request&& req, ResponseCallback done) {
        (*target_slot)(std::move(req), std::move(done));
      });
  ZhtServerOptions target_options;
  target_options.self = 1;
  ZhtServer target(table_, target_options, transport_.get());
  *target_slot = target.AsyncHandler();

  std::string key = KeyOwnedBy(0);
  ASSERT_TRUE(source->Handle(DataRequest(OpCode::kInsert, key, "mv")).ok());
  PartitionId p = table_.PartitionOfKey(key);

  ASSERT_TRUE(source->MigratePartitionTo(p, target_address).ok());
  EXPECT_EQ(source->TotalEntries(), 0u);
  EXPECT_EQ(target.TotalEntries(), 1u);
  EXPECT_EQ(source->stats().migrations_out, 1u);
  EXPECT_EQ(target.stats().migrations_in, 1u);
}

TEST_F(ZhtServerUnitTest, SecondMigrationOfSamePartitionWhileActiveFails) {
  auto source = MakeServer(0);
  // Target that never answers: migration will hang on timeout — instead
  // use a down address so every transfer attempt fails fast and the
  // partition resumes serving.
  NodeAddress dead = network_.Register([](Request&& req) {
    Response resp;
    resp.seq = req.seq;
    return resp;
  });
  network_.SetDown(dead, true);
  std::string key = KeyOwnedBy(0);
  source->Handle(DataRequest(OpCode::kInsert, key, "v"));
  PartitionId p = table_.PartitionOfKey(key);
  EXPECT_FALSE(source->MigratePartitionTo(p, dead).ok());
  // Lock released after failure: data still there and servable.
  Response resp = source->Handle(DataRequest(OpCode::kLookup, key));
  EXPECT_TRUE(resp.ok());
  EXPECT_EQ(resp.value, "v");
}

TEST(PartitionStateTest, EdgeTableAcceptsExactlyTheListedEdges) {
  using S = PartitionState;
  const S all[] = {S::kServing, S::kSending, S::kHandedOff, S::kReceiving};
  const std::set<std::pair<S, S>> legal = {
      {S::kServing, S::kSending},     {S::kServing, S::kReceiving},
      {S::kSending, S::kServing},     {S::kSending, S::kHandedOff},
      {S::kHandedOff, S::kServing},   {S::kReceiving, S::kReceiving},
      {S::kReceiving, S::kServing},
  };
  for (S from : all) {
    for (S to : all) {
      EXPECT_EQ(IsLegalTransition(from, to), legal.count({from, to}) == 1)
          << static_cast<int>(from) << " -> " << static_cast<int>(to);
    }
  }
  // The decision the edge table exists to pin: a transfer Begin arriving
  // while this instance sends or has just handed off the partition.
  EXPECT_FALSE(IsLegalTransition(S::kSending, S::kReceiving));
  EXPECT_FALSE(IsLegalTransition(S::kHandedOff, S::kReceiving));
}

TEST_F(ZhtServerUnitTest, TransferBeginRefusedWhileSendingOrHandedOff) {
  auto source = MakeServer(0);
  // Destination whose first Begin blocks, holding the source in kSending.
  std::promise<void> sending;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::once_flag hold;
  auto target_slot = std::make_shared<AsyncRequestHandler>();
  NodeAddress target_address = network_.Register(
      [&, target_slot](Request&& req, ResponseCallback done) {
        if (req.op == OpCode::kTransferBegin) {
          std::call_once(hold, [&] {
            sending.set_value();
            released.wait();
          });
        }
        (*target_slot)(std::move(req), std::move(done));
      });
  ZhtServerOptions target_options;
  target_options.self = 1;
  ZhtServer target(table_, target_options, transport_.get());
  *target_slot = target.AsyncHandler();

  std::string key = KeyOwnedBy(0);
  ASSERT_TRUE(source->Handle(DataRequest(OpCode::kInsert, key, "v")).ok());
  const PartitionId p = table_.PartitionOfKey(key);
  std::future<Status> migrated = std::async(std::launch::async, [&] {
    return source->MigratePartitionTo(p, target_address);
  });
  sending.get_future().wait();

  // kSending: a competing stream's Begin is refused, and so are its Data
  // and End (no landing was opened), so that stream can never verify.
  EXPECT_EQ(source->Handle(TransferRequest(OpCode::kTransferBegin, p)).status,
            Status(StatusCode::kMigrating).raw());
  EXPECT_FALSE(source->Handle(TransferRequest(OpCode::kTransferData, p)).ok());
  EXPECT_EQ(source
                ->Handle(TransferRequest(OpCode::kTransferEnd, p,
                                         PartitionDigest{}.Encode()))
                .status,
            Status(StatusCode::kCorruption).raw());
  EXPECT_EQ(source->Handle(DataRequest(OpCode::kLookup, key)).status,
            Status(StatusCode::kMigrating).raw());

  release.set_value();
  ASSERT_TRUE(migrated.get().ok());
  EXPECT_EQ(target.TotalEntries(), 1u);

  // kHandedOff: the table still names this instance owner; Begin is
  // refused and data ops keep answering kMigrating.
  EXPECT_EQ(source->Handle(TransferRequest(OpCode::kTransferBegin, p)).status,
            Status(StatusCode::kMigrating).raw());
  EXPECT_EQ(source->Handle(DataRequest(OpCode::kLookup, key)).status,
            Status(StatusCode::kMigrating).raw());

  // A table naming the new owner releases the handoff (no replicas, so
  // the source leaves the chain): it redirects, and a later stream's Begin
  // is accepted again.
  MembershipTable moved = table_;
  moved.SetOwner(p, 1);
  Request push;
  push.op = OpCode::kMembershipPush;
  push.seq = ++seq_;
  push.value = moved.EncodeDelta(table_.epoch());
  push.server_origin = true;
  ASSERT_TRUE(source->Handle(std::move(push)).ok());
  EXPECT_EQ(source->Handle(DataRequest(OpCode::kLookup, key)).status,
            Status(StatusCode::kRedirect).raw());
  EXPECT_TRUE(source->Handle(TransferRequest(OpCode::kTransferBegin, p)).ok());
}

TEST(ZhtServerShadowTest, ShadowIdsNeverCollideWithCanonicalIds) {
  // More than 2^20 partitions: a fixed shadow offset of 1 << 20 would put
  // partition 3's landing pad on canonical partition 3 + 2^20.
  constexpr std::uint32_t kPartitions = (1u << 20) + 16;
  MembershipTable table = MembershipTable::CreateUniform(
      kPartitions, {NodeAddress{"10.0.0.1", 50000}});
  std::mutex mu;
  std::vector<PartitionId> requested;
  ZhtServerOptions options;
  options.self = 0;
  options.num_shards = 1;
  options.store_factory = [&](InstanceId, PartitionId id) {
    {
      std::lock_guard<std::mutex> lock(mu);
      requested.push_back(id);
    }
    auto store = NoVoHT::Open(NoVoHTOptions{});
    return store.ok() ? std::move(*store) : nullptr;
  };
  LoopbackNetwork network;
  LoopbackTransport transport(&network);
  ZhtServer server(table, options, &transport);

  // One transfer of a single pair into each partition: a Data carrier
  // (varint count, then varint key/value lengths and the bytes) and an End
  // bearing the pair's digest.
  std::string carrier;
  wire::Writer w(&carrier);
  w.PutVarint(1);
  w.PutVarint(1);
  w.PutVarint(1);
  w.PutBytes("k");
  w.PutBytes("v");
  PartitionDigest digest;
  digest.Add("k", "v");
  const std::vector<PartitionId> canonical = {3, 3 + (1u << 20)};
  std::uint64_t seq = 0;
  for (PartitionId p : canonical) {
    for (OpCode op : {OpCode::kTransferBegin, OpCode::kTransferData,
                      OpCode::kTransferEnd}) {
      Request request;
      request.op = op;
      request.seq = ++seq;
      request.partition = p;
      request.server_origin = true;
      if (op == OpCode::kTransferData) request.value = carrier;
      if (op == OpCode::kTransferEnd) request.value = digest.Encode();
      ASSERT_TRUE(server.Handle(std::move(request)).ok());
    }
    EXPECT_EQ(server.PartitionPairs(p).size(), 1u);
  }
  std::lock_guard<std::mutex> lock(mu);
  // Two landing pads plus two canonical stores, all at distinct ids, and
  // every landing id outside the canonical range.
  ASSERT_EQ(requested.size(), 4u);
  EXPECT_EQ(std::set<PartitionId>(requested.begin(), requested.end()).size(),
            requested.size());
  for (PartitionId id : requested) {
    if (id == canonical[0] || id == canonical[1]) continue;
    EXPECT_GE(id, kPartitions) << "landing id inside the canonical range";
  }
}

TEST_F(ZhtServerUnitTest, DuplicateAppendDroppedOnce) {
  auto server = MakeServer(0);
  std::string key = KeyOwnedBy(0);
  Request append = DataRequest(OpCode::kAppend, key, "x");
  append.client_id = 77;
  Request duplicate = append;  // identical (client_id, seq): a retransmit
  EXPECT_TRUE(server->Handle(std::move(append)).ok());
  EXPECT_TRUE(server->Handle(std::move(duplicate)).ok());
  Response resp = server->Handle(DataRequest(OpCode::kLookup, key));
  EXPECT_EQ(resp.value, "x");  // applied exactly once
  EXPECT_EQ(server->stats().duplicate_appends_dropped, 1u);
}

TEST_F(ZhtServerUnitTest, DistinctSeqAppendsBothApply) {
  auto server = MakeServer(0);
  std::string key = KeyOwnedBy(0);
  Request a = DataRequest(OpCode::kAppend, key, "x");
  a.client_id = 77;
  Request b = DataRequest(OpCode::kAppend, key, "y");  // new seq
  b.client_id = 77;
  server->Handle(std::move(a));
  server->Handle(std::move(b));
  EXPECT_EQ(server->Handle(DataRequest(OpCode::kLookup, key)).value, "xy");
}

TEST_F(ZhtServerUnitTest, AnonymousAppendsNeverDeduped) {
  auto server = MakeServer(0);
  std::string key = KeyOwnedBy(0);
  Request a = DataRequest(OpCode::kAppend, key, "x");
  a.client_id = 0;  // no identity: dedup impossible by design
  Request b = a;
  server->Handle(std::move(a));
  server->Handle(std::move(b));
  EXPECT_EQ(server->Handle(DataRequest(OpCode::kLookup, key)).value, "xx");
}

TEST_F(ZhtServerUnitTest, BroadcastAppliesLocally) {
  auto server = MakeServer(0);
  Request bcast;
  bcast.op = OpCode::kBroadcast;
  bcast.seq = 1;
  bcast.key = "bkey";
  bcast.value = "bval";
  Response resp = server->Handle(std::move(bcast));
  EXPECT_TRUE(resp.ok());
  EXPECT_EQ(server->stats().broadcasts, 1u);
  server->FlushAsyncReplication();
}

TEST_F(ZhtServerUnitTest, RemoveMissingKeyNotFound) {
  auto server = MakeServer(0);
  std::string key = KeyOwnedBy(0);
  Response resp = server->Handle(DataRequest(OpCode::kRemove, key));
  EXPECT_EQ(resp.status_as_object().code(), StatusCode::kNotFound);
}

// STATS now answers with the versioned structured metrics encoding; the
// legacy text keys survive as named gauges/counters.
TEST_F(ZhtServerUnitTest, StatsReturnsDecodableStructuredMetrics) {
  auto server = MakeServer(0);
  std::string key = KeyOwnedBy(0);
  EXPECT_TRUE(server->Handle(DataRequest(OpCode::kInsert, key, "v")).ok());
  EXPECT_TRUE(server->Handle(DataRequest(OpCode::kLookup, key)).ok());

  Request stats_req;
  stats_req.op = OpCode::kStats;
  stats_req.seq = 99;
  Response resp = server->Handle(std::move(stats_req));
  ASSERT_TRUE(resp.ok());

  auto snapshot = DecodeMetricsSnapshot(resp.value);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ(snapshot->ValueOf("instance"), 0);
  EXPECT_EQ(snapshot->ValueOf("entries"), 1);
  EXPECT_GE(snapshot->ValueOf("ops"), 2);
  // Acceptance: at least one per-opcode latency histogram with samples.
  const MetricValue* insert_hist =
      snapshot->Find("server.op.insert.latency_ns");
  ASSERT_NE(insert_hist, nullptr);
  EXPECT_EQ(insert_hist->kind, MetricKind::kHistogram);
  EXPECT_EQ(insert_hist->histogram.count, 1u);
  const MetricValue* lookup_hist =
      snapshot->Find("server.op.lookup.latency_ns");
  ASSERT_NE(lookup_hist, nullptr);
  EXPECT_EQ(lookup_hist->histogram.count, 1u);
}

// Scripted ops → exact counter deltas, via two STATS snapshots.
TEST_F(ZhtServerUnitTest, StatsCountersTrackScriptedOps) {
  auto server = MakeServer(0);
  auto snapshot_now = [&] {
    Request req;
    req.op = OpCode::kStats;
    req.seq = ++seq_;
    Response resp = server->Handle(std::move(req));
    auto snapshot = DecodeMetricsSnapshot(resp.value);
    EXPECT_TRUE(snapshot.ok());
    return std::move(*snapshot);
  };

  MetricsSnapshot before = snapshot_now();
  std::string key = KeyOwnedBy(0);
  std::string other = KeyOwnedBy(1);  // not ours: redirected, not served
  EXPECT_TRUE(server->Handle(DataRequest(OpCode::kInsert, key, "v")).ok());
  EXPECT_TRUE(server->Handle(DataRequest(OpCode::kAppend, key, "w")).ok());
  EXPECT_TRUE(server->Handle(DataRequest(OpCode::kLookup, key)).ok());
  server->Handle(DataRequest(OpCode::kInsert, other, "x"));
  MetricsSnapshot after = snapshot_now();

  // `ops` counts store-applied operations only — the redirected insert
  // never reaches the store; the per-opcode histograms time every handled
  // request (what a client waits for), so the redirect IS in there.
  EXPECT_EQ(after.ValueOf("ops") - before.ValueOf("ops"), 3);
  EXPECT_EQ(after.ValueOf("redirects") - before.ValueOf("redirects"), 1);
  EXPECT_EQ(after.ValueOf("server.redirects") -
                before.ValueOf("server.redirects"),
            1);
  auto hist_count = [](const MetricsSnapshot& snapshot, const char* name) {
    const MetricValue* entry = snapshot.Find(name);
    return entry == nullptr ? std::uint64_t{0} : entry->histogram.count;
  };
  EXPECT_EQ(hist_count(after, "server.op.insert.latency_ns") -
                hist_count(before, "server.op.insert.latency_ns"),
            2u);
  EXPECT_EQ(hist_count(after, "server.op.append.latency_ns") -
                hist_count(before, "server.op.append.latency_ns"),
            1u);
  EXPECT_EQ(hist_count(after, "server.op.lookup.latency_ns") -
                hist_count(before, "server.op.lookup.latency_ns"),
            1u);
}

// Replication fan-out lands in the histogram and sync/async counters; the
// sync leg (to an address nothing listens on) travels alone in its lane's
// carrier, fails, and is counted while the write is still acked.
TEST_F(ZhtServerUnitTest, StatsReplicationMetrics) {
  auto server = MakeServer(0, /*replicas=*/2);
  std::string key = KeyOwnedBy(0);
  EXPECT_TRUE(server->Handle(DataRequest(OpCode::kInsert, key, "v")).ok());
  server->FlushAsyncReplication();

  MetricsSnapshot snapshot = server->MetricsSnapshotNow();
  const MetricValue* fanout = snapshot.Find("server.replication.fanout");
  ASSERT_NE(fanout, nullptr);
  EXPECT_EQ(fanout->histogram.count, 1u);
  EXPECT_EQ(fanout->histogram.sum, 2u);  // two replicas per chain write
  EXPECT_EQ(snapshot.ValueOf("server.replication.sync"), 1);
  EXPECT_EQ(snapshot.ValueOf("server.replication.async"), 1);
  EXPECT_EQ(snapshot.ValueOf("replications_sync"), 1);
  EXPECT_EQ(snapshot.ValueOf("replications_async"), 1);
  const MetricValue* carriers = snapshot.Find("server.replication.sync_batch");
  ASSERT_NE(carriers, nullptr);
  EXPECT_EQ(carriers->histogram.count, 1u);
  EXPECT_EQ(carriers->histogram.sum, 1u);
  EXPECT_EQ(snapshot.ValueOf("server.replication.sync_failed"), 1);
}

}  // namespace
}  // namespace zht
