// Recovery campaign (ctest -L recovery): online replica rebuild after node
// failures. Kills under live mixed traffic at r=2 and r=3 must leave the
// recorded history clean (only transient errors), restore the replication
// level via checkpoint shipping, and leave rebuilt replicas byte-for-byte
// equal to the survivors. Anti-entropy digest exchange must converge
// deliberately diverged replicas and move no pair data between clean ones.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/local_cluster.h"
#include "history_checker.h"
#include "net/fault_injection.h"
#include "net/loopback.h"

namespace zht {
namespace {

ZhtClientOptions RecoveryClient() {
  ZhtClientOptions options;
  options.max_attempts = 24;
  options.failure_detector.failures_to_mark_dead = 4;
  options.failure_detector.initial_backoff = 0;
  options.sleep_on_backoff = false;
  return options;
}

// Members of `p`'s chain that are alive — after a handled failure the table
// skips dead instances, so this is the restored chain.
std::vector<InstanceId> AliveChain(const MembershipTable& table, PartitionId p,
                                   int replicas) {
  std::vector<InstanceId> alive;
  for (InstanceId id : table.ReplicaChain(p, replicas)) {
    if (table.Instance(id).alive) alive.push_back(id);
  }
  return alive;
}

// True when every partition's alive chain members hold digest-identical
// copies. `why` names the first divergence for failure messages.
bool ReplicationConverged(LocalCluster& cluster, int replicas,
                          std::string* why) {
  MembershipTable table = cluster.TableSnapshot();
  for (PartitionId p = 0; p < table.num_partitions(); ++p) {
    auto alive = AliveChain(table, p, replicas);
    if (alive.empty()) {
      *why = "partition " + std::to_string(p) + " has no alive replica";
      return false;
    }
    PartitionDigest owner = cluster.server(alive[0])->PartitionDigestOf(p);
    for (std::size_t i = 1; i < alive.size(); ++i) {
      PartitionDigest replica = cluster.server(alive[i])->PartitionDigestOf(p);
      if (!(replica == owner)) {
        *why = "partition " + std::to_string(p) + ": instance " +
               std::to_string(alive[i]) + " diverges from owner " +
               std::to_string(alive[0]);
        return false;
      }
    }
  }
  return true;
}

// Polls for digest convergence across every partition's alive chain,
// draining async legs between probes. Midway it issues one explicit
// RepairPartition healing pass per partition (anti-entropy), covering legs
// a completed rebuild may have raced.
::testing::AssertionResult WaitForConvergence(LocalCluster& cluster,
                                              int replicas) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(15);
  bool healed = false;
  std::string why;
  while (std::chrono::steady_clock::now() < deadline) {
    cluster.FlushAllAsyncReplication();
    if (ReplicationConverged(cluster, replicas, &why)) {
      return ::testing::AssertionSuccess();
    }
    if (!healed) {
      healed = true;
      MembershipTable table = cluster.TableSnapshot();
      for (PartitionId p = 0; p < table.num_partitions(); ++p) {
        auto alive = AliveChain(table, p, replicas);
        if (alive.size() > 1) cluster.server(alive[0])->RepairPartition(p);
      }
      continue;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return ::testing::AssertionFailure() << "not converged: " << why;
}

// Byte-for-byte equality of every alive replica pair set against its owner.
void ExpectReplicasIdentical(LocalCluster& cluster, int replicas) {
  MembershipTable table = cluster.TableSnapshot();
  for (PartitionId p = 0; p < table.num_partitions(); ++p) {
    auto alive = AliveChain(table, p, replicas);
    ASSERT_FALSE(alive.empty()) << "partition " << p << " lost";
    auto expected = cluster.server(alive[0])->PartitionPairs(p);
    for (std::size_t i = 1; i < alive.size(); ++i) {
      auto got = cluster.server(alive[i])->PartitionPairs(p);
      EXPECT_EQ(got, expected)
          << "partition " << p << ": instance " << alive[i]
          << " does not match owner " << alive[0] << " byte-for-byte";
    }
  }
}

struct ServerTotals {
  std::uint64_t probes = 0;
  std::uint64_t clean = 0;
  std::uint64_t started = 0;
  std::uint64_t completed = 0;
  std::uint64_t pairs = 0;
  std::uint64_t retries = 0;
};

ServerTotals SumServerStats(LocalCluster& cluster) {
  ServerTotals totals;
  for (std::size_t i = 0; i < cluster.instance_count(); ++i) {
    ZhtServerStats stats = cluster.server(i)->stats();
    totals.probes += stats.antientropy_probes;
    totals.clean += stats.antientropy_clean;
    totals.started += stats.rebuilds_started;
    totals.completed += stats.rebuilds_completed;
    totals.pairs += stats.rebuild_pairs_streamed;
    totals.retries += stats.rebuild_retries;
  }
  return totals;
}

std::uint64_t SumFailuresHandled(LocalCluster& cluster) {
  std::uint64_t total = 0;
  for (std::size_t m = 0; m < cluster.manager_count(); ++m) {
    total += cluster.manager(m)->stats().failures_handled;
  }
  return total;
}

std::uint64_t SumRepairsCommanded(LocalCluster& cluster) {
  std::uint64_t total = 0;
  for (std::size_t m = 0; m < cluster.manager_count(); ++m) {
    total += cluster.manager(m)->stats().repairs_commanded;
  }
  return total;
}

// One op of recorded mixed traffic (register inserts/lookups/removes plus
// ledger appends, the two disciplines the checker understands).
void IssueOne(ZhtClient& client, HistoryRecorder& recorder,
              std::uint64_t client_id, Rng& rng, std::uint64_t* counter) {
  const std::string reg = "reg" + std::to_string(rng.Below(12));
  const std::string led = "led" + std::to_string(rng.Below(4));
  const double dice = rng.NextDouble();
  ++*counter;
  if (dice < 0.35) {
    const std::string value = "c" + std::to_string(client_id) + "v" +
                              std::to_string(*counter);
    std::uint64_t id = recorder.Begin(client_id, OpCode::kInsert, reg, value);
    recorder.End(id, client.Insert(reg, value).code());
  } else if (dice < 0.55) {
    std::uint64_t id = recorder.Begin(client_id, OpCode::kLookup, reg, "");
    auto got = client.Lookup(reg);
    recorder.End(id, got.status().code(), got.ok() ? *got : "");
  } else if (dice < 0.62) {
    std::uint64_t id = recorder.Begin(client_id, OpCode::kRemove, reg, "");
    recorder.End(id, client.Remove(reg).code());
  } else if (dice < 0.85) {
    const std::string token = "c" + std::to_string(client_id) + "t" +
                              std::to_string(*counter) + ";";
    std::uint64_t id = recorder.Begin(client_id, OpCode::kAppend, led, token);
    recorder.End(id, client.Append(led, token).code());
  } else {
    std::uint64_t id = recorder.Begin(client_id, OpCode::kLookup, led, "");
    auto got = client.Lookup(led);
    recorder.End(id, got.status().code(), got.ok() ? *got : "");
  }
}

// Kill one instance under live mixed traffic and verify the full recovery
// contract. Shared by the r=2 and r=3 tests.
void RunKillUnderTraffic(int replicas, std::size_t victim,
                         std::uint64_t seed) {
  LocalClusterOptions options;
  options.num_instances = 6;
  options.num_partitions = 48;
  options.cluster.num_replicas = replicas;
  auto cluster = LocalCluster::Start(options);
  ASSERT_TRUE(cluster.ok());

  HistoryRecorder recorder;
  auto a = (*cluster)->CreateClient(RecoveryClient());
  auto b = (*cluster)->CreateClient(RecoveryClient());
  Rng rng(seed);
  std::uint64_t counter_a = 0;
  std::uint64_t counter_b = 0;

  for (int i = 0; i < 60; ++i) {
    IssueOne(*a, recorder, 1, rng, &counter_a);
    IssueOne(*b, recorder, 2, rng, &counter_b);
  }
  (*cluster)->KillInstance(victim);
  int failed_after_kill = 0;
  for (int i = 0; i < 90; ++i) {
    // Live traffic across detection, promotion, and the rebuild streams.
    const std::size_t before = recorder.size();
    IssueOne(*a, recorder, 1, rng, &counter_a);
    IssueOne(*b, recorder, 2, rng, &counter_b);
    auto events = recorder.Events();
    for (std::size_t e = before; e < events.size(); ++e) {
      const StatusCode code = events[e].result;
      if (code != StatusCode::kOk && code != StatusCode::kNotFound) {
        ++failed_after_kill;
      }
    }
  }

  // Only transient errors: the tail of the post-kill window, after the
  // clients learned the new table, must succeed outright.
  std::uint64_t final_id =
      recorder.Begin(1, OpCode::kInsert, "final_probe", "fv1");
  Status final_insert = a->Insert("final_probe", "fv1");
  recorder.End(final_id, final_insert.code());
  EXPECT_TRUE(final_insert.ok()) << final_insert.ToString();
  EXPECT_LT(failed_after_kill, 180) << "no op ever recovered after the kill";

  auto check = CheckHistory(recorder.Events());
  EXPECT_TRUE(check.ok()) << check.ToString();

  // The manager saw the failure and commanded rebuilds of every affected
  // partition; the owners' streams restore the replication level.
  EXPECT_EQ(SumFailuresHandled(**cluster), 1u);
  EXPECT_GT(SumRepairsCommanded(**cluster), 0u);
  EXPECT_TRUE(WaitForConvergence(**cluster, replicas));
  ServerTotals totals = SumServerStats(**cluster);
  EXPECT_GT(totals.probes, 0u);
  EXPECT_GT(totals.started, 0u);
  EXPECT_GT(totals.completed, 0u);
  EXPECT_GT(totals.pairs, 0u);
  ExpectReplicasIdentical(**cluster, replicas);
}

TEST(RecoveryTest, KillAtR2UnderLiveTrafficRestoresReplication) {
  RunKillUnderTraffic(/*replicas=*/2, /*victim=*/1, /*seed=*/4242);
}

TEST(RecoveryTest, KillAtR3UnderLiveTrafficRestoresReplication) {
  RunKillUnderTraffic(/*replicas=*/3, /*victim=*/2, /*seed=*/4343);
}

TEST(RecoveryTest, AntiEntropyConvergesDivergedReplicas) {
  LocalClusterOptions options;
  options.num_instances = 4;
  options.num_partitions = 16;
  options.cluster.num_replicas = 2;
  options.fault_plan = std::make_shared<FaultPlan>(/*seed=*/77);
  auto cluster = LocalCluster::Start(options);
  ASSERT_TRUE(cluster.ok());
  auto client = (*cluster)->CreateClient(RecoveryClient());

  // Diverge instance 2: drop every replica insert leg sent to it while the
  // owners keep acking. Keys are chosen so 2 is in the chain but never the
  // owner — the client's own inserts are untouched.
  MembershipTable table = (*cluster)->TableSnapshot();
  const InstanceId diverged = 2;
  std::vector<PartitionId> tracked;
  int rule = options.fault_plan->AddRule(
      {.kind = FaultKind::kDropRequest,
       .to = (*cluster)->instance_address(diverged),
       .op = OpCode::kInsert});
  int written = 0;
  for (int i = 0; written < 40 && i < 4000; ++i) {
    const std::string key = "div" + std::to_string(i);
    const PartitionId p = table.PartitionOfKey(key);
    auto chain = table.ReplicaChain(p, options.cluster.num_replicas);
    if (chain.empty() || chain[0] == diverged) continue;
    if (std::find(chain.begin(), chain.end(), diverged) == chain.end()) {
      continue;
    }
    ASSERT_TRUE(client->Insert(key, "dv" + std::to_string(i)).ok());
    if (std::find(tracked.begin(), tracked.end(), p) == tracked.end()) {
      tracked.push_back(p);
    }
    ++written;
  }
  ASSERT_EQ(written, 40);
  options.fault_plan->RemoveRule(rule);
  (*cluster)->FlushAllAsyncReplication();

  // The dropped legs really diverged the replica.
  int diverged_partitions = 0;
  for (PartitionId p : tracked) {
    PartitionDigest owner =
        (*cluster)
            ->server(table.ReplicaChain(p, options.cluster.num_replicas)[0])
            ->PartitionDigestOf(p);
    PartitionDigest theirs = (*cluster)->server(diverged)->PartitionDigestOf(p);
    if (!(theirs == owner)) ++diverged_partitions;
  }
  ASSERT_GT(diverged_partitions, 0);

  // Digest exchange + checkpoint shipping from each owner converges them.
  ServerTotals before = SumServerStats(**cluster);
  for (PartitionId p : tracked) {
    InstanceId owner = table.ReplicaChain(p, options.cluster.num_replicas)[0];
    Status repaired = (*cluster)->server(owner)->RepairPartition(p);
    EXPECT_TRUE(repaired.ok()) << "partition " << p << ": "
                               << repaired.ToString();
  }
  (*cluster)->FlushAllAsyncReplication();
  ServerTotals after = SumServerStats(**cluster);
  EXPECT_GT(after.probes, before.probes);
  EXPECT_GT(after.started, before.started);
  EXPECT_GT(after.pairs, before.pairs);

  std::string why;
  EXPECT_TRUE(ReplicationConverged(**cluster, options.cluster.num_replicas,
                                   &why))
      << why;
  ExpectReplicasIdentical(**cluster, options.cluster.num_replicas);
}

TEST(RecoveryTest, AntiEntropyCleanReplicasMoveNoPairData) {
  LocalClusterOptions options;
  options.num_instances = 4;
  options.num_partitions = 16;
  options.cluster.num_replicas = 2;
  auto cluster = LocalCluster::Start(options);
  ASSERT_TRUE(cluster.ok());
  auto client = (*cluster)->CreateClient(RecoveryClient());

  Rng rng(88);
  for (int i = 0; i < 120; ++i) {
    ASSERT_TRUE(
        client->Insert("clean" + std::to_string(i), rng.AsciiString(24)).ok());
  }
  (*cluster)->FlushAllAsyncReplication();
  std::string why;
  ASSERT_TRUE(ReplicationConverged(**cluster, options.cluster.num_replicas,
                                   &why))
      << why;

  // Every probe of a clean chain answers "match": digests travel, pairs
  // don't, and no stream ever starts.
  ServerTotals before = SumServerStats(**cluster);
  MembershipTable table = (*cluster)->TableSnapshot();
  for (PartitionId p = 0; p < table.num_partitions(); ++p) {
    auto chain = table.ReplicaChain(p, options.cluster.num_replicas);
    ASSERT_FALSE(chain.empty());
    Status repaired = (*cluster)->server(chain[0])->RepairPartition(p);
    EXPECT_TRUE(repaired.ok()) << repaired.ToString();
  }
  ServerTotals after = SumServerStats(**cluster);
  EXPECT_GT(after.probes, before.probes);
  EXPECT_EQ(after.clean - before.clean, after.probes - before.probes);
  EXPECT_EQ(after.started, before.started);
  EXPECT_EQ(after.pairs, before.pairs);
  EXPECT_EQ(after.retries, before.retries);
}

// Synchronous replication legs: a primary and its secondary on the
// loopback network, the primary's peer link behind a fault plan so a test
// can hold legs in flight. Built by hand (not LocalCluster) so a test can
// destroy the primary while its legs are still queued.
class SyncLaneTest : public ::testing::Test {
 protected:
  void SetUp() override {
    addresses_ = {NodeAddress{"loop", 1}, NodeAddress{"loop", 2}};
    table_ = MembershipTable::CreateUniform(8, addresses_);
    for (InstanceId i = 0; i < 2; ++i) {
      transports_.push_back(std::make_unique<FaultInjectingTransport>(
          std::make_unique<LoopbackTransport>(&network_), plan_,
          addresses_[i]));
      ZhtServerOptions options;
      options.self = i;
      options.cluster.num_replicas = 1;
      servers_.push_back(
          std::make_unique<ZhtServer>(table_, options, transports_[i].get()));
      network_.Register(addresses_[i], servers_[i]->AsyncHandler());
    }
  }

  void TearDown() override {
    for (const NodeAddress& address : addresses_) network_.Unregister(address);
  }

  // The n-th key whose partition instance 0 owns (chain [0, 1]).
  std::string KeyOfPrimary(const std::string& prefix, int n = 0) {
    for (int i = 0; i < 100000; ++i) {
      std::string key = prefix + std::to_string(i);
      if (table_.OwnerOf(table_.PartitionOfKey(key)) == 0 && n-- == 0) {
        return key;
      }
    }
    ADD_FAILURE() << "no key owned by instance 0";
    return "";
  }

  Request Write(OpCode op, const std::string& key, const std::string& value) {
    Request request;
    request.op = op;
    request.seq = ++seq_;
    request.key = key;
    request.value = value;
    request.epoch = table_.epoch();
    return request;
  }

  // Holds the first `count` calls to the secondary for `delay` each.
  void HoldLegs(Nanos delay, std::uint64_t count) {
    FaultRule rule;
    rule.kind = FaultKind::kDelay;
    rule.to = addresses_[1];
    rule.delay = delay;
    rule.max_faults = count;
    rule_ = plan_->AddRule(rule);
  }

  // Blocks until the fault plan has delayed `count` calls in total (the
  // held leg is on the wire) or 5 s pass.
  void AwaitDelays(std::uint64_t count) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (plan_->stats().delays < count &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_GE(plan_->stats().delays, count);
  }

  std::vector<NodeAddress> addresses_;
  MembershipTable table_;
  LoopbackNetwork network_;
  std::shared_ptr<FaultPlan> plan_ = std::make_shared<FaultPlan>(/*seed=*/13);
  std::vector<std::unique_ptr<ClientTransport>> transports_;
  std::vector<std::unique_ptr<ZhtServer>> servers_;
  std::uint64_t seq_ = 0;
  int rule_ = 0;
};

// Two writes to one key, the first one's leg held on the wire: the second
// write's leg must not overtake it, or the secondary ends up holding the
// older value (register) or the appends in the wrong order (ledger).
TEST_F(SyncLaneTest, LegsOfOneKeyReachTheSecondaryInApplyOrder) {
  for (OpCode op : {OpCode::kInsert, OpCode::kAppend}) {
    SCOPED_TRACE(std::string(OpCodeName(op)));
    const std::string key =
        KeyOfPrimary(op == OpCode::kInsert ? "register-" : "ledger-");
    const std::uint64_t delays = plan_->stats().delays;
    HoldLegs(200 * kNanosPerMilli, 1);
    std::thread first([&] {
      EXPECT_TRUE(servers_[0]->Handle(Write(op, key, "a;")).ok());
    });
    AwaitDelays(delays + 1);  // the first leg is applied and held
    EXPECT_TRUE(servers_[0]->Handle(Write(op, key, "b;")).ok());
    first.join();
    plan_->RemoveRule(rule_);
    for (auto& server : servers_) server->FlushAsyncReplication();

    const PartitionId partition = table_.PartitionOfKey(key);
    const auto primary = servers_[0]->PartitionPairs(partition);
    EXPECT_EQ(primary, servers_[1]->PartitionPairs(partition));
    const auto it = std::find_if(primary.begin(), primary.end(),
                                 [&](const auto& kv) { return kv.first == key; });
    ASSERT_NE(it, primary.end());
    EXPECT_EQ(it->second, op == OpCode::kInsert ? "b;" : "a;b;");
  }
}

// Writes queued behind a held carrier: FlushAsyncReplication returns only
// once every lane is empty, and each write is acked exactly once, after its
// leg landed. The queued legs leave together, in one carrier.
TEST_F(SyncLaneTest, FlushDrainsEveryLaneAndAcksEachWriteOnce) {
  constexpr int kWrites = 24;
  HoldLegs(100 * kNanosPerMilli, 1);
  std::vector<std::atomic<int>> fired(kWrites);
  std::atomic<int> acked_ok{0};
  for (int i = 0; i < kWrites; ++i) {
    servers_[0]->HandleAsync(
        Write(OpCode::kInsert, KeyOfPrimary("flush-", i), "v"),
        [&, i](Response&& resp) {
          fired[i].fetch_add(1);
          if (resp.ok()) acked_ok.fetch_add(1);
        });
  }
  servers_[0]->FlushAsyncReplication();
  for (int i = 0; i < kWrites; ++i) EXPECT_EQ(fired[i].load(), 1) << i;
  EXPECT_EQ(acked_ok.load(), kWrites);
  for (PartitionId p = 0; p < table_.num_partitions(); ++p) {
    EXPECT_EQ(servers_[0]->PartitionPairs(p), servers_[1]->PartitionPairs(p))
        << "partition " << p;
  }

  // Read back over STATS' source: every leg in a carrier, none failed, and
  // at least one carrier held more than one leg.
  const MetricsSnapshot snapshot = servers_[0]->MetricsSnapshotNow();
  const MetricValue* batch = snapshot.Find("server.replication.sync_batch");
  ASSERT_NE(batch, nullptr);
  EXPECT_EQ(batch->histogram.sum, static_cast<std::uint64_t>(kWrites));
  EXPECT_LT(batch->histogram.count, static_cast<std::uint64_t>(kWrites));
  EXPECT_GT(batch->histogram.max, 1u);
  EXPECT_EQ(snapshot.ValueOf("server.replication.sync_failed"), 0);
}

// Destroying the primary while legs wait behind a held carrier: the
// destructor drains every lane first, so each write's callback fires
// exactly once and the secondary holds every acked write.
TEST_F(SyncLaneTest, DestroyingThePrimaryCompletesEveryQueuedWrite) {
  constexpr int kWrites = 24;
  HoldLegs(100 * kNanosPerMilli, 2);
  std::vector<std::atomic<int>> fired(kWrites);
  std::atomic<int> acked_ok{0};
  std::vector<std::string> keys;
  for (int i = 0; i < kWrites; ++i) {
    keys.push_back(KeyOfPrimary("teardown-", i));
    servers_[0]->HandleAsync(Write(OpCode::kInsert, keys.back(), "v"),
                             [&, i](Response&& resp) {
                               fired[i].fetch_add(1);
                               if (resp.ok()) acked_ok.fetch_add(1);
                             });
  }
  network_.Unregister(addresses_[0]);
  servers_[0].reset();
  for (int i = 0; i < kWrites; ++i) EXPECT_EQ(fired[i].load(), 1) << i;
  EXPECT_EQ(acked_ok.load(), kWrites);
  for (const std::string& key : keys) {
    Request lookup = Write(OpCode::kLookup, key, "");
    lookup.server_origin = true;  // read the replica directly
    lookup.replica_index = 1;
    const Response resp = servers_[1]->Handle(std::move(lookup));
    EXPECT_TRUE(resp.ok()) << key;
    EXPECT_EQ(resp.value, "v") << key;
  }
}

}  // namespace
}  // namespace zht
